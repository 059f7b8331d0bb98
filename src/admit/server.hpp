// aurora::admit server — sessions, weighted fair-share admission queues,
// deadline cancellation and per-target circuit breakers over aurora::sched.
//
// The server owns one sched::executor configured for serving (shed-mode
// backpressure, fail_fast off so one tenant's failure never poisons
// another's work) and interposes the tenant policy between clients and it:
//
//   submit ──▶ admission checks (session open? quota? occupancy by class?
//              per-session bound? breaker for the requested engine?)
//          ──▶ per-session bounded queue
//          ──▶ WFQ dispatch (strict class priority, weighted round robin
//              within a class) into the executor as capacity frees
//          ──▶ settlement: request handles observe done/failed/expired,
//              breakers and per-tenant metrics are fed from outcomes.
//
// Rejections throw ham::offload::admission_error at submit() — the request
// was never accepted and holds no memory. The server decides and counts a
// refusal without throwing; the inline submit() then throws once, with
// nothing of its own left to clean up. Accepted requests always settle
// (done, failed, expired, or shed-on-close), never hang, never vanish.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "admit/admit.hpp"
#include "admit/breaker.hpp"
#include "metrics/metrics.hpp"
#include "offload/future.hpp"
#include "sched/executor.hpp"

namespace aurora::admit {

class server;

namespace detail {

/// Shared settlement record behind a request handle.
struct request_state {
    enum class phase : std::uint8_t {
        queued,   ///< in its session queue, not yet dispatched
        inflight, ///< submitted to the executor
        done,     ///< executed successfully
        failed,   ///< raised on the target or skipped after a failure
        expired,  ///< deadline passed before dispatch; cancelled
        shed,     ///< cancelled by session close before dispatch
    };
    phase ph = phase::queued;
    session_id sid = invalid_session;
    qos_class cls = qos_class::batch;
    std::uint64_t serial = 0; ///< server-wide admission serial (obs key)
    sched::task_id tid = sched::invalid_task;
    sim::time_ns submitted_at = 0;
    std::int64_t deadline_ns = 0; ///< absolute; 0 = none
    std::vector<std::byte> msg;   ///< serialized task, held while queued
    sched::task_options topts;
    std::string error;            ///< what() text for failed/expired/shed
    std::int64_t retry_after_ns = 0;
    /// This request was admitted as a half-open breaker probe; if it settles
    /// without a verdict for its affinity engine (expired, rerouted, session
    /// closed) the probe slot must be released via breaker::abort_probe().
    bool probe = false;
};

} // namespace detail

/// Handle to one admitted request. Requests return void by design (results
/// flow through buffer_ptr memory, as in aurora::sched); the handle reports
/// the outcome: get() returns on success and rethrows typed errors
/// (offload_error, deadline_exceeded_error, admission_error) otherwise.
class request {
public:
    request() = default;

    [[nodiscard]] bool valid() const noexcept { return s_ != nullptr; }
    [[nodiscard]] bool settled() const;
    /// Non-blocking probe: one server poll, then settled().
    bool test();
    /// Pump the server (virtual time) until this request settles.
    void wait();
    /// wait(), then: done returns; failed throws offload_error; expired
    /// throws deadline_exceeded_error; shed-on-close throws admission_error.
    void get();

private:
    friend class server;
    request(server* srv, std::shared_ptr<detail::request_state> s)
        : srv_(srv), s_(std::move(s)) {}

    server* srv_ = nullptr;
    std::shared_ptr<detail::request_state> s_;
};

class server {
public:
    struct config {
        /// Shared backlog bound: requests queued in sessions plus unfinished
        /// in the executor. Occupancy against this drives class shedding.
        std::size_t capacity = 1024;
        /// Background traffic sheds once backlog reaches this percent of
        /// capacity; batch at its threshold; latency only at 100%.
        std::uint32_t shed_background_pct = 50;
        std::uint32_t shed_batch_pct = 75;
        /// Bound on work handed to the scheduler at once. The rest of the
        /// backlog waits in session queues, where class priority, weights and
        /// deadlines still apply — a deep scheduler queue would freeze the
        /// dispatch order long before execution. 0 = capacity / 4 (min 1).
        std::size_t dispatch_window = 0;
        /// Underlying executor knobs (placement/window/batching). max_queued,
        /// backpressure and fail_fast are overridden for serving.
        sched::executor_config exec;
        breaker_config breaker;
    };

    /// Must be constructed inside offload::run() (owns a sched::executor).
    server() : server(config{}) {}
    explicit server(config cfg);
    server(const server&) = delete;
    server& operator=(const server&) = delete;

    // --- sessions -----------------------------------------------------------
    [[nodiscard]] session_id open(session_options opts = {});
    /// Close a session: queued requests settle as shed (typed, counted),
    /// in-flight ones run to completion. Idempotent.
    void close(session_id sid);
    [[nodiscard]] session_stats stats(session_id sid) const;
    [[nodiscard]] std::size_t open_sessions() const noexcept {
        return open_sessions_;
    }

    // --- requests -----------------------------------------------------------
    /// Admission choke point. Throws ham::offload::admission_error (with a
    /// retry-after hint) when the request is rejected; the request was never
    /// recorded. Accepted requests are queued (or dispatched immediately).
    /// The task is serialized first, so a refused one costs its construction
    /// in virtual time too.
    template <typename Functor>
    request submit(session_id sid, Functor f, request_options ro = {}) {
        {
            std::vector<std::byte> msg = sched::detail::serialize_task(f);
            session_rec& s = rec_for(sid);
            bool probe = false;
            if (!refused(s, sid, ro, probe)) {
                return enqueue(s, sid, std::move(msg), ro, probe);
            }
        }
        // Nothing of this frame is left to destroy, so the unwinder runs no
        // cleanup here on its way to the caller's handler.
        throw ham::offload::admission_error(refusal_, refusal_retry_ns_);
    }

    // --- pumping ------------------------------------------------------------
    /// One cooperative tick: expire overdue queued work, WFQ-dispatch into
    /// the executor, poll it, reconcile settlements. True on any progress.
    /// Its steps and checks go through sim::pass: a waiting loop parks on
    /// it after a tick that found nothing.
    bool poll();
    /// Pump until every admitted request settled (virtual time passes).
    void drain();

    // --- introspection ------------------------------------------------------
    /// Requests queued in sessions plus unfinished in the executor.
    [[nodiscard]] std::size_t backlog() const noexcept {
        return queued_total_ + exec_.unfinished();
    }
    [[nodiscard]] breaker_state breaker_of(sched::node_t node);
    [[nodiscard]] const config& options() const noexcept { return cfg_; }
    [[nodiscard]] sched::executor& scheduler() noexcept { return exec_; }

    struct statistics {
        std::uint64_t admitted = 0;
        std::uint64_t shed = 0;    ///< all rejections + close-cancellations
        std::uint64_t expired = 0; ///< deadline cancellations (queue + sched)
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
    };
    [[nodiscard]] const statistics& stats() const noexcept { return stats_; }

private:
    using request_ptr = std::shared_ptr<detail::request_state>;

    /// Registry instruments shared by every session of one tenant.
    struct tenant_instruments {
        aurora::metrics::counter* admitted = nullptr;
        aurora::metrics::counter* shed = nullptr;
        aurora::metrics::counter* expired = nullptr;
        aurora::metrics::counter* completed = nullptr;
        aurora::metrics::counter* failed = nullptr;
        aurora::metrics::gauge* queue_depth = nullptr;
        aurora::metrics::gauge* sessions_open = nullptr;
    };

    struct session_rec {
        session_options opts;
        bool open = false;
        std::deque<request_ptr> queue;
        /// Dispatch credits left in the session's current WFQ turn. Persists
        /// across polls when the window fills mid-turn, so weights hold even
        /// when capacity frees one slot at a time (deficit round robin).
        std::uint32_t quantum = 0;
        std::uint64_t admitted = 0;
        std::uint64_t shed = 0;
        std::uint64_t expired = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        tenant_instruments* met = nullptr;
    };

    [[nodiscard]] tenant_instruments& instruments_for(const std::string& tenant);
    [[nodiscard]] session_rec& rec_for(session_id sid);
    /// The admission gates, in order: session open, quota, session queue
    /// bound, occupancy by class, breaker. True when one refuses: the
    /// refusal is counted per session, tenant and server, and its text and
    /// hint are left in refusal_ and refusal_retry_ns_. Otherwise `probe`
    /// is set when the request is a half-open breaker's probe.
    [[nodiscard]] bool refused(session_rec& s, session_id sid,
                               const request_options& ro, bool& probe);
    /// Queue an admitted request, then dispatch what fits.
    request enqueue(session_rec& s, session_id sid, std::vector<std::byte> msg,
                    const request_options& ro, bool probe);
    /// Deadline sweep over every session queue (cancel + settle + count);
    /// returns at once before the earliest queued deadline can be due.
    bool expire_queued();
    /// Settle one queued request as expired (never dispatched).
    void expire_request(session_rec& s, const request_ptr& r);
    /// Strict-priority weighted-round-robin dispatch into the executor.
    bool dispatch_queued();
    /// Harvest executor outcomes into request settlements, breakers, metrics.
    bool reconcile();
    void refresh_gauges();
    /// Dispatch-capacity left in the executor before the shared bound.
    [[nodiscard]] std::size_t exec_room() const noexcept;
    /// Deterministic retry-after hint for occupancy sheds.
    [[nodiscard]] std::int64_t occupancy_retry_hint() const;

    config cfg_;
    sched::executor exec_;
    std::size_t num_targets_ = 0;
    std::size_t dispatch_window_ = 0; ///< resolved cfg_.dispatch_window
    /// Every session ever opened, at index id - 1 (ids are dense from 1 and
    /// never reused): closed ones stay so stats(sid) answers. A deque, so an
    /// open() never moves the records queued_sessions_ points to.
    std::deque<session_rec> sessions_;
    /// The sessions whose queue is non-empty, in id order. Dispatch and the
    /// deadline sweep walk only these, so their cost follows the queued
    /// sessions, not every session the server has seen.
    std::map<session_id, session_rec*> queued_sessions_;
    std::uint64_t next_serial_ = 1;
    std::size_t open_sessions_ = 0;
    std::size_t queued_total_ = 0; ///< across all session queues
    /// The earliest queued deadline (sim::never: none queued), the sweep's
    /// check. Enqueue lowers it and each sweep recomputes it from what
    /// stays; a request holding it that leaves otherwise marks it stale,
    /// and the next sweep check recomputes it first, so a parked wait never
    /// wakes for an empty sweep.
    sim::time_ns next_expiry_ = sim::never;
    bool expiry_stale_ = false;
    /// The last refusal's what() text and retry-after hint.
    std::string refusal_;
    std::int64_t refusal_retry_ns_ = 0;
    std::vector<request_ptr> inflight_; ///< awaiting executor settlement
    std::vector<breaker> breakers_;     ///< index = target - 1
    /// Round-robin cursors per QoS class (session-id the next scan starts
    /// after), keeping WFQ fair across polls and deterministic.
    std::array<session_id, num_qos_classes> rr_after_{};
    statistics stats_;
    std::map<std::string, tenant_instruments> tenants_;
    /// Class-labelled instruments (admission-to-settlement latency, etc.).
    std::array<aurora::metrics::histogram*, num_qos_classes> latency_ns_{};
    std::vector<aurora::metrics::gauge*> breaker_gauges_; ///< index = target-1
    std::vector<aurora::metrics::counter*> breaker_trips_; ///< index = target-1
    /// This server's trips already added to breaker_trips_ (index =
    /// target-1): the counter is process-wide, so it sums every server's.
    std::vector<std::uint64_t> trips_exported_;
    aurora::metrics::gauge* backlog_gauge_ = nullptr;
    /// Cached cost_model::ham_msg_dispatch_ns — the unit of retry-after hints.
    std::int64_t dispatch_cost_ns_ = 0;
};

} // namespace aurora::admit
