// aurora::sched executor — a multi-VE task scheduler over ham::offload.
//
// Owns one ready queue and one bounded in-flight window per engine (a (VH,
// VE) pair of an engine_set — by default the ambient runtime's targets),
// submits ready tasks as asynchronous active messages, and load-balances
// across the engines:
//
//   * dependency edges resolve as flights land (the front flight's future
//     tests ready; successors of its tasks enter their ready queues),
//   * submission applies backpressure — when more than max_queued tasks are
//     unfinished, submit() blocks in *virtual* time draining completions
//     instead of failing on slot exhaustion,
//   * placement is locality-aware with optional work stealing (policy.hpp);
//     across VH nodes, steal_scope and remote_steal_threshold decide when an
//     idle engine may take work over an inter-node link,
//   * consecutive ready tasks bound for the same engine coalesce into one
//     batch message (protocol::msg_kind::batch) when they fit the slot
//     payload, amortising the per-message protocol cost of paper Fig. 9,
//   * waiting costs the simulator nothing: the executor runs each pass
//     through the pass cursor (sim::pass), and after a pass that found
//     nothing it parks on that pass's record until one of its checks would
//     act.
//
// Determinism contract: every decision derives from virtual time, submission
// order and stable tie-breaking (lowest node id, FIFO queues) — never host
// wall clock. Two runs of the same workload produce bit-identical schedules
// and virtual timestamps (see docs/SCHEDULER.md).
#pragma once

#include <deque>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/metrics.hpp"
#include "offload/future.hpp"
#include "sched/engines.hpp"
#include "sched/policy.hpp"
#include "sched/task.hpp"
#include "sched/task_graph.hpp"

namespace aurora::sched {

class executor {
public:
    /// Per-engine load counters (index i describes engine i).
    struct target_load {
        std::uint64_t tasks_executed = 0;
        std::uint64_t messages_sent = 0;  ///< offload messages (incl. batches)
        std::uint64_t batches_sent = 0;   ///< messages carrying >= 2 tasks
        std::uint64_t tasks_stolen_in = 0;///< executed here, homed elsewhere
        std::uint64_t busy_cost_ns = 0;   ///< sum of executed tasks' cost_ns
        std::size_t queue_depth = 0;      ///< current ready-queue length
    };

    struct statistics {
        std::uint64_t host_tasks = 0;
        std::uint64_t steals = 0;              ///< steal transactions
        std::uint64_t tasks_stolen = 0;        ///< tasks the steals moved
        std::uint64_t tasks_stolen_remote = 0; ///< ...of them across VHs
        std::uint64_t backpressure_stalls = 0; ///< submits that had to block
        std::uint64_t batched_tasks = 0;       ///< tasks that rode in batches
        std::uint64_t failovers = 0;           ///< target-failure evacuations
        std::uint64_t tasks_failed_over = 0;   ///< tasks re-routed by failover
        std::uint64_t tasks_shed = 0;     ///< submits rejected (shed mode)
        std::uint64_t tasks_expired = 0;  ///< deadline-cancelled before dispatch
        std::uint64_t tasks_failed = 0;   ///< tasks settled as failed
        std::vector<target_load> per_target;
    };

    /// Must be constructed inside offload::run() (uses runtime::current()).
    /// Schedules onto the ambient runtime's targets...
    explicit executor(executor_config cfg = {});
    /// ...or onto `engines` (e.g. an aurora::net::cluster), which must
    /// outlive the executor.
    explicit executor(engine_set& engines, executor_config cfg = {});
    executor(const executor&) = delete;
    executor& operator=(const executor&) = delete;

    /// Submit one task; returns immediately unless backpressure applies.
    template <typename Functor>
    task_id submit(Functor f, task_options opts = {},
                   std::initializer_list<task_id> deps = {}) {
        return submit_serialized(detail::serialize_task(f), opts, deps.begin(),
                                 deps.size());
    }
    template <typename Functor>
    task_id submit(Functor f, std::initializer_list<task_id> deps) {
        return submit(std::move(f), task_options{}, deps);
    }
    task_id submit_serialized(std::vector<std::byte> msg, const task_options& opts,
                              const task_id* deps, std::size_t dep_count);

    /// Submit every task of `g` (graph ids stay valid executor ids as long as
    /// the executor was empty) and execute to completion.
    void run(const task_graph& g);

    /// Drive the schedule until every submitted task finished. Rethrows the
    /// first target-side failure as offload_error after in-flight work lands;
    /// tasks not yet dispatched at failure time are skipped.
    void wait_all();

    [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
    [[nodiscard]] task_state state_of(task_id id) const;
    [[nodiscard]] bool finished(task_id id) const {
        const task_state s = state_of(id);
        return s == task_state::done || s == task_state::failed ||
               s == task_state::expired;
    }

    /// One cooperative scheduling tick: run host tasks, harvest completed
    /// flights, refill the dispatch windows. True when anything progressed.
    /// The pump for callers (aurora::admit) that interleave submission with
    /// their own control flow instead of parking in wait_all().
    /// Its steps and checks go through sim::pass: a caller's loop parks on
    /// it after a tick that made no progress.
    bool poll() { return drain_once(); }
    /// Submitted tasks not yet settled (done, failed or expired).
    [[nodiscard]] std::size_t unfinished() const noexcept {
        return tasks_.size() - finished_count_;
    }
    [[nodiscard]] const executor_config& config() const noexcept { return cfg_; }

    /// Counters; per_target queue depths are refreshed on each call.
    [[nodiscard]] const statistics& stats();

    /// Completion records in completion order (successful tasks only),
    /// gathered from the per-task records on each call.
    [[nodiscard]] const std::vector<completion_record>& trace() const;

    /// Per-task completion record (valid once finished(id); executed_on tells
    /// which engine settled it — aurora::admit feeds its breakers with this).
    [[nodiscard]] const completion_record& record_of(task_id id) const {
        return tasks_[id].record;
    }

    /// Why a task settled as task_state::failed (empty for any other state) —
    /// the root cause aurora::admit copies into the request's error so
    /// request::get() rethrows it instead of a generic message.
    [[nodiscard]] const std::string& error_of(task_id id) const {
        static const std::string none;
        const auto it = errors_.find(id);
        return it == errors_.end() ? none : it->second;
    }

private:
    struct flight {
        ham::offload::future<void> fut;
        std::vector<task_id> tasks;
    };

    struct target_queues {
        std::deque<task_id> ready;
        /// Pinned tasks in `ready`: steals, failover and rerouting move only
        /// the others, so ready.size() - pinned of them are stealable.
        std::size_t pinned = 0;
        std::deque<flight> inflight;
    };

    executor(engine_set* engines, executor_config cfg);

    [[nodiscard]] node_t node_of(std::size_t t) const { return ids_[t]; }
    [[nodiscard]] std::size_t index_of(node_t id) const {
        return index_[static_cast<std::size_t>(id)];
    }
    /// The VH an any_ve_of() affinity names, or -1 for any other value.
    [[nodiscard]] int vh_marker(node_t affinity) const;
    /// The engine on `vh` with the fewest ready plus in-flight tasks.
    [[nodiscard]] std::size_t least_loaded_on(int vh) const;

    void release_ready(task_id id);
    void finish_task(task_id id, task_state outcome, node_t executed_on,
                     std::string error = {});
    /// Deadline set and already in the past?
    [[nodiscard]] bool past_deadline(task_id id) const;
    /// Cancel an undispatched task whose deadline passed (counted, cascades).
    void expire_task(task_id id);
    /// Record a failure: poison the run under fail_fast, else just remember
    /// the first error text for diagnostics.
    void note_failure(const std::string& what);

    /// One pass: host tasks, harvests, dispatches (sim::pass records it).
    bool drain_once();
    /// Does a pass that made no progress end with the remote-only pause?
    [[nodiscard]] bool waits_only_remote();
    void run_host_task(task_id id);
    bool harvest_target(std::size_t t);
    void retire_flight(std::size_t t, flight& f);
    bool dispatch_target(std::size_t t);
    bool steal_into(std::size_t thief);
    /// How many tasks from the front of `q` the next message carries: the
    /// front one, plus (batching) the consecutive ones that fit `cap` bytes,
    /// up to max_batch, stopping at one past its deadline.
    [[nodiscard]] std::size_t group_size(const std::deque<task_id>& q,
                                         std::size_t cap) const;
    /// What a pass reads of engine `t`'s health and probation progress. A
    /// local engine's is the executor's own state. An engine on another VH
    /// moves by itself, so the pass reads the copy taken when a live check
    /// (sim::pass) last saw engine_version() move: a replayed pass then
    /// reads what its record read.
    struct engine_view {
        ham::offload::target_health health = ham::offload::target_health::healthy;
        std::uint32_t probation = 0;
    };
    [[nodiscard]] engine_view view(std::size_t t);
    /// The live check: 0 once engine_version() moved from `seen`, else never.
    [[nodiscard]] static aurora::sim::time_ns engines_moved(const void* self,
                                                           std::uint64_t seen);

    // --- graceful degradation + self-healing (aurora::fault, aurora::heal) --
    // When a target transitions to target_health::failed (terminal — recovery
    // disabled or exhausted) its queued tasks and every un-acked in-flight
    // task re-route to healthy targets; pinned tasks fail. Re-routed tasks may
    // execute more than once if the dead target got partway through them.
    //
    // With recovery enabled a dying target instead passes through `recovering`
    // (the runtime respawns it and replays un-acked flights under a new epoch;
    // the scheduler keeps its queue and flights parked, so every task still
    // completes exactly once) and then `probation`, where the in-flight window
    // ramps from 1 back to the configured size as the clean-result streak
    // grows (reintegration).
    [[nodiscard]] bool target_usable(std::size_t t);  ///< dispatchable
    [[nodiscard]] bool target_terminal(std::size_t t);///< failed for good
    /// The in-flight window of an engine seen as `v`.
    [[nodiscard]] std::uint32_t window_of(const engine_view& v) const;
    /// A live engine for re-routed work, on `near`'s VH when one is usable.
    [[nodiscard]] std::size_t next_healthy(std::size_t near);
    /// Why pinned task `id` failed with engine `t`.
    [[nodiscard]] std::string lost_target(task_id id, std::size_t t) const;
    void evacuate(std::size_t dead);
    bool reroute_flight(std::size_t dead, flight& f);

    executor_config cfg_;
    ham::offload::runtime& rt_;
    std::unique_ptr<engine_set> own_engines_; ///< the default runtime_engines
    engine_set& eng_;
    std::size_t num_targets_;
    std::uint32_t window_;
    /// Engine tables cached at construction: id and VH by index, index by id
    /// (ids need not be dense), and how many VH nodes the engines span.
    std::vector<node_t> ids_;
    std::vector<int> vh_;
    std::vector<std::size_t> index_;
    int num_vhs_ = 1;

    /// A deque: growing it never copies the records (nor doubles their
    /// footprint for the length of a reallocation).
    std::deque<detail::task_rec> tasks_;
    /// Why each failed task failed (see error_of); kept off the per-task
    /// record because few tasks ever fail.
    std::unordered_map<task_id, std::string> errors_;
    std::vector<target_queues> targets_;
    std::deque<task_id> host_ready_;
    std::size_t finished_count_ = 0;
    /// One counter feeds both start_seq and done_seq, so comparing them
    /// across tasks totally orders dispatch and completion events.
    std::uint64_t event_seq_ = 0;
    std::uint32_t rr_next_ = 0; ///< round-robin placement cursor
    std::uint32_t failover_rr_ = 0; ///< round-robin cursor for re-routed tasks

    bool failed_ = false;
    std::string first_error_;

    /// The views of the engines on other VHs (by engine index), and the
    /// engine_version() they were taken at.
    std::vector<engine_view> remote_;
    std::uint64_t engines_seen_ = ~std::uint64_t{0};
    /// Dispatch scratch, kept across passes: a group's tasks and its batch.
    std::vector<task_id> group_;
    ham::offload::protocol::batch_builder batch_{0};

    /// Registry-backed telemetry (always on): scheduler counters plus live
    /// per-target queue-depth / in-flight-window gauges, refreshed every
    /// drain tick. Instruments resolve once at construction.
    struct sched_instruments {
        aurora::metrics::counter* steals = nullptr;
        aurora::metrics::counter* stolen_local = nullptr;
        aurora::metrics::counter* stolen_remote = nullptr;
        aurora::metrics::counter* failovers = nullptr;
        aurora::metrics::counter* backpressure_stalls = nullptr;
        aurora::metrics::counter* host_tasks = nullptr;
        aurora::metrics::counter* tasks_completed = nullptr;
        aurora::metrics::counter* tasks_failed_over = nullptr;
        aurora::metrics::counter* tasks_shed = nullptr;
        aurora::metrics::counter* tasks_expired = nullptr;
        std::vector<aurora::metrics::gauge*> queue_depth; ///< index = target
        std::vector<aurora::metrics::gauge*> inflight;    ///< index = target
    };
    sched_instruments met_;

    statistics stats_;
    mutable std::vector<completion_record> trace_; ///< trace()'s result
};

} // namespace aurora::sched
