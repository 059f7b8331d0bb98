// The host-side HAM-Offload runtime.
//
// Owns one communication backend per offload target, manages the finite
// message slots (the host does all buffer bookkeeping — paper Sec. III-D),
// correlates results with futures via tickets, and provides the raw
// operations the typed Table II API wraps.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ham/handler_registry.hpp"
#include "mem/arena.hpp"
#include "metrics/metrics.hpp"
#include "offload/backend.hpp"
#include "offload/future.hpp"
#include "offload/options.hpp"
#include "offload/types.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "util/context_local.hpp"

namespace aurora::veos {
class veos_system;
}

namespace aurora::obs {
class flight_ring;
enum class stage : std::uint8_t;
}

namespace ham::offload {

class runtime : public detail::result_source {
public:
    /// Construct the runtime and connect all configured targets. `sys` may be
    /// null only for a pure-loopback configuration. Must run on the simulated
    /// VH process (of `sim`).
    runtime(sim::simulation& sim, aurora::veos::veos_system* sys,
            const ham::handler_registry& host_reg, runtime_options opt);
    ~runtime() override;
    runtime(const runtime&) = delete;
    runtime& operator=(const runtime&) = delete;

    /// The runtime of the calling simulated process or thread (installed
    /// via scope).
    [[nodiscard]] static runtime* current() noexcept { return current_.get(); }

    class scope {
    public:
        explicit scope(runtime& rt) : previous_(current_.get()) {
            current_.set(&rt);
        }
        ~scope() { current_.set(previous_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        runtime* previous_;
    };

    [[nodiscard]] const ham::handler_registry& host_registry() const noexcept {
        return host_reg_;
    }
    [[nodiscard]] const runtime_options& options() const noexcept { return opt_; }
    [[nodiscard]] const sim::cost_model& costs() const noexcept { return costs_; }

    // --- node queries (Table II) ---------------------------------------------
    [[nodiscard]] std::size_t num_nodes() const noexcept {
        return targets_.size() + 1;
    }
    [[nodiscard]] node_t this_node() const noexcept { return 0; }
    [[nodiscard]] node_descriptor descriptor(node_t node) const;

    // --- statistics -------------------------------------------------------------
    struct target_statistics {
        std::uint64_t messages_sent = 0;   ///< user offload messages
        std::uint64_t batches_sent = 0;    ///< coalesced batch messages thereof
        std::uint64_t results_received = 0;
        std::uint64_t bytes_put = 0;
        std::uint64_t bytes_got = 0;
        std::uint64_t data_chunks = 0;     ///< extension data-path chunks
        std::uint64_t retransmits = 0;     ///< reply-timeout-driven resends
        std::uint64_t corrupt_retries = 0; ///< checksum NACKs answered by resend
        std::uint64_t send_retries = 0;    ///< transient send-post retries
        std::uint64_t recoveries = 0;      ///< completed respawn+replay cycles
        std::uint64_t replayed = 0;        ///< un-acked messages replayed
    };
    /// Per-runtime counts for `node`, read back from the aurora::metrics
    /// registry (the single source of truth every exposition surface shares)
    /// minus the baselines captured when this runtime attached the target.
    [[nodiscard]] const target_statistics& statistics(node_t node);

    /// Instantaneous per-target queue state (scheduling-layer introspection).
    struct target_runtime_stats {
        std::uint32_t slots_total = 0;
        std::uint32_t in_flight = 0;   ///< slots holding an uncollected request
        std::uint32_t queue_depth = 0; ///< results arrived, not yet collected
        std::uint64_t completed = 0;   ///< results collected so far
        target_health health = target_health::healthy;
        std::uint64_t retransmits = 0;
        std::uint64_t corrupt_retries = 0;
        std::uint64_t send_retries = 0;
        std::uint64_t recoveries = 0;
        std::uint64_t replayed = 0;
        std::uint8_t epoch = 0; ///< current incarnation (0 = initial)
    };
    [[nodiscard]] target_runtime_stats runtime_stats(node_t node);

    // --- health (aurora::fault hardening) ---------------------------------------
    [[nodiscard]] target_health health(node_t node);
    /// Why a failed target failed ("" while not failed).
    [[nodiscard]] const std::string& failure_reason(node_t node);
    /// Declare `node` terminally failed: fence its process, abandon the
    /// backend, and settle every outstanding request (in flight or queued for
    /// replay) with a synthetic status::target_failed result so no future
    /// ever blocks on it. Idempotent. With recovery enabled
    /// (runtime_options::recovery), internal failure detection routes through
    /// the recovering state first; this is the terminal transition.
    void fail_target(node_t node, const std::string& why);

    /// Clean results since the target entered probation (or since its last
    /// fault while degraded) — the scheduler ramps its in-flight window with
    /// this until it reaches options().recovery_streak.
    [[nodiscard]] std::uint32_t probation_progress(node_t node);

    /// The target's current incarnation number (aurora::heal). 0 until the
    /// first recovery; stale-epoch traffic from earlier incarnations is
    /// rejected at the channel layer.
    [[nodiscard]] std::uint8_t target_epoch(node_t node);

    /// Graceful quiesce: drive every recovering target to a terminal state
    /// (healthy via respawn+replay, or failed), harvest every outstanding
    /// slot, and return once no work is in flight anywhere. Collected results
    /// stay buffered for their futures. Called by shutdown() first.
    void drain();

    // --- messaging -------------------------------------------------------------
    struct sent_message {
        std::uint64_t ticket = 0;
        std::uint32_t slot = 0;
    };

    /// Send one serialised active message; blocks while every slot has an
    /// uncollected result (buffering arrivals in the meantime).
    sent_message send_message(node_t node, const void* msg, std::size_t len,
                              protocol::msg_kind kind = protocol::msg_kind::user);

    /// Non-blocking send: true and fills `out` when the next slot (strict
    /// round-robin discipline) is free or just completed; false when the send
    /// would have to block. The backpressure primitive of aurora::sched.
    bool try_send_message(node_t node, const void* msg, std::size_t len,
                          sent_message& out,
                          protocol::msg_kind kind = protocol::msg_kind::user);

    /// How many messages can be sent to `node` right now without blocking:
    /// contiguous free slots from the round-robin cursor, after harvesting
    /// every completed result (non-blocking).
    [[nodiscard]] std::uint32_t slots_available(node_t node);

    bool try_collect(node_t node, std::uint64_t ticket, std::uint32_t slot,
                     std::vector<std::byte>& out) override;
    bool wait_collect_until(node_t node, std::uint64_t ticket, std::uint32_t slot,
                            std::vector<std::byte>& out,
                            sim::time_ns deadline_ns) override;

    /// Changes with every target's health or probation streak: a parked
    /// pass on another process compares it to see this runtime's targets
    /// move (a sim::pass live check must not miss such a change).
    [[nodiscard]] std::uint64_t health_version() const noexcept {
        return health_version_;
    }

    // --- memory (Table II allocate/free/put/get) --------------------------------
    [[nodiscard]] std::uint64_t allocate_raw(node_t node, std::uint64_t bytes);
    void free_raw(node_t node, std::uint64_t addr);
    void put_raw(node_t node, const void* src, std::uint64_t dst_addr,
                 std::uint64_t len);
    void get_raw(node_t node, std::uint64_t src_addr, void* dst, std::uint64_t len);

    [[nodiscard]] backend& backend_for(node_t node);

private:
    /// Retained copy of an un-acknowledged send (resilient mode only):
    /// everything a timeout retransmission or a checksum NACK needs.
    struct pending_send {
        std::vector<std::byte> wire; ///< exact wire bytes (incl. checksum)
        protocol::msg_kind kind = protocol::msg_kind::user;
        std::uint32_t attempts = 1;  ///< sends so far (1 = original only)
        sim::time_ns sent_at = 0;
        /// Decorrelated stretch added to this attempt's reply window (drawn
        /// once per attempt, so deadline sweeps are draw-free).
        std::int64_t window_jitter_ns = 0;
    };

    /// One un-acknowledged message carried across a recovery: reposted on the
    /// respawned incarnation under its ORIGINAL ticket, so the waiting future
    /// completes exactly once and never notices the respawn.
    struct replay_entry {
        std::uint64_t ticket = 0;
        std::vector<std::byte> wire;
        protocol::msg_kind kind = protocol::msg_kind::user;
    };

    /// Registry-backed telemetry for one target. The registry owns the
    /// instruments (process-wide cumulative series, stable addresses); the
    /// runtime caches raw pointers at attach time so every hot-path update is
    /// a single relaxed atomic. Counter baselines make statistics()
    /// per-runtime: concurrent runtimes sharing a (backend, node) label pair
    /// aggregate into the same series.
    struct target_instruments {
        aurora::metrics::counter* messages_sent = nullptr;
        aurora::metrics::counter* batches_sent = nullptr;
        aurora::metrics::counter* results_received = nullptr;
        aurora::metrics::counter* bytes_put = nullptr;
        aurora::metrics::counter* bytes_got = nullptr;
        aurora::metrics::counter* data_chunks = nullptr;
        aurora::metrics::counter* retransmits = nullptr;
        aurora::metrics::counter* corrupt_retries = nullptr;
        aurora::metrics::counter* send_retries = nullptr;
        aurora::metrics::counter* retries_suppressed = nullptr;
        aurora::metrics::histogram* roundtrip_ns = nullptr;
        aurora::metrics::histogram* msg_bytes = nullptr;
        aurora::metrics::gauge* health = nullptr;
        aurora::metrics::gauge* inflight = nullptr;
        aurora::metrics::gauge* queue_depth = nullptr;
        aurora::metrics::counter* recoveries = nullptr;
        aurora::metrics::counter* recovery_attempts = nullptr;
        aurora::metrics::counter* replayed = nullptr;
        aurora::metrics::gauge* epoch = nullptr;
        aurora::metrics::histogram* mttr_ns = nullptr;
        target_statistics base; ///< counter values when this runtime attached
    };

    /// region_source over a target's backend (defined in runtime.cpp).
    struct target_arena_source;

    struct target_state {
        std::unique_ptr<backend> be; ///< null when the attach failed
        /// aurora::mem data plane: VE buffers are carved out of arena-managed
        /// backing regions (one allocate_bytes per region, not per buffer).
        /// Declared after `be` so teardown can still reach the backend.
        std::unique_ptr<target_arena_source> arena_src;
        std::unique_ptr<aurora::mem::arena> arena;
        std::vector<std::uint64_t> slot_ticket; ///< 0 = slot free
        std::vector<sim::time_ns> slot_sent_ns; ///< post time, for round-trips
        std::map<std::uint64_t, std::vector<std::byte>> arrived;
        std::map<std::uint32_t, pending_send> pending; ///< by slot
        std::uint64_t next_ticket = 1;
        std::uint32_t rr = 0; ///< round-robin send cursor
        target_health health = target_health::healthy;
        std::string fail_reason;
        std::uint32_t ok_streak = 0; ///< clean results since the last fault
        // --- aurora::heal recovery state ---------------------------------------
        std::uint8_t epoch = 0;            ///< current incarnation
        std::uint32_t recover_attempts = 0; ///< re-attach tries this recovery
        sim::time_ns next_attempt_at = 0;  ///< backoff deadline (recovering)
        sim::time_ns failed_at = 0;        ///< detection time, for the MTTR
        bool mttr_pending = false; ///< MTTR not yet recorded for this failure
        std::vector<replay_entry> replay;  ///< un-acked work awaiting respawn
        // --- retry token bucket (aurora::admit overload robustness) -------------
        std::uint32_t retry_tokens = 0;    ///< tokens left in the budget
        sim::time_ns retry_refill_at = 0;  ///< last refill accounting point
        target_statistics stats; ///< refreshed from the registry on read
        target_instruments met;
        /// aurora::obs black box for this target (process-wide registry ring,
        /// keyed on the global node id; survives runtime teardown). Set by
        /// the constructor, before the backend that records into it.
        aurora::obs::flight_ring* flight = nullptr;
        /// Post (slot-bind) timestamp per slot, for request-stage attribution
        /// (slot_sent_ns is taken *after* the wire send; obs needs the edge
        /// before it too).
        std::vector<sim::time_ns> slot_posted_ns;
    };

    target_state& state_for(node_t node);
    /// Host-side (node 0) allocations: plain heap blocks.
    std::map<std::uint64_t, std::unique_ptr<std::byte[]>> host_heap_;
    /// Chunked put/get through the backend's staging window (extension).
    void pipelined_transfer(node_t node, void* host_buf, std::uint64_t target_addr,
                            std::uint64_t len, bool is_put);
    /// Zero-copy put/get (aurora::mem): one data message names the host
    /// buffer and the VE arena region; the VE drives a chained DMA burst
    /// between the registered segments. Returns false when the transfer does
    /// not qualify (no arena region, unaligned host pointer, below the size
    /// threshold, backend without support) — the caller falls back to the
    /// staged path.
    bool zero_copy_transfer(target_state& t, node_t node, void* host_buf,
                            std::uint64_t target_addr, std::uint64_t len,
                            bool is_put);
    /// Lazily create `t`'s arena (first VE allocation with mem_arena on).
    void ensure_arena(target_state& t, node_t node);
    /// Probe one slot's backend result; buffer an arrival under its ticket.
    bool harvest_slot(target_state& t, std::uint32_t slot, node_t node);
    /// harvest_slot() after its probe found `bytes`: handle NACKs, settle
    /// health, buffer the arrival. True when the slot's ticket arrived.
    bool absorb_result(target_state& t, std::uint32_t slot, node_t node,
                       std::vector<std::byte>& bytes);
    /// try_collect() after its future check: recovery, deadlines, then the
    /// arrived buffer and the ticket's slot.
    bool collect_checked(target_state& t, node_t node, std::uint64_t ticket,
                         std::uint32_t slot, std::vector<std::byte>& out);
    /// Move `ticket`'s buffered result into `out`, if it arrived.
    bool take_arrived(target_state& t, node_t node, std::uint64_t ticket,
                      std::uint32_t slot, std::vector<std::byte>& out);
    /// The slot carrying `ticket` (a replay may have moved it off `hint`),
    /// or slot_ticket.size() when none does.
    [[nodiscard]] static std::uint32_t live_slot(const target_state& t,
                                                 std::uint64_t ticket,
                                                 std::uint32_t hint);
    /// try_send_message() from the cursor slot's harvest on.
    bool send_on_cursor(target_state& t, node_t node, const void* msg,
                        std::size_t len, sent_message& out,
                        protocol::msg_kind kind);
    /// The reply window of `p`'s current attempt (check_deadlines).
    [[nodiscard]] std::int64_t reply_window(const pending_send& p) const;
    /// When check_deadlines(t) would next act (sim::never: not as things
    /// stand). Free of side effects.
    [[nodiscard]] sim::time_ns deadline_due(const target_state& t) const;
    std::uint32_t acquire_slot(target_state& t, node_t node);
    sent_message send_on_slot(target_state& t, std::uint32_t slot, const void* msg,
                              std::size_t len, protocol::msg_kind kind,
                              node_t node);
    /// The one choke point every ticket-creating send goes through: frames the
    /// wire bytes (checksum/corruption in fault mode), performs the transport
    /// send with transient-failure retries, allocates the ticket and records
    /// the pending copy. Throws target_failed_error when the target is (or
    /// becomes) failed.
    std::uint64_t post_on_slot(target_state& t, node_t node, std::uint32_t slot,
                               const void* msg, std::size_t len,
                               protocol::msg_kind kind);
    /// Transport send incl. bounded transient retry with exponential backoff;
    /// fails the target on exhaustion.
    io_status attempt_send(target_state& t, node_t node, std::uint32_t slot,
                           const void* wire, std::size_t len,
                           protocol::msg_kind kind, bool retransmit);
    /// Retransmit every pending send whose (exponentially widening) reply
    /// window expired; fails the target when the retry budget is exhausted.
    void check_deadlines(target_state& t, node_t node);
    /// Consume one retry token from `t`'s bucket after minting any refills
    /// earned since the last accounting point. Always true when no budget is
    /// configured (retry_budget == 0); false when the bucket is empty — the
    /// caller decides whether to wait for a refill (send path) or defer the
    /// retransmit to a later deadline sweep (storm suppression).
    [[nodiscard]] bool take_retry_token(target_state& t);
    /// Throw target_failed_error when `t` is failed.
    void ensure_sendable(target_state& t, node_t node);
    void note_transient_fault(target_state& t);
    /// Buffer a synthetic status::target_failed result for `ticket`.
    void settle_failed(target_state& t, std::uint64_t ticket,
                       const std::string& why);
    /// Route a detected target death: begin_recovery when the recovery policy
    /// allows it, terminal fail_target otherwise.
    void on_failure(target_state& t, node_t node, const std::string& why);
    /// failed -> recovering: fence + quiesce the dead incarnation, final-drain
    /// delivered results, move un-acked user/batch work to the replay queue
    /// (settling everything else synthetically), schedule the first re-attach.
    void begin_recovery(target_state& t, node_t node, const std::string& why);
    /// Attempt one recovery step if its backoff deadline passed: respawn the
    /// target under the next epoch, replay the queue, enter probation. Returns
    /// true only on full success. Exhausted attempts go terminal.
    bool maybe_recover(target_state& t, node_t node);
    /// Block (virtual time) while `t` recovers; throw when it goes terminal.
    void wait_usable(target_state& t, node_t node);
    [[nodiscard]] std::int64_t recovery_backoff(std::uint32_t attempts) const;
    void shutdown();
    /// Resolve `t`'s registry instruments and capture counter baselines.
    void bind_instruments(target_state& t, node_t node);
    /// Machine-unique identity of `node` (metric labels, obs request keys).
    [[nodiscard]] std::uint16_t gid(node_t node) const noexcept {
        return static_cast<std::uint16_t>(opt_.node_base + int(node));
    }
    /// One request touchpoint of `t`: into its flight ring and, when request
    /// tracing is on, as a lifecycle event stamped `at`.
    void note_stage(target_state& t, node_t node, aurora::obs::stage s,
                    std::uint64_t ticket, std::uint32_t slot, std::uint32_t info,
                    sim::time_ns at);
    /// Transition `t.health` and mirror it into the health gauge.
    void set_health(target_state& t, target_health h);
    /// Reset `t`'s probation streak (health_version() moves with it).
    void reset_streak(target_state& t);

    static const aurora::context_local<runtime*> current_;

    sim::simulation& sim_;
    aurora::veos::veos_system* sys_;
    const ham::handler_registry& host_reg_;
    runtime_options opt_;
    sim::cost_model costs_;
    std::vector<std::unique_ptr<target_state>> targets_;
    bool shut_down_ = false;
    /// Fault handling engaged: retain pending copies, run deadline checks.
    bool resilient_ = false;
    std::uint64_t health_version_ = 0;
};

} // namespace ham::offload
