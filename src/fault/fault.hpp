// aurora::fault — deterministic fault injection for the simulated runtime.
//
// The discrete-event simulator runs exactly one process at a time, so every
// fault decision — a PRNG draw, a scheduled VE death, a dropped flag write —
// happens at a reproducible point in virtual time. A chaos run is therefore
// exactly replayable from its seed: same seed, same fault schedule, same
// recovery, byte-identical final state (see docs/FAULTS.md).
//
// Two independent switches keep the fault-free hot path untouched:
//   * active()  — probabilistic faults + per-message checksums are on. Latched
//     from HAM_AURORA_FAULT / configure(); one relaxed atomic load when off
//     (the same discipline as aurora::trace).
//   * armed()   — at least one deterministic kill / attach-failure schedule
//     exists. Target-side liveness checks consult only this flag, so the
//     runtime's health fencing (kill_now) works even when probabilistic
//     injection is disabled.
//
// Fault kinds (paper-protocol mapping):
//   ve_death      — the VE process exits its message loop (scheduled by
//                   virtual time or message count, or fenced by the host)
//   msg_drop      — a whole message send vanishes (payload + flag)
//   msg_corrupt   — one payload byte flips in transit (caught by checksums)
//   flag_loss     — payload lands but the notification flag write is lost
//   dma_post_fail — the send-side descriptor post fails transiently
//   delay_spike   — a send stalls for config.delay_ns of virtual time
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <vector>

#include "sim/engine.hpp"

namespace aurora::fault {

/// Thrown inside a simulated target process at a fault-check point when its
/// death is due. Unwinds the target loop; never crosses to the host.
class target_killed : public std::exception {
public:
    [[nodiscard]] const char* what() const noexcept override {
        return "simulated VE process death (aurora::fault)";
    }
};

/// Probabilistic fault configuration. All rates are per-draw permille.
struct config {
    bool enabled = false;
    std::uint64_t seed = 1;
    std::uint32_t drop_permille = 0;      ///< whole message lost
    std::uint32_t corrupt_permille = 0;   ///< one payload byte flipped
    std::uint32_t flag_loss_permille = 0; ///< notification flag write lost
    std::uint32_t dma_fail_permille = 0;  ///< transient send-post failure
    std::uint32_t delay_permille = 0;     ///< send delayed by delay_ns
    std::int64_t delay_ns = 50'000;       ///< virtual duration of a delay spike

    /// Read HAM_AURORA_FAULT, HAM_AURORA_FAULT_SEED and the per-kind
    /// HAM_AURORA_FAULT_{DROP,CORRUPT,FLAG_LOSS,DMA_FAIL,DELAY}_PM knobs
    /// (plus HAM_AURORA_FAULT_DELAY_NS).
    [[nodiscard]] static config from_env();
};

/// Injected-fault counters; compared across runs by the determinism tests.
struct counters {
    std::uint64_t drops = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t flag_losses = 0;
    std::uint64_t dma_post_failures = 0;
    std::uint64_t delay_spikes = 0;
    std::uint64_t kills = 0;
    std::uint64_t attach_failures = 0;
    std::uint64_t idle_timeouts = 0;
    std::uint64_t revivals = 0;

    bool operator==(const counters&) const = default;
};

/// Process-wide fault injector. Configure before offload::run(); both the
/// host runtime and the simulated target processes consult the same instance
/// (the cooperative scheduler serialises all access).
class injector {
public:
    static injector& instance();

    /// Install `cfg` and reset all schedules, counters and the PRNG.
    void configure(const config& cfg);
    /// Back to the disabled default configuration.
    void reset() { configure(config{}); }

    /// Probabilistic injection (and checksumming) enabled?
    [[nodiscard, gnu::always_inline]] bool active() const noexcept {
        return __atomic_load_n(&active_, __ATOMIC_RELAXED);
    }
    [[nodiscard]] const config& cfg() const noexcept { return cfg_; }
    [[nodiscard]] counters& stats() noexcept { return stats_; }

    // --- deterministic schedules --------------------------------------------
    /// Kill `node`'s target process at the first fault check at/after `when`.
    /// Triggers accumulate: scheduling several kills arms a kill chain, each
    /// consumed by one death (so a recovered incarnation can die again).
    void kill_at_time(int node, sim::time_ns when);
    /// Kill `node` while it holds its `n`-th received message (1-based,
    /// cumulative across incarnations). Accumulates like kill_at_time.
    void kill_after_messages(int node, std::uint64_t n);
    /// Fence `node`: kill it at its next fault check (host-side fencing of a
    /// target the health machinery declared failed). The fence latches until
    /// revive() — it never carries over into a respawned incarnation's
    /// schedule the way a time/count trigger would.
    void kill_now(int node);
    /// Make `node`'s next backend attach fail recoverably. Accumulates: each
    /// call fails one more attach (initial or heal re-attach), in order.
    void fail_next_attach(int node);

    /// Death already triggered for `node`?
    [[nodiscard]] bool killed(int node) const;
    /// aurora::heal respawn hook: clear `node`'s death latch and host fence so
    /// the next incarnation lives. Pending time/count kill triggers and attach
    /// failures are left armed — a kill chain keeps firing across recoveries.
    void revive(int node);
    /// Consume a pending attach-failure schedule for `node`.
    [[nodiscard]] bool take_attach_failure(int node);

    // --- target-side check points -------------------------------------------
    /// Account one message received by `node`'s target loop.
    void count_message(int node);
    /// Throw target_killed when `node`'s death is due (time reached, message
    /// count reached, or fenced via kill_now). Near-free while nothing is
    /// scheduled: one relaxed atomic load.
    [[gnu::always_inline]] void check_target_alive(int node) {
        if (__atomic_load_n(&armed_, __ATOMIC_RELAXED)) {
            check_armed_target_alive(node);
        }
    }
    /// Record a target that gave up waiting for the host (idle timeout).
    void note_idle_timeout();

    // --- probabilistic draws (only meaningful while active()) ----------------
    [[nodiscard]] bool should_drop();
    [[nodiscard]] bool should_corrupt();
    [[nodiscard]] bool should_lose_flag();
    [[nodiscard]] bool should_fail_dma_post();
    /// 0 = no spike; otherwise the virtual duration the send must stall.
    [[nodiscard]] std::int64_t delay_spike();

    /// Flip one PRNG-chosen bit of `data[0..len)`.
    void corrupt_byte(std::byte* data, std::size_t len);

    // --- retry shaping (aurora::admit overload robustness) -------------------
    /// Decorrelated-jitter backoff (the "decorrelated jitter" scheme): a draw
    /// uniform in [base_ns, min(cap_ns, max(base_ns, prev_ns) * 3)]. Breaks
    /// the lock-step retransmit storms a deterministic doubling schedule
    /// produces after a shared stall, while staying exactly replayable: draws
    /// come from a dedicated splitmix64 stream seeded alongside the fault
    /// schedule, so a same-seed chaos run sees the same jitter sequence.
    [[nodiscard]] std::int64_t jitter_backoff(std::int64_t base_ns,
                                              std::int64_t prev_ns,
                                              std::int64_t cap_ns);

private:
    injector();

    struct node_plan {
        std::vector<sim::time_ns> kill_times;    ///< pending time triggers
        std::vector<std::uint64_t> kill_counts;  ///< pending count triggers
        std::uint64_t msgs_seen = 0; ///< cumulative across incarnations
        bool killed = false;
        bool fenced = false; ///< host-side kill_now latch, cleared by revive()
        std::uint32_t fail_attach = 0; ///< pending injected attach failures
    };

    void check_armed_target_alive(int node);
    [[nodiscard]] std::uint64_t draw();
    [[nodiscard]] bool roll(std::uint32_t permille, std::uint64_t& counter);

    // Both flags are read and written with relaxed __atomic builtins: the
    // disabled-path overhead gate also runs in unoptimised sanitizer builds,
    // where std::atomic's helpers are out-of-line calls (see metrics.hpp).
    bool active_ = false;
    bool armed_ = false; ///< any kill/attach schedule outstanding
    config cfg_;
    std::uint64_t rng_ = 0;
    /// Separate stream for backoff jitter so jitter draws never perturb the
    /// fault schedule (and vice versa) — same seed, same kills, same jitter.
    std::uint64_t jitter_rng_ = 0;
    counters stats_;
    std::map<int, node_plan> nodes_;
};

} // namespace aurora::fault
