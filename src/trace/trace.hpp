// aurora::trace — low-overhead, env-gated event tracing for the whole stack.
//
// Both sides of an offload (the VH runtime and every simulated target
// process) record fixed-size events into lock-free ring buffers, one lane per
// simulated process (and one per plain thread outside a simulation);
// exporters turn the collected lanes into a Chrome trace-event JSON
// (chrome://tracing, Perfetto) or an aggregated latency/counter summary
// (see chrome_export.hpp / summary.hpp, docs/TRACING.md).
//
// Cost discipline:
//   * disabled (HAM_AURORA_TRACE unset): every macro is one relaxed atomic
//     load plus a predictable branch — bench_trace_overhead pins this at
//     well under 1% of the cheapest offload hot path;
//   * enabled: one clock read and one ring-buffer store per event, still
//     lock-free and allocation-free on the hot path;
//   * compiled out (-DHAM_AURORA_TRACE_DISABLED): the macros vanish.
//
// Timestamps use the virtual clock inside a simulated process (so spans
// line up with the cost model the benches report) and a real steady clock
// on plain threads (unit tests, google-benchmark).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aurora::trace {

enum class event_type : std::uint8_t {
    span,    ///< closed interval [ts_ns, ts_ns + dur_ns]
    instant, ///< point event
    counter, ///< value sample (summed by the summary exporter)
    /// Request-lifecycle touchpoint (aurora::obs): `value` carries the
    /// per-target ticket, `ref` a packed correlation key (node / slot /
    /// epoch / stage — see obs/obs.hpp). The timeline reassembler stitches
    /// these into per-request critical paths; the chrome exporter renders
    /// them as instants on their lane.
    lifecycle,
};

/// One fixed-size trace record. `cat` and `name` must be string literals
/// (or otherwise outlive the collector) — events never own memory.
struct event {
    const char* cat = "";
    const char* name = "";
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t value = 0;
    std::uint64_t ref = 0; ///< lifecycle correlation key (0 otherwise)
    event_type type = event_type::instant;
};

/// Fixed-capacity single-producer ring buffer of events. The owning context
/// (a simulated process or a plain thread) pushes; readers take a snapshot
/// after the producer quiesced (the simulation finished / the thread
/// joined). Old events are overwritten on wrap-around; `dropped()` reports
/// how many.
class ring_buffer {
public:
    explicit ring_buffer(std::size_t capacity)
        : slots_(capacity == 0 ? 1 : capacity) {}

    /// Producer side. Owner context only; never blocks, never allocates.
    void push(const event& e) noexcept {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        slots_[h % slots_.size()] = e;
        head_.store(h + 1, std::memory_order_release);
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

    /// Total events ever pushed (including overwritten ones).
    [[nodiscard]] std::uint64_t pushed() const noexcept {
        return head_.load(std::memory_order_acquire);
    }

    /// Events lost to wrap-around.
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        const std::uint64_t h = pushed();
        return h > slots_.size() ? h - slots_.size() : 0;
    }

    /// Copy of the retained events, oldest first. Valid only while the
    /// producer is quiescent.
    [[nodiscard]] std::vector<event> snapshot() const {
        const std::uint64_t h = head_.load(std::memory_order_acquire);
        const std::uint64_t n = std::min<std::uint64_t>(h, slots_.size());
        std::vector<event> out;
        out.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = h - n; i < h; ++i) {
            out.push_back(slots_[i % slots_.size()]);
        }
        return out;
    }

private:
    std::vector<event> slots_;
    std::atomic<std::uint64_t> head_{0};
};

/// One simulated process's (or plain thread's) stream of events plus its
/// display identity.
struct lane {
    explicit lane(std::size_t capacity) : buf(capacity) {}
    std::string name;      ///< simulated process name or "thread-<tid>"
    std::uint32_t tid = 0; ///< stable lane id (Chrome "tid")
    ring_buffer buf;
};

/// Process-wide registry of lanes. Lanes are created lazily, one per
/// simulated process and one per plain thread, and kept alive until reset()
/// so exporters can read them after the producers finished.
class collector {
public:
    [[nodiscard]] static collector& instance();

    /// The calling process's or thread's lane (registered on first use).
    [[nodiscard]] lane& current_lane();

    struct lane_snapshot {
        std::string name;
        std::uint32_t tid = 0;
        std::vector<event> events;
        std::uint64_t dropped = 0;
    };

    /// Snapshot of every lane, oldest events first. Call after producers
    /// quiesced (simulation finished, threads joined).
    [[nodiscard]] std::vector<lane_snapshot> snapshot() const;

    /// Drop all lanes (tests). Live producers transparently re-register.
    void reset();

private:
    collector() = default;

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<lane>> lanes_;
    std::atomic<std::uint64_t> generation_{1};
};

namespace detail {
/// 0 = not latched yet, 1 = disabled, 2 = enabled. Accessed with relaxed
/// __atomic builtins, like the metrics shards (see metrics.hpp): the
/// disabled-site overhead gate also runs in unoptimised sanitizer builds.
extern int g_mode;
[[nodiscard]] bool latch_enabled();
} // namespace detail

/// Global switch, latched from HAM_AURORA_TRACE on first use. One relaxed
/// load on the hot path.
[[nodiscard, gnu::always_inline]] inline bool enabled() noexcept {
    const int m = __atomic_load_n(&detail::g_mode, __ATOMIC_RELAXED);
    if (m == 0) {
        return detail::latch_enabled();
    }
    return m == 2;
}

/// Programmatic override (tools/tests); wins over the environment.
void set_enabled(bool on) noexcept;

/// Event timestamp: virtual time inside a simulated process, steady clock
/// (ns since first use) on plain threads.
[[nodiscard]] std::uint64_t clock_ns() noexcept;

/// Record a complete event (checks enabled()).
void emit(const event& e);

/// Record a closed span with explicit timestamps (exporter tests use this
/// to produce deterministic golden files).
void emit_span(const char* cat, const char* name, std::uint64_t ts_ns,
               std::uint64_t dur_ns);

/// Record a counter delta (summed per cat/name by the summary exporter).
/// Trace-only: a count the registry should hold goes there under its own
/// family, at the call site.
[[gnu::always_inline]] inline void count(const char* cat, const char* name,
                                         std::uint64_t delta = 1) {
    if (enabled()) {
        emit({cat, name, clock_ns(), 0, delta, 0, event_type::counter});
    }
}

inline void instant(const char* cat, const char* name) {
    if (enabled()) {
        emit({cat, name, clock_ns(), 0, 0, 0, event_type::instant});
    }
}

/// RAII span: records [construction, destruction] on the current lane.
class scoped_span {
public:
    [[gnu::always_inline]] scoped_span(const char* cat, const char* name) noexcept
        : cat_(cat), name_(name), active_(enabled()),
          t0_(active_ ? clock_ns() : 0) {}
    [[gnu::always_inline]] ~scoped_span() {
        if (active_) {
            finish();
        }
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    void finish() noexcept;

    const char* cat_;
    const char* name_;
    bool active_;
    std::uint64_t t0_;
};

/// Export whatever the environment asked for: a Chrome trace-event JSON to
/// $HAM_AURORA_TRACE_FILE and/or an aggregated summary to stderr when
/// HAM_AURORA_TRACE_SUMMARY is set. No-op when tracing is disabled. Safe to
/// call repeatedly (the file is rewritten with the full accumulated trace).
void flush_to_env();

} // namespace aurora::trace

// --- call-site macros -------------------------------------------------------
// AURORA_TRACE_SPAN declares a scoped span covering the rest of the enclosing
// block; the others are statements. All compile to nothing under
// -DHAM_AURORA_TRACE_DISABLED.

#define AURORA_TRACE_DETAIL_CAT2(a, b) a##b
#define AURORA_TRACE_DETAIL_CAT(a, b) AURORA_TRACE_DETAIL_CAT2(a, b)

#if defined(HAM_AURORA_TRACE_DISABLED)
#define AURORA_TRACE_SPAN(cat, name) ((void)0)
#define AURORA_TRACE_COUNTER(cat, name, delta) ((void)0)
#define AURORA_TRACE_INSTANT(cat, name) ((void)0)
#else
#define AURORA_TRACE_SPAN(cat, name)                                           \
    const ::aurora::trace::scoped_span AURORA_TRACE_DETAIL_CAT(                \
        aurora_trace_span_, __LINE__)(cat, name)
#define AURORA_TRACE_COUNTER(cat, name, delta)                                 \
    ::aurora::trace::count(cat, name, delta)
#define AURORA_TRACE_INSTANT(cat, name) ::aurora::trace::instant(cat, name)
#endif
