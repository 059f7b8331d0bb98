#include "trace/trace.hpp"

#include <chrono>

#include "sim/engine.hpp"
#include "util/context_local.hpp"
#include "util/env.hpp"

namespace aurora::trace {

namespace detail {

int g_mode = 0;

bool latch_enabled() {
    // Racing threads may both read the environment; they latch the same
    // value, so the compare-exchange below is only cosmetic.
    const bool on = env_flag("HAM_AURORA_TRACE", false);
    int expected = 0;
    __atomic_compare_exchange_n(&g_mode, &expected, on ? 2 : 1, false,
                                __ATOMIC_RELAXED, __ATOMIC_RELAXED);
    return __atomic_load_n(&g_mode, __ATOMIC_RELAXED) == 2;
}

namespace {

/// Ring capacity per lane, from HAM_AURORA_TRACE_BUFFER (events).
std::size_t lane_capacity() {
    static const std::size_t cap = [] {
        const std::int64_t v = env_int_or("HAM_AURORA_TRACE_BUFFER", 1 << 16);
        return static_cast<std::size_t>(v < 16 ? 16 : v);
    }();
    return cap;
}

/// The running process's (or plain thread's) lane and the collector
/// generation it was registered in.
const context_local<lane*> t_lane;
const context_local<std::uint64_t> t_lane_gen;

} // namespace
} // namespace detail

void set_enabled(bool on) noexcept {
    __atomic_store_n(&detail::g_mode, on ? 2 : 1, __ATOMIC_RELAXED);
}

std::uint64_t clock_ns() noexcept {
    if (sim::in_simulation()) {
        return static_cast<std::uint64_t>(sim::now());
    }
    using clock = std::chrono::steady_clock;
    static const clock::time_point t0 = clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count());
}

collector& collector::instance() {
    static collector c;
    return c;
}

lane& collector::current_lane() {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    lane* cached = detail::t_lane.get();
    if (cached != nullptr && detail::t_lane_gen.get() == gen) {
        return *cached;
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto owned = std::make_unique<lane>(detail::lane_capacity());
    lane* l = owned.get();
    l->tid = static_cast<std::uint32_t>(lanes_.size());
    // Simulated processes make the best lane names (one lane each); plain
    // threads get a positional name.
    l->name = sim::in_simulation() ? sim::self().name()
                                   : "thread-" + std::to_string(l->tid);
    lanes_.push_back(std::move(owned));
    detail::t_lane.set(l);
    detail::t_lane_gen.set(gen);
    return *l;
}

std::vector<collector::lane_snapshot> collector::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<lane_snapshot> out;
    out.reserve(lanes_.size());
    for (const auto& l : lanes_) {
        lane_snapshot s;
        s.name = l->name;
        s.tid = l->tid;
        s.events = l->buf.snapshot();
        s.dropped = l->buf.dropped();
        out.push_back(std::move(s));
    }
    return out;
}

void collector::reset() {
    std::lock_guard<std::mutex> lock(mu_);
    lanes_.clear();
    // Invalidate every cached lane pointer.
    generation_.fetch_add(1, std::memory_order_acq_rel);
}

void emit(const event& e) {
    if (!enabled()) {
        return;
    }
    collector::instance().current_lane().buf.push(e);
}

void emit_span(const char* cat, const char* name, std::uint64_t ts_ns,
               std::uint64_t dur_ns) {
    emit({cat, name, ts_ns, dur_ns, 0, 0, event_type::span});
}

void scoped_span::finish() noexcept {
    const std::uint64_t t1 = clock_ns();
    emit({cat_, name_, t0_, t1 >= t0_ ? t1 - t0_ : 0, 0, 0, event_type::span});
}

} // namespace aurora::trace
