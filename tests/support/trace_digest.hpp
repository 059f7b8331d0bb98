// Digest of a run's virtual schedule, for tests that pin the exact virtual
// behaviour of a mix: every settled task's (id, state, executed_on,
// done_time_ns, done_seq), plus whatever else a test adds (final clock,
// counter deltas). A change that keeps every virtual result keeps the digest.
#pragma once

#include <cstdint>
#include <string_view>

#include "metrics/metrics.hpp"
#include "sched/executor.hpp"

namespace aurora::testing {

class trace_digest {
public:
    void add(std::uint64_t v) noexcept {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ULL; // FNV-1a 64
        }
    }

    void add_tasks(const sched::executor& ex) {
        for (sched::task_id id = 0; id < ex.size(); ++id) {
            add(id);
            add(static_cast<std::uint64_t>(ex.state_of(id)));
            if (!ex.finished(id)) {
                continue;
            }
            const sched::completion_record& r = ex.record_of(id);
            add(static_cast<std::uint64_t>(r.executed_on));
            add(r.done_time_ns);
            add(r.done_seq);
        }
    }

    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/// Sum over every series of counter family `name` in the global registry.
inline std::uint64_t counter_total(std::string_view name) {
    std::uint64_t total = 0;
    for (const auto& fam : metrics::registry::global().snapshot()) {
        if (fam.name != name) {
            continue;
        }
        for (const auto& s : fam.series) {
            total += static_cast<std::uint64_t>(s.value);
        }
    }
    return total;
}

} // namespace aurora::testing
