// aurora_bench: what a workload trial measures and how main() drives it.
//
// A run executes one workload as a series of trials. Every trial builds a
// fresh sim::platform, sets up, warms up, runs an unloaded probe and then the
// timed phase, cut into segments, and returns a trial_result. main() turns
// the trials of a run into end-to-end metrics (virtual ones required to be
// bit-identical across trials, real ones robust statistics over them) and
// per-layer metrics (from the traced trials).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/metrics.hpp"
#include "sim/engine.hpp"
#include "support/host.hpp"
#include "support/spans.hpp"

namespace aurora_bench {

struct trial_context {
    std::uint64_t seed = 1;
    bool smoke = false;
    /// Non-null in traced trials: record a span around every public call.
    span_recorder* spans = nullptr;
    /// Stop once set-up is done (setup_s is the only result).
    bool setup_only = false;
};

struct trial_result {
    // --- end to end ----------------------------------------------------------
    std::vector<double> lat_ns;   ///< virtual latency per measured request
    double unloaded_p99_ns = 0;   ///< the same requests issued one at a time
    std::uint64_t attempted = 0;  ///< ops issued in the timed phase
    std::uint64_t completed = 0;  ///< ops that completed (every tenant)
    std::uint64_t failed = 0;     ///< ops whose outcome failed a check
    std::uint64_t ok = 0;         ///< measured requests completed and verified
    std::uint64_t ok_of = 0;      ///< measured requests attempted
    double virt_span_ns = 0;      ///< timed phase, virtual
    double wire_bytes = 0;        ///< host<->VE bytes moved in the timed phase
    /// Real time of each segment of the timed phase (a fixed share of its
    /// work, or one batch): the samples behind host_us_per_op.
    struct segment {
        double wall_ns = 0;
        double ops = 0; ///< ops completed in the segment
    };
    std::vector<segment> segments;
    double setup_s = 0;           ///< platform construction .. first op done
    /// Determinism fingerprint of the timed phase (completion order etc.);
    /// must be identical across the trials of a run.
    std::uint64_t fingerprint = 0;
    std::vector<std::string> errors; ///< failed self-checks
    // --- per layer (filled in traced trials) -----------------------------------
    std::map<std::string, double> layers;
    /// Virtual window of the timed phase, for timeline selection.
    std::int64_t timed_virt0 = 0, timed_virt1 = 0;

    void check(bool ok_cond, const std::string& what) {
        if (!ok_cond) {
            errors.push_back(what);
        }
    }
};

/// Cuts a timed phase into segments: mark(ops) ends the segment started by
/// the previous mark (or construction) and records its real time. In a
/// traced trial (ctx.spans set), program tracing (aurora::trace and
/// aurora::obs) is on for the first segment only: tracing a whole trial
/// would overflow the trace rings, which record every counter event as well
/// as the request lifecycles.
class segment_clock {
public:
    segment_clock(trial_result& r, const trial_context& ctx);
    ~segment_clock() { trace(false); }
    segment_clock(const segment_clock&) = delete;
    segment_clock& operator=(const segment_clock&) = delete;

    void mark(double ops);

private:
    void trace(bool on);

    trial_result& r_;
    std::int64_t t_;
    bool tracing_ = false;
};

struct workload_def {
    const char* name;
    trial_result (*run)(const trial_context&);
    /// Trace ring capacity per lane (events) for the traced run, sized so
    /// no lifecycle event is dropped.
    long trace_lane_events;
    /// Effective configuration, for the result header (JSON object text).
    std::string (*config)(bool smoke);
};

const workload_def& offload_empty_workload();
const workload_def& data_path_workload();
const workload_def& sched_skewed_workload();
const workload_def& serving_overload_workload();
const workload_def& cluster_4node_workload();

// --- measurement helpers (support/layers.cpp) --------------------------------

/// Point-in-time copy of the metrics registry, queried by family name.
class registry_view {
public:
    registry_view();
    /// Sum of a counter/gauge family over all its label sets.
    [[nodiscard]] double sum(std::string_view family) const;
    /// Histogram family merged over all its label sets.
    [[nodiscard]] aurora::metrics::histogram::snapshot hist(
        std::string_view family) const;

private:
    std::vector<aurora::metrics::registry::family_snapshot> families_;
};

/// Everything sampled at a phase boundary on the VH thread.
struct phase_mark {
    std::int64_t wall = 0;
    std::int64_t virt = 0;
    std::uint64_t switches = 0;
    std::uint64_t vh_allocs = 0;
    std::uint64_t all_allocs = 0;
    registry_view reg;

    static phase_mark take(aurora::sim::simulation& sim);
};

/// End of set-up, called once the first warm-up op has completed: records
/// setup_s (from `setup_wall`, taken before the platform was built) and the
/// DES context switches set-up took.
void end_setup(trial_result& r, std::int64_t setup_wall,
               aurora::sim::simulation& sim);

/// Fill the fields every workload derives the same way from the marks
/// around its timed phase: virt_span_ns, wire_bytes, the timed
/// virtual window, and the sim/offload/backend/mem layer counters.
void record_timed_phase(trial_result& r, const phase_mark& begin,
                        const phase_mark& end, std::uint64_t ops);

/// Stage splits from obs::reassemble() over the trial's timed window
/// (traced trials only; call after the simulation finished).
void record_stages(trial_result& r);

/// Span-derived "host ns" layer metric: median wall ns per call of `span`.
void record_span_wall(trial_result& r, const trial_context& ctx,
                      const char* metric, const char* span);

/// One per-layer metric of the benchmark: its name and unit.
struct layer_metric {
    const char* name;
    const char* unit;
};
/// The full per-layer list; every result carries every entry (0 where a
/// layer is not exercised by the workload).
const std::vector<layer_metric>& layer_metrics();

} // namespace aurora_bench
