// Overhead micro-benchmark for aurora::metrics (real CPU time, not virtual).
//
// The telemetry layer is always on: every offload updates pre-resolved
// counters, gauges and log2 histograms on the hot path. Each update is a
// relaxed atomic RMW (the histogram adds a bit_width() bucket index), so one
// instrumented site must cost on the order of a nanosecond. This bench
// quantifies that and *asserts* the tentpole claim: the per-offload cost of
// all metric updates is < 1% of the real wall-clock cost of one loopback
// offload (the cheapest offload, so the bound is conservative for every
// other backend). It also re-measures the virtual-time loopback round trip
// against the Fig. 9 baseline, proving the instrumentation left the
// simulated protocol costs untouched.
//
// Self-checking: exits non-zero when either bound is violated, and is
// registered as a ctest so CI enforces it. With HAM_AURORA_BENCH_JSON=1 it
// reports the measured costs machine-readably instead of the human table.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "bench/support/bench_common.hpp"
#include "metrics/metrics.hpp"
#include "offload/offload.hpp"

namespace {

using namespace aurora;
namespace off = ham::offload;

void empty_kernel() {}

/// Metric updates on one loopback offload round trip. Histogram records:
/// message-size, backend send latency, backend receive latency, round trip —
/// four. Scalar counter/gauge updates: messages, in-flight up/down, queue
/// up/down, backend sends/polls/bytes in and out, results — twelve, budgeted
/// as fourteen (the poll counter repeats when a result is not ready on the
/// first check; loopback arrivals are immediate).
constexpr int histogram_sites_per_offload = 4;
constexpr int counter_sites_per_offload = 14;

/// Fig. 9 guard: bench/baselines/fig9.json pins ham_loopback_ns at this
/// value with a 2.0x CI tolerance; always-on metrics must not move it.
constexpr double fig9_loopback_ns = 2400.0;
constexpr double fig9_tolerance = 2.0;

double now_s() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/// Real seconds per iteration of `fn`, best of `tries` runs.
template <typename Fn>
double time_per_iter_s(int iters, int tries, Fn&& fn) {
    double best = 1e30;
    for (int t = 0; t < tries; ++t) {
        const double t0 = now_s();
        for (int i = 0; i < iters; ++i) {
            fn(i);
        }
        best = std::min(best, (now_s() - t0) / iters);
    }
    return best;
}

volatile std::uint64_t g_sink = 0;

} // namespace

int main() {
    // The shapes every instrumented site reduces to, resolved once like the
    // runtime resolves its instruments at attach time.
    metrics::counter& ctr =
        metrics::registry::global().counter_for("bench_metrics_counter");
    metrics::histogram& hist =
        metrics::registry::global().histogram_for("bench_metrics_histogram");

    constexpr int iters = 2'000'000;
    constexpr int tries = 5;

    // Baseline: the loop body without any metric updates.
    const double base_s = time_per_iter_s(iters, tries, [](int i) {
        g_sink = g_sink + static_cast<std::uint64_t>(i);
    });
    const double counter_s = time_per_iter_s(iters, tries, [&](int i) {
        ctr.add(1);
        g_sink = g_sink + static_cast<std::uint64_t>(i);
    });
    // Record a realistic latency stream (a narrow band of ~microsecond
    // values), not a monotonically growing one — the latter would re-take
    // the histogram's max CAS on every record, which real round trips don't.
    const double hist_s = time_per_iter_s(iters, tries, [&](int i) {
        hist.record(1200 + (static_cast<std::uint64_t>(i) & 1023));
        g_sink = g_sink + static_cast<std::uint64_t>(i);
    });
    const double counter_ns = std::max(0.0, counter_s - base_s) * 1e9;
    const double hist_ns = std::max(0.0, hist_s - base_s) * 1e9;

    // Real wall-clock and virtual cost of one loopback offload with the
    // always-on instrumentation in place.
    const int reps = bench::reps(200);
    double offload_s = 0.0;
    double offload_virtual_ns = 0.0;
    {
        sim::platform plat(sim::platform_config::a300_8());
        off::runtime_options opt;
        opt.backend = off::backend_kind::loopback;
        const double t0 = now_s();
        off::run(plat, opt, [&] {
            off::sync(1, ham::f2f<&empty_kernel>()); // attach + warm-up
            const sim::time_ns v0 = sim::now();
            for (int i = 0; i < reps; ++i) {
                off::sync(1, ham::f2f<&empty_kernel>());
            }
            offload_virtual_ns = double(sim::now() - v0) / reps;
        });
        offload_s = (now_s() - t0) / (reps + 1);
    }

    const double overhead_per_offload_ns =
        hist_ns * histogram_sites_per_offload +
        counter_ns * counter_sites_per_offload;
    const double overhead_pct =
        overhead_per_offload_ns / (offload_s * 1e9) * 100.0;
    const bool overhead_ok = overhead_pct < 1.0;
    const bool fig9_ok = offload_virtual_ns <= fig9_loopback_ns * fig9_tolerance;
    const bool ok = overhead_ok && fig9_ok;

    if (bench::json_output()) {
        bench::json_result j("metrics_overhead");
        j.add("counter_add_ns", counter_ns);
        j.add("histogram_record_ns", hist_ns);
        j.add("loopback_offload_real_ns", offload_s * 1e9);
        j.add("loopback_virtual_ns", offload_virtual_ns);
        j.add("overhead_pct", overhead_pct);
        j.emit();
    } else {
        std::printf("aurora::metrics always-on instrumentation overhead\n");
        std::printf("  counter add            : %8.3f ns\n", counter_ns);
        std::printf("  histogram record       : %8.3f ns\n", hist_ns);
        std::printf("  x %d hist + %d scalar  : %8.3f ns per offload\n",
                    histogram_sites_per_offload, counter_sites_per_offload,
                    overhead_per_offload_ns);
        std::printf("  loopback offload (real): %8.0f ns\n", offload_s * 1e9);
        std::printf("  overhead               : %8.4f %%  (bound: 1%%)\n",
                    overhead_pct);
        std::printf("  loopback round trip    : %8.0f virtual ns  "
                    "(fig9 bound: %.0f)\n",
                    offload_virtual_ns, fig9_loopback_ns * fig9_tolerance);
        if (!overhead_ok) {
            std::printf("FAIL: metric updates exceed 1%% of loopback offload "
                        "cost\n");
        }
        if (!fig9_ok) {
            std::printf("FAIL: instrumented loopback round trip regressed "
                        "past the Fig. 9 bound\n");
        }
        if (ok) {
            std::printf("PASS\n");
        }
    }
    return ok ? 0 : 1;
}
