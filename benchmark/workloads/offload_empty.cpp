// offload_empty — the per-message cost of HAM-Offload (paper Fig. 9).
//
// Closed loop, one client, one vedma VE: offload::async of an empty kernel,
// then future::get. Every cost is per message (send/harvest, the flag
// protocol, VE dispatch, DES hand-offs) while sched/admit/net/mem sit idle,
// so this is the workload for hot-path shaving and the control that must not
// move for scheduler, admission or cluster changes.
//
// Requests run back to back, as in the paper's measurement, so the workload
// has no random input: every seed runs the same requests. The mean of the
// timed latencies reproduces Fig. 9 (6.07 us against the paper's 6.1 us).
#include <string>

#include "bench.hpp"
#include "offload/offload.hpp"
#include "support/host.hpp"
#include "support/stats.hpp"

namespace aurora_bench {

namespace {

namespace off = ham::offload;
namespace sim = aurora::sim;

void empty_kernel() {}

struct sizes {
    int warmup;
    std::size_t timed;
};

constexpr std::size_t kSegments = 20;

sizes sizes_for(bool smoke) { return smoke ? sizes{50, 500} : sizes{200, 20'000}; }

std::string config(bool smoke) {
    const sizes s = sizes_for(smoke);
    return "{\"platform\":\"a300_8\",\"backend\":\"vedma\",\"targets\":1,"
           "\"kernel\":\"empty\",\"warmup\":" +
           std::to_string(s.warmup) + ",\"timed\":" + std::to_string(s.timed) + "}";
}

trial_result run(const trial_context& ctx) {
    const sizes sz = sizes_for(ctx.smoke);
    const std::size_t segment = sz.timed / kSegments;
    trial_result r;
    r.lat_ns.reserve(sz.timed);
    if (ctx.spans != nullptr) {
        ctx.spans->reserve(3 * sz.timed + 16);
    }
    const std::int64_t setup0 = host::wall_ns();
    sim::platform plat(sim::platform_config::a300_8());
    off::runtime_options opt;
    opt.backend = off::backend_kind::vedma;

    const int rc = off::run(plat, opt, [&] {
        off::sync(1, ham::f2f<&empty_kernel>());
        end_setup(r, setup0, plat.sim());
        if (ctx.setup_only) {
            return;
        }
        // The warm-up doubles as the unloaded reference: one client, nothing
        // else in flight.
        std::vector<double> warm;
        for (int i = 1; i < sz.warmup; ++i) {
            const sim::time_ns t0 = sim::now();
            off::sync(1, ham::f2f<&empty_kernel>());
            warm.push_back(double(sim::now() - t0));
        }
        r.unloaded_p99_ns = percentile(warm, 99.0);

        const phase_mark begin = phase_mark::take(plat.sim());
        segment_clock seg(r, ctx);
        for (std::size_t i = 0; i < sz.timed; ++i) {
            if (i > 0 && i % segment == 0) {
                seg.mark(double(segment));
            }
            const sim::time_ns t0 = sim::now();
            ++r.attempted;
            try {
                const scoped_span op(ctx.spans, "op", i);
                off::future<void> f = [&] {
                    const scoped_span s(ctx.spans, "offload.async", i);
                    return off::async(1, ham::f2f<&empty_kernel>());
                }();
                const scoped_span s(ctx.spans, "future.get", i);
                f.get();
            } catch (const off::offload_error& e) {
                ++r.failed;
                r.check(false, std::string("offload failed: ") + e.what());
                continue;
            }
            r.lat_ns.push_back(double(sim::now() - t0));
            ++r.completed;
        }
        seg.mark(double(segment));
        const phase_mark end = phase_mark::take(plat.sim());
        record_timed_phase(r, begin, end, r.completed);
    });
    r.check(rc == 0, "offload::run returned non-zero");
    if (ctx.setup_only) {
        return r;
    }
    r.ok_of = r.attempted;
    r.ok = r.completed;
    r.check(r.completed == sz.timed, "not every offload returned");
    r.layers["offload.mean_virt_ns"] = mean(r.lat_ns);

    if (ctx.spans != nullptr) {
        record_stages(r);
        const auto async = ctx.spans->stats("offload.async");
        const auto get = ctx.spans->stats("future.get");
        r.layers["offload.async_host_ns"] = async.median_cpu_ns;
        r.layers["offload.get_host_ns"] = get.median_cpu_ns;
        r.layers["offload.async_virt_ns"] = async.mean_virt_ns;
        r.layers["offload.get_virt_ns"] = get.mean_virt_ns;
        // The obs stages cover post..collect of the traced segment; what they
        // miss of its latency is message construction ahead of `post`.
        const auto traced = std::ptrdiff_t(std::min(segment, r.lat_ns.size()));
        const double lat = mean({r.lat_ns.begin(), r.lat_ns.begin() + traced});
        const double uncovered = lat - r.layers["stage.sum_mean_ns"];
        r.layers["stage.unattributed_pct"] = lat > 0 ? 100.0 * uncovered / lat : 0.0;
        const double construct = double(plat.costs().ham_msg_construct_ns);
        r.check(lat > 0 && std::abs(uncovered - construct) <= 0.01 * lat,
                "obs stages plus message construction do not add up to the "
                "measured latency within 1%");
    }
    return r;
}

} // namespace

const workload_def& offload_empty_workload() {
    static const workload_def def{"offload_empty", &run, 1 << 16, &config};
    return def;
}

} // namespace aurora_bench
