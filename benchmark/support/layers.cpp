// Measurement helpers shared by the workloads: registry deltas, phase marks,
// stage splits from the obs timelines, and the per-layer metric list.
#include <array>
#include <utility>

#include "bench.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "support/alloc_count.hpp"
#include "support/host.hpp"
#include "support/stats.hpp"

namespace aurora_bench {

namespace metrics = aurora::metrics;
namespace obs = aurora::obs;

registry_view::registry_view() : families_(metrics::registry::global().snapshot()) {}

double registry_view::sum(std::string_view family) const {
    double total = 0.0;
    for (const auto& f : families_) {
        if (f.name == family) {
            for (const auto& s : f.series) {
                total += double(s.value);
            }
        }
    }
    return total;
}

metrics::histogram::snapshot registry_view::hist(std::string_view family) const {
    metrics::histogram::snapshot out;
    for (const auto& f : families_) {
        if (f.name == family) {
            for (const auto& s : f.series) {
                out.merge(s.hist);
            }
        }
    }
    return out;
}

segment_clock::segment_clock(trial_result& r, const trial_context& ctx) : r_(r) {
    trace(ctx.spans != nullptr);
    t_ = host::wall_ns();
}

void segment_clock::mark(double ops) {
    const std::int64_t now = host::wall_ns();
    r_.segments.push_back({double(now - t_), ops});
    trace(false);
    t_ = host::wall_ns();
}

void segment_clock::trace(bool on) {
    if (on != tracing_) {
        aurora::trace::set_enabled(on);
        obs::set_enabled(on);
        tracing_ = on;
    }
}

phase_mark phase_mark::take(aurora::sim::simulation& sim) {
    phase_mark m;
    m.wall = host::wall_ns();
    m.virt = aurora::sim::now();
    m.switches = sim.stats().context_switches;
    m.vh_allocs = alloc::this_thread();
    m.all_allocs = alloc::process();
    return m;
}

namespace {

/// Histogram counts recorded between two snapshots of the same family.
metrics::histogram::snapshot hist_delta(const metrics::histogram::snapshot& a,
                                        const metrics::histogram::snapshot& b) {
    metrics::histogram::snapshot d;
    for (std::size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] = b.buckets[i] - a.buckets[i];
    }
    d.count = b.count - a.count;
    d.sum = b.sum - a.sum;
    d.max = b.max;
    return d;
}

double per(double x, std::uint64_t n) { return n == 0 ? 0.0 : x / double(n); }

} // namespace

void end_setup(trial_result& r, std::int64_t setup_wall,
               aurora::sim::simulation& sim) {
    r.setup_s = double(host::wall_ns() - setup_wall) / 1e9;
    r.layers["sim.setup_switches"] = double(sim.stats().context_switches);
}

void record_timed_phase(trial_result& r, const phase_mark& begin,
                        const phase_mark& end, std::uint64_t ops) {
    auto delta = [&](std::string_view family) {
        return end.reg.sum(family) - begin.reg.sum(family);
    };
    r.virt_span_ns = double(end.virt - begin.virt);
    r.timed_virt0 = begin.virt;
    r.timed_virt1 = end.virt;
    r.wire_bytes = delta("aurora_backend_bytes_out_total") +
                   delta("aurora_backend_bytes_in_total") +
                   delta("aurora_offload_bytes_put_total") +
                   delta("aurora_offload_bytes_got_total");

    auto& l = r.layers;
    const double switches = double(end.switches - begin.switches);
    l["sim.switches_per_op"] = per(switches, ops);
    l["sim.ns_per_switch"] =
        switches > 0 ? double(end.wall - begin.wall) / switches : 0.0;
    const double vh_allocs = double(end.vh_allocs - begin.vh_allocs);
    l["offload.host_allocs_per_op"] = per(vh_allocs, ops);
    l["offload.ve_allocs_per_op"] =
        per(double(end.all_allocs - begin.all_allocs) - vh_allocs, ops);
    l["offload.retransmits"] = delta("aurora_offload_retransmits_total");
    l["offload.send_retries"] = delta("aurora_offload_send_retries_total");
    l["offload.data_chunks_per_op"] =
        per(delta("aurora_offload_data_chunks_total"), ops);
    l["backend.polls_per_op"] = per(delta("aurora_backend_polls_total"), ops);
    l["backend.msg_bytes_p50"] =
        hist_delta(begin.reg.hist("aurora_offload_msg_bytes"),
                   end.reg.hist("aurora_offload_msg_bytes"))
            .p50();
    const double hits = delta("aurora_mem_regcache_hits_total");
    const double misses = delta("aurora_mem_regcache_misses_total");
    l["mem.regcache_hit_pct"] =
        hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0;
    l["mem.region_allocs"] = delta("aurora_mem_region_allocs_total");
    l["mem.bytes_in_use_after"] = end.reg.sum("aurora_mem_bytes_in_use");
}

void record_stages(trial_result& r) {
    // Edge into each stage and its expected predecessor (obs/timeline.hpp).
    static constexpr std::array<std::pair<obs::stage, obs::stage>, 6> edges{{
        {obs::stage::post, obs::stage::submit},
        {obs::stage::sent, obs::stage::post},
        {obs::stage::ve_dispatch, obs::stage::sent},
        {obs::stage::ve_done, obs::stage::ve_dispatch},
        {obs::stage::harvest, obs::stage::ve_done},
        {obs::stage::collect, obs::stage::harvest},
    }};
    const obs::reassembly re = obs::reassemble();
    std::array<std::vector<double>, edges.size()> samples;
    std::vector<double> sums;
    for (const obs::timeline& tl : re.timelines) {
        if (!tl.complete || tl.events.empty() ||
            tl.events.front().ts_ns < std::uint64_t(r.timed_virt0) ||
            tl.events.front().ts_ns > std::uint64_t(r.timed_virt1)) {
            continue;
        }
        double sum = 0.0;
        for (std::size_t i = 1; i < tl.events.size(); ++i) {
            for (std::size_t e = 0; e < edges.size(); ++e) {
                if (tl.events[i].st == edges[e].first &&
                    tl.events[i - 1].st == edges[e].second) {
                    const double d =
                        double(tl.events[i].ts_ns - tl.events[i - 1].ts_ns);
                    samples[e].push_back(d);
                    sum += d;
                }
            }
        }
        sums.push_back(sum);
    }
    for (std::size_t e = 0; e < edges.size(); ++e) {
        const std::string base =
            std::string("stage.") + obs::edge_name(edges[e].first);
        r.layers[base + "_p50_ns"] = percentile(samples[e], 50.0);
        r.layers[base + "_p99_ns"] = percentile(samples[e], 99.0);
    }
    r.layers["stage.timelines"] = double(sums.size());
    r.layers["stage.sum_mean_ns"] = mean(sums);
    r.layers["obs.dropped_events"] = double(re.dropped_events);
}

void record_span_wall(trial_result& r, const trial_context& ctx,
                      const char* metric, const char* span) {
    if (ctx.spans != nullptr) {
        r.layers[metric] = ctx.spans->stats(span).median_wall_ns;
    }
}

const std::vector<layer_metric>& layer_metrics() {
    static const std::vector<layer_metric> list = {
        {"sim.switches_per_op", "count"},
        {"sim.ns_per_switch", "ns"},
        {"sim.setup_switches", "count"},
        {"offload.async_host_ns", "ns"},
        {"offload.get_host_ns", "ns"},
        {"offload.async_virt_ns", "sim_ns"},
        {"offload.get_virt_ns", "sim_ns"},
        {"offload.host_allocs_per_op", "count"},
        {"offload.ve_allocs_per_op", "count"},
        {"offload.retransmits", "count"},
        {"offload.send_retries", "count"},
        {"offload.data_chunks_per_op", "count"},
        {"backend.polls_per_op", "count"},
        {"backend.msg_bytes_p50", "B"},
        {"stage.queue_wait_p50_ns", "sim_ns"},
        {"stage.queue_wait_p99_ns", "sim_ns"},
        {"stage.send_p50_ns", "sim_ns"},
        {"stage.send_p99_ns", "sim_ns"},
        {"stage.flag_poll_p50_ns", "sim_ns"},
        {"stage.flag_poll_p99_ns", "sim_ns"},
        {"stage.execute_p50_ns", "sim_ns"},
        {"stage.execute_p99_ns", "sim_ns"},
        {"stage.result_p50_ns", "sim_ns"},
        {"stage.result_p99_ns", "sim_ns"},
        {"stage.settle_p50_ns", "sim_ns"},
        {"stage.settle_p99_ns", "sim_ns"},
        {"stage.unattributed_pct", "%"},
        {"mem.alloc_host_ns", "ns"},
        {"mem.free_host_ns", "ns"},
        {"mem.alloc_virt_ns", "sim_ns"},
        {"mem.regcache_hit_pct", "%"},
        {"mem.region_allocs", "count"},
        {"mem.bytes_in_use_after", "B"},
        {"vedma.put_gib_s.4k", "GiB/sim_s"},
        {"vedma.put_gib_s.64k", "GiB/sim_s"},
        {"vedma.put_gib_s.1m", "GiB/sim_s"},
        {"vedma.put_gib_s.16m", "GiB/sim_s"},
        {"vedma.get_gib_s.4k", "GiB/sim_s"},
        {"vedma.get_gib_s.64k", "GiB/sim_s"},
        {"vedma.get_gib_s.1m", "GiB/sim_s"},
        {"vedma.get_gib_s.16m", "GiB/sim_s"},
        {"vedma.put_host_ns_per_mib", "ns"},
        {"vedma.get_host_ns_per_mib", "ns"},
        {"sched.submit_host_ns", "ns"},
        {"sched.wait_host_ns_per_task", "ns"},
        {"sched.msgs_per_task", "count"},
        {"sched.batched_pct", "%"},
        {"sched.steals", "count"},
        {"sched.util_min_pct", "%"},
        {"sched.util_max_pct", "%"},
        {"sched.backpressure_stalls", "count"},
        {"admit.submit_host_ns", "ns"},
        {"admit.shed_host_ns", "ns"},
        {"admit.wait_host_ns", "ns"},
        {"admit.shed_pct", "%"},
        {"admit.expired", "count"},
        {"admit.max_backlog", "count"},
        {"admit.victim_p99_unloaded_us", "sim_us"},
        {"net.submit_host_ns", "ns"},
        {"net.wait_host_ns_per_task", "ns"},
        {"net.frames_per_task", "count"},
        {"net.steals_local", "count"},
        {"net.steals_remote", "count"},
        {"net.link_backpressure", "count"},
        {"trace.overhead_pct", "%"},
        {"obs.dropped_events", "count"},
    };
    return list;
}

} // namespace aurora_bench
