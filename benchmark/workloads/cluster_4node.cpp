// cluster_4node — two-level stealing across 4 VH nodes (aurora::net).
//
// 4 VH nodes x 4 loopback VEs through net::cluster_executor (work stealing,
// local_then_remote, window 2, remote-steal threshold 2). 4 batches of
// 4,000 tasks, each on a fresh executor: every 16th task costs 500 us, the
// rest 10 us, with affinity piled onto node 1. Routing headers, inter-node
// links and two-level stealing dominate. This workload must hold when
// cluster_executor is folded into sched::executor; sched_skewed is the other
// side of that fold.
//
// As in sched_skewed, a batch is one request and a task's latency runs from
// the start of its batch. The executor has no per-task settlement hook, so
// it ends when the task's kernel ends on the executing VE (the kernel stamps
// the virtual time); the result hop back to the origin is not in it.
#include <map>
#include <string>

#include "bench.hpp"
#include "net/net.hpp"
#include "offload/offload.hpp"
#include "support/host.hpp"
#include "support/stats.hpp"

namespace aurora_bench {

namespace {

namespace net = aurora::net;
namespace off = ham::offload;
namespace sched = aurora::sched;
namespace sim = aurora::sim;

constexpr int kNodes = 4;
constexpr int kVesPerNode = 4;
constexpr std::int64_t kHeavyNs = 500'000;
constexpr std::int64_t kLightNs = 10'000;
constexpr int kProbeTasks = 64; // 4 heavy + 60 light, one at a time

/// Kernel completion stamps, indexed by task; written by the executing VE.
std::vector<sim::time_ns>* g_done = nullptr;

void spin_and_stamp(std::int64_t ns, std::uint64_t index) {
    sim::advance(ns);
    (*g_done)[index] = sim::now();
}

constexpr int kBatches = 4;

std::size_t tasks_per_batch(bool smoke) { return smoke ? 200 : 4'000; }

std::string config(bool smoke) {
    return "{\"platform\":\"a300_8\",\"backend\":\"loopback\",\"nodes\":4,"
           "\"ves_per_node\":4,\"policy\":\"work_stealing\",\"scope\":"
           "\"local_then_remote\",\"window\":2,\"remote_steal_threshold\":2,"
           "\"batches\":" +
           std::to_string(kBatches) +
           ",\"tasks_per_batch\":" + std::to_string(tasks_per_batch(smoke)) +
           ",\"heavy\":\"every 16th at 500 us\",\"light_us\":10,"
           "\"affinity\":\"per 16: 8 x node 1, 4 x node 2, 4 x node 3\"}";
}

struct task_input {
    std::int64_t cost_ns = 0;
    int affinity_vh = 1;
};

std::vector<task_input> make_batch(lcg& rng, std::size_t n) {
    // Every block of 16 tasks: affinity 8 x node 1, 4 x node 2, 4 x node 3
    // (none on node 0), and the last one heavy. (A seeded heavy position
    // moves the batch's median completion by 4% from seed to seed.)
    const std::vector<int> affinity =
        stratified<int>(rng, n, {1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3});
    std::vector<task_input> in(n);
    for (std::size_t i = 0; i < n; ++i) {
        in[i].cost_ns = i % 16 == 15 ? kHeavyNs : kLightNs;
        in[i].affinity_vh = affinity[i];
    }
    return in;
}

net::cluster_executor_config executor_cfg() {
    net::cluster_executor_config cfg;
    cfg.policy = sched::placement_policy::work_stealing;
    cfg.scope = sched::steal_scope::local_then_remote;
    cfg.window = 2;
    cfg.remote_steal_threshold = 2;
    return cfg;
}

trial_result run(const trial_context& ctx) {
    lcg rng(ctx.seed);
    const std::size_t n = tasks_per_batch(ctx.smoke);
    std::vector<std::vector<task_input>> batches;
    for (int b = 0; b < kBatches; ++b) {
        batches.push_back(make_batch(rng, n));
    }
    const double tasks = double(kBatches) * double(n);
    // Slots 0..n-1 for the batch in flight, then one per probe task.
    std::vector<sim::time_ns> done(n + kProbeTasks, -1);
    g_done = &done;
    trial_result r;
    r.lat_ns.reserve(std::size_t(tasks));
    if (ctx.spans != nullptr) {
        ctx.spans->reserve(std::size_t(tasks) + 16);
    }
    const std::int64_t setup0 = host::wall_ns();
    sim::platform plat(sim::platform_config::a300_8());
    off::runtime_options opt;
    opt.backend = off::backend_kind::loopback;
    opt.targets.assign(kVesPerNode, 0);
    net::cluster_options copt;
    copt.nodes = kNodes;
    copt.ves_per_node = kVesPerNode;

    const int rc = off::run(plat, opt, [&] {
        net::cluster c(plat, copt);
        {
            // Unloaded probe (and warm-up): the two task kinds, one at a time,
            // on the node the batches pile onto.
            net::cluster_executor probe(c, executor_cfg());
            std::vector<double> lat;
            for (int i = 0; i < kProbeTasks; ++i) {
                const std::int64_t cost = i % 16 == 0 ? kHeavyNs : kLightNs;
                const std::uint64_t slot = n + std::size_t(i);
                const sim::time_ns t0 = sim::now();
                (void)probe.submit(ham::f2f<&spin_and_stamp>(cost, slot), 1);
                probe.wait_all();
                lat.push_back(double(done[slot] - t0));
                if (i == 0) {
                    end_setup(r, setup0, plat.sim());
                    if (ctx.setup_only) {
                        return;
                    }
                }
            }
            r.unloaded_p99_ns = percentile(lat, 99.0);
        }

        std::uint64_t fp = fingerprint_seed;
        std::uint64_t steals_local = 0, steals_remote = 0;
        const phase_mark begin = phase_mark::take(plat.sim());
        segment_clock seg(r, ctx);
        for (const std::vector<task_input>& in : batches) {
            net::cluster_executor ex(c, executor_cfg());
            std::fill(done.begin(), done.begin() + std::ptrdiff_t(n), -1);
            std::vector<net::cluster_executor::task_id> ids(n);
            const sim::time_ns t0 = sim::now();
            for (std::size_t i = 0; i < n; ++i) {
                const scoped_span s(ctx.spans, "net.submit", i);
                ids[i] = ex.submit(
                    ham::f2f<&spin_and_stamp>(in[i].cost_ns, std::uint64_t(i)),
                    in[i].affinity_vh);
            }
            {
                const scoped_span s(ctx.spans, "net.wait_all");
                ex.wait_all();
            }
            seg.mark(double(n));
            r.attempted += n;

            const auto& st = ex.stats();
            std::map<net::cluster_executor::task_id, int> seen;
            for (const net::cluster_executor::task_id id : ex.completion_order()) {
                ++seen[id];
                fp = fingerprint(fp, id);
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (seen[ids[i]] == 1 && done[i] >= t0) {
                    ++r.completed;
                    r.lat_ns.push_back(double(done[i] - t0));
                } else {
                    ++r.failed;
                }
            }
            r.check(st.failed == 0 && st.expired == 0 &&
                        ex.completion_order().size() == n,
                    "the cluster executor failed, expired or lost a task");
            steals_local += st.steals_local;
            steals_remote += st.steals_remote;
        }
        const phase_mark end = phase_mark::take(plat.sim());
        r.fingerprint = fp;
        record_timed_phase(r, begin, end, r.completed);
        auto& l = r.layers;
        l["net.frames_per_task"] =
            (end.reg.sum("aurora_net_link_frames_total") -
             begin.reg.sum("aurora_net_link_frames_total")) /
            tasks;
        l["net.steals_local"] = double(steals_local);
        l["net.steals_remote"] = double(steals_remote);
        l["net.link_backpressure"] =
            end.reg.sum("aurora_net_link_backpressure_total") -
            begin.reg.sum("aurora_net_link_backpressure_total");
    });
    g_done = nullptr;
    r.check(rc == 0, "offload::run returned non-zero");
    if (ctx.setup_only) {
        return r;
    }
    r.check(r.failed == 0, "a task did not complete exactly once");
    r.ok_of = r.attempted;
    r.ok = r.completed;

    if (ctx.spans != nullptr) {
        record_stages(r);
        record_span_wall(r, ctx, "net.submit_host_ns", "net.submit");
        r.layers["net.wait_host_ns_per_task"] =
            ctx.spans->stats("net.wait_all").total_wall_ns / tasks;
    }
    return r;
}

} // namespace

const workload_def& cluster_4node_workload() {
    static const workload_def def{"cluster_4node", &run, 1 << 16, &config};
    return def;
}

} // namespace aurora_bench
