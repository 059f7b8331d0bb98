// Cluster characterisation: throughput scaling of the aurora::net tier
// across VH node count, VEs per node, and steal scope.
//
// The paper offloads from one VH to its local VEs; aurora::net extends the
// model to a cluster of VHs joined by a calibrated interconnect. This bench
// drives the two-level cluster_executor over a skewed task mix whose
// affinities pile onto one node (the "data gravity" worst case for a
// distributed run) and reports, per configuration, the virtual-time
// makespan, aggregate task rate and steal counts.
//
//   Part 1  strong scaling: 1/2/4 nodes x 4 VEs, local_then_remote
//   Part 2  steal-scope shoot-out at 4 nodes: local_only vs local_then_remote
//           (on at least 320 tasks; see kMinScopeMix)
//   Part 3  determinism: the Part 2 remote configuration re-run must yield a
//           bit-identical completion order
//
// JSON mode (HAM_AURORA_BENCH_JSON=1) exports the series gated by
// bench/baselines/cluster_scaling.json in the CI cluster-chaos job.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/support/bench_common.hpp"
#include "net/net.hpp"
#include "offload/offload.hpp"

namespace {

using namespace aurora;
namespace off = ham::offload;

void spin(std::int64_t ns) {
    sim::advance(ns);
}

struct work_item {
    std::int64_t cost_ns = 0;
    int affinity_vh = 0;
};

/// Deterministic LCG; every configuration sees the same workload.
class lcg {
public:
    explicit lcg(std::uint64_t seed) : x_(seed * 2654435761u + 1) {}
    std::uint64_t next(std::uint64_t n) {
        x_ = x_ * 6364136223846793005ULL + 1442695040888963407ULL;
        return (x_ >> 33) % n;
    }

private:
    std::uint64_t x_;
};

/// Zipf-ish mix: 1-in-16 tasks are 50x heavier, and affinities favour the
/// first remote node — P(node 1) = 1/2, P(node 2) = 1/4, ... — so a
/// local-only cluster drowns node 1 while the rest idles.
std::vector<work_item> skewed_mix(std::size_t n, int nodes) {
    lcg rng(42);
    std::vector<work_item> items(n);
    for (auto& it : items) {
        it.cost_ns = rng.next(16) == 0 ? 500000 : 10000;
        int vh = nodes > 1 ? 1 : 0;
        while (vh + 1 < nodes && rng.next(2) == 0) {
            ++vh;
        }
        it.affinity_vh = vh;
    }
    return items;
}

struct run_result {
    double makespan_s = 0.0;
    double rate = 0.0; ///< tasks per second (virtual)
    std::uint64_t steals_local = 0;
    std::uint64_t steals_remote = 0;
    std::vector<std::uint64_t> order; ///< determinism fingerprint
};

run_result run_config(int nodes, int ves_per_node, sched::steal_scope scope,
                      const std::vector<work_item>& items) {
    sim::platform plat(sim::platform_config::a300_8());
    off::runtime_options opt;
    opt.backend = off::backend_kind::loopback;
    opt.targets.assign(std::size_t(ves_per_node), 0);
    net::cluster_options copt;
    copt.nodes = nodes;
    copt.ves_per_node = ves_per_node;
    run_result res;
    off::run(plat, opt, [&] {
        net::cluster c(plat, copt);
        net::cluster_executor_config cfg;
        cfg.policy = sched::placement_policy::work_stealing;
        cfg.scope = scope;
        cfg.window = 2;
        cfg.remote_steal_threshold = 2;
        net::cluster_executor ex(c, cfg);
        const sim::time_ns t0 = sim::now();
        for (const work_item& it : items) {
            ex.submit(ham::f2f<&spin>(it.cost_ns), it.affinity_vh);
        }
        ex.wait_all();
        const double makespan = double(sim::now() - t0);
        res.makespan_s = makespan / 1e9;
        res.rate = double(items.size()) / res.makespan_s;
        res.steals_local = ex.stats().steals_local;
        res.steals_remote = ex.stats().steals_remote;
        res.order = ex.completion_order();
    });
    return res;
}

std::string k_per_s(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f k/s", v / 1000.0);
    return buf;
}

std::string ms(double s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f ms", s * 1000.0);
    return buf;
}

} // namespace

int main() {
    if (!bench::json_output()) {
        bench::print_header(
            "Scaling — aurora::net cluster throughput across VH nodes",
            "Two-level work stealing on a skewed mix piled onto one node");
    }

    constexpr int kVes = 4;
    const auto num_tasks =
        std::max<std::size_t>(std::size_t(bench::reps()), 25) * 8;

    // Part 1: strong scaling with remote stealing enabled. The mix is
    // regenerated per node count so the affinity skew always targets real
    // nodes, but costs and the heavy head are identical (same LCG seed).
    double rate1 = 0.0, rate2 = 0.0, rate4 = 0.0;
    {
        text_table t({"nodes", "VEs", "makespan", "aggregate rate", "scaling",
                      "steals l/r"});
        for (const int nodes : {1, 2, 4}) {
            const run_result r =
                run_config(nodes, kVes, sched::steal_scope::local_then_remote,
                           skewed_mix(num_tasks, nodes));
            if (nodes == 1) {
                rate1 = r.rate;
            } else if (nodes == 2) {
                rate2 = r.rate;
            } else {
                rate4 = r.rate;
            }
            t.add_row({std::to_string(nodes),
                       std::to_string(nodes * kVes), ms(r.makespan_s),
                       k_per_s(r.rate), bench::ratio(r.rate, rate1),
                       std::to_string(r.steals_local) + "/" +
                           std::to_string(r.steals_remote)});
        }
        if (!bench::json_output()) {
            bench::emit(t);
            std::printf("\n");
        }
    }

    // Part 2: does crossing the link pay? Same 4-node machine and mix,
    // stealing fenced to each node vs allowed across links. The mix has at
    // least kMinScopeMix tasks, whatever HAM_AURORA_REPS asks for: below
    // that, the mix's indivisible 500 us heavy tasks set the makespan under
    // either scope (at 200 tasks both finish in 1.01 ms), so the comparison
    // would measure nothing. Remote stealing wins 1.3x at 240 tasks and
    // 1.6-1.7x from 320 tasks on.
    constexpr std::size_t kMinScopeMix = 320;
    const std::vector<work_item> mix4 =
        skewed_mix(std::max(num_tasks, kMinScopeMix), 4);
    const run_result fenced =
        run_config(4, kVes, sched::steal_scope::local_only, mix4);
    const run_result remote =
        run_config(4, kVes, sched::steal_scope::local_then_remote, mix4);
    if (!bench::json_output()) {
        text_table t({"scope", "makespan", "rate", "steals l/r"});
        t.add_row({sched::to_string(sched::steal_scope::local_only),
                   ms(fenced.makespan_s), k_per_s(fenced.rate),
                   std::to_string(fenced.steals_local) + "/" +
                       std::to_string(fenced.steals_remote)});
        t.add_row({sched::to_string(sched::steal_scope::local_then_remote),
                   ms(remote.makespan_s), k_per_s(remote.rate),
                   std::to_string(remote.steals_local) + "/" +
                       std::to_string(remote.steals_remote)});
        bench::emit(t);
        std::printf("\nRemote vs fenced stealing on the skewed mix: %s\n",
                    bench::ratio(remote.rate, fenced.rate).c_str());
    }

    // Part 3: determinism — the remote configuration, twice.
    const run_result again =
        run_config(4, kVes, sched::steal_scope::local_then_remote, mix4);
    const bool identical = again.order == remote.order &&
                           again.makespan_s == remote.makespan_s;
    if (!bench::json_output()) {
        std::printf("Determinism: repeated run %s (%zu completions)\n",
                    identical ? "bit-identical" : "DIVERGED",
                    again.order.size());
        std::printf(
            "\nReading: with stealing fenced to each node, the affinity\n"
            "pile-up on node 1 bounds the makespan by one node's capacity;\n"
            "allowing steals across the interconnect spreads the backlog\n"
            "over every VH once a victim's queue exceeds the remote-steal\n"
            "threshold, and throughput scales with node count.\n");
    }

    if (bench::json_output()) {
        bench::json_result j("cluster_scaling");
        j.add("rate_1node_per_s", rate1);
        j.add("rate_2node_per_s", rate2);
        j.add("rate_4node_per_s", rate4);
        j.add("scaling_4node", rate4 / rate1);
        j.add("remote_steal_speedup", remote.rate / fenced.rate);
        j.add("remote_steals", double(remote.steals_remote));
        j.add("deterministic", identical ? 1.0 : 0.0);
        j.emit();
    }

    return rate4 > rate1 && remote.rate > fenced.rate && identical ? 0 : 1;
}
