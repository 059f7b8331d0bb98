// sched_skewed — skewed task batches through sched::executor on 4 vedma VEs.
//
// 8 batches of 8,000 tasks, each submitted at once to a fresh executor with
// default settings (work stealing, batching, bounded queues): 1 in 16 costs
// 200 us, the rest 10 us; affinity is skewed towards VE 1 (1/2, 1/4, 1/8,
// 1/8); 1 in 4 tasks depends on a random one of the previous 64.
// Placement, stealing, batching and dependency release set the makespan. It
// is also where idle-VE LHM polling and the attach of four vedma targets
// dominate host cost, so set-up changes show here.
//
// A batch is one request: a task's latency runs from the start of its batch
// to the task's settlement on the host, so lat_p50_us is the time by which
// half of a batch has settled. (Timed from each task's own submit call
// instead, the median moves by 10% from seed to seed.) Eight batches with
// their own inputs average out what the seed does to any one of them.
#include <string>

#include "bench.hpp"
#include "offload/offload.hpp"
#include "sched/sched.hpp"
#include "support/host.hpp"
#include "support/stats.hpp"

namespace aurora_bench {

namespace {

namespace off = ham::offload;
namespace sched = aurora::sched;
namespace sim = aurora::sim;

constexpr int kTargets = 4;
constexpr std::int64_t kHeavyNs = 200'000;
constexpr std::int64_t kLightNs = 10'000;
constexpr std::uint64_t kDepWindow = 64;
constexpr int kProbeTasks = 64; // 4 heavy + 60 light, one at a time

void spin(std::int64_t ns) { sim::advance(ns); }

constexpr int kBatches = 8;

std::size_t tasks_per_batch(bool smoke) { return smoke ? 400 : 8'000; }

std::string config(bool smoke) {
    return "{\"platform\":\"a300_8\",\"backend\":\"vedma\",\"targets\":4,"
           "\"executor\":\"defaults (work_stealing, batching, window 4, "
           "max_queued 4096)\",\"batches\":" +
           std::to_string(kBatches) +
           ",\"tasks_per_batch\":" + std::to_string(tasks_per_batch(smoke)) +
           ",\"heavy\":\"1 in 16 at 200 us\",\"light_us\":10,"
           "\"affinity\":\"per 16: 8 x VE 1, 4 x VE 2, 2 x VE 3, 2 x VE 4\","
           "\"deps\":\"1 in 4 on one of the previous 64\"}";
}

struct task_input {
    std::int64_t cost_ns = 0;
    sched::node_t affinity = 1;
    std::size_t dep = 0; ///< index of the predecessor + 1; 0 = none
};

std::vector<task_input> make_batch(lcg& rng, std::size_t n) {
    // Every block of 16 tasks: one heavy; affinity 8 x VE 1, 4 x VE 2,
    // 2 x VE 3, 2 x VE 4; four with a dependency.
    const std::vector<char> heavy =
        stratified<char>(rng, n, {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
    const std::vector<sched::node_t> affinity = stratified<sched::node_t>(
        rng, n, {1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4});
    const std::vector<char> has_dep =
        stratified<char>(rng, n, {1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
    std::vector<task_input> in(n);
    for (std::size_t i = 0; i < n; ++i) {
        in[i].cost_ns = heavy[i] ? kHeavyNs : kLightNs;
        in[i].affinity = affinity[i];
        if (has_dep[i] && i > 0) { // task 0 has nothing to depend on
            in[i].dep = i - rng.below(std::min<std::uint64_t>(kDepWindow, i));
        }
    }
    return in;
}

/// Executor counters summed over the batches of a trial.
struct sched_totals {
    std::uint64_t steals = 0, stalls = 0, batched = 0, messages = 0;
    std::vector<double> busy_ns; ///< per target
};

trial_result run(const trial_context& ctx) {
    lcg rng(ctx.seed);
    std::vector<std::vector<task_input>> batches;
    for (int b = 0; b < kBatches; ++b) {
        batches.push_back(make_batch(rng, tasks_per_batch(ctx.smoke)));
    }
    const double tasks = double(kBatches) * double(tasks_per_batch(ctx.smoke));
    trial_result r;
    r.lat_ns.reserve(std::size_t(tasks));
    if (ctx.spans != nullptr) {
        ctx.spans->reserve(std::size_t(tasks) + 16);
    }
    const std::int64_t setup0 = host::wall_ns();
    sim::platform plat(sim::platform_config::a300_8());
    off::runtime_options opt;
    opt.backend = off::backend_kind::vedma;
    opt.targets = {0, 1, 2, 3};

    const int rc = off::run(plat, opt, [&] {
        {
            // Unloaded probe (and warm-up): the two task kinds, one at a time.
            sched::executor probe;
            std::vector<double> lat;
            for (int i = 0; i < kProbeTasks; ++i) {
                const std::int64_t cost = i % 16 == 0 ? kHeavyNs : kLightNs;
                const sim::time_ns t0 = sim::now();
                (void)probe.submit(ham::f2f<&spin>(cost),
                                   {.affinity = sched::node_t(1 + i % kTargets),
                                    .cost_ns = std::uint64_t(cost)});
                probe.wait_all();
                lat.push_back(double(sim::now() - t0));
                if (i == 0) {
                    end_setup(r, setup0, plat.sim());
                    if (ctx.setup_only) {
                        return;
                    }
                }
            }
            r.unloaded_p99_ns = percentile(lat, 99.0);
        }

        sched_totals tot;
        std::uint64_t fp = fingerprint_seed;
        const phase_mark begin = phase_mark::take(plat.sim());
        segment_clock seg(r, ctx);
        for (const std::vector<task_input>& in : batches) {
            sched::executor ex;
            std::vector<sched::task_id> ids(in.size());
            const sim::time_ns t0 = sim::now();
            for (std::size_t i = 0; i < in.size(); ++i) {
                const sched::task_options o{.affinity = in[i].affinity,
                                            .cost_ns = std::uint64_t(in[i].cost_ns)};
                const scoped_span s(ctx.spans, "sched.submit", i);
                ids[i] = in[i].dep == 0
                             ? ex.submit(ham::f2f<&spin>(in[i].cost_ns), o)
                             : ex.submit(ham::f2f<&spin>(in[i].cost_ns), o,
                                         {ids[in[i].dep - 1]});
            }
            {
                const scoped_span s(ctx.spans, "sched.wait_all");
                ex.wait_all();
            }
            seg.mark(double(in.size()));
            r.attempted += in.size();

            std::vector<int> seen(in.size(), 0);
            for (const sched::completion_record& c : ex.trace()) {
                if (c.id < seen.size()) {
                    ++seen[c.id];
                }
                fp = fingerprint(fingerprint(fingerprint(fp, c.id),
                                             std::uint64_t(c.executed_on)),
                                 c.done_time_ns);
            }
            for (std::size_t i = 0; i < in.size(); ++i) {
                const bool once = ids[i] < seen.size() && seen[ids[i]] == 1 &&
                                  ex.state_of(ids[i]) == sched::task_state::done;
                const bool ordered =
                    in[i].dep == 0 || ex.record_of(ids[in[i].dep - 1]).done_seq <
                                          ex.record_of(ids[i]).start_seq;
                if (once && ordered) {
                    ++r.completed;
                    r.lat_ns.push_back(double(ex.record_of(ids[i]).done_time_ns) -
                                       double(t0));
                } else {
                    ++r.failed;
                }
            }
            const sched::executor::statistics& st = ex.stats();
            tot.steals += st.steals;
            tot.stalls += st.backpressure_stalls;
            tot.batched += st.batched_tasks;
            tot.busy_ns.resize(st.per_target.size());
            for (std::size_t t = 0; t < st.per_target.size(); ++t) {
                tot.messages += st.per_target[t].messages_sent;
                tot.busy_ns[t] += double(st.per_target[t].busy_cost_ns);
            }
        }
        const phase_mark end = phase_mark::take(plat.sim());
        r.fingerprint = fp;
        record_timed_phase(r, begin, end, r.completed);

        double util_min = 1.0, util_max = 0.0;
        for (const double busy : tot.busy_ns) {
            const double u = r.virt_span_ns > 0 ? busy / r.virt_span_ns : 0.0;
            util_min = std::min(util_min, u);
            util_max = std::max(util_max, u);
        }
        auto& l = r.layers;
        l["sched.msgs_per_task"] = double(tot.messages) / tasks;
        l["sched.batched_pct"] = 100.0 * double(tot.batched) / tasks;
        l["sched.steals"] = double(tot.steals);
        l["sched.util_min_pct"] = 100.0 * util_min;
        l["sched.util_max_pct"] = 100.0 * util_max;
        l["sched.backpressure_stalls"] = double(tot.stalls);
    });
    r.check(rc == 0, "offload::run returned non-zero");
    if (ctx.setup_only) {
        return r;
    }
    r.check(r.failed == 0,
            "a task did not settle done exactly once, or ran before its dependency");
    r.ok_of = r.attempted;
    r.ok = r.completed;

    if (ctx.spans != nullptr) {
        record_stages(r);
        record_span_wall(r, ctx, "sched.submit_host_ns", "sched.submit");
        r.layers["sched.wait_host_ns_per_task"] =
            ctx.spans->stats("sched.wait_all").total_wall_ns / tasks;
    }
    return r;
}

} // namespace

const workload_def& sched_skewed_workload() {
    static const workload_def def{"sched_skewed", &run, 1 << 18, &config};
    return def;
}

} // namespace aurora_bench
