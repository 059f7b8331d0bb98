// Pinned virtual trace of a cluster mix no benchmark workload runs: links
// with a window of 2 (the executor's remote sends, routed async calls and
// the gateways' result frames all meet backpressure), a remote VE killed and
// healed, and local_then_remote steals. The digest covers every task's (id,
// state, executed_on, done_time_ns, done_seq), the async results, the final
// clock and the link-backpressure and result-probe counts; its value was
// recorded on the commit before the cluster's poll loops were parked, so any
// change to how the origin or a gateway waits that moves a virtual result
// fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "net/net.hpp"
#include "offload/offload.hpp"
#include "sim/platform.hpp"
#include "tests/support/trace_digest.hpp"

namespace aurora::net {
namespace {

namespace fault = aurora::fault;
namespace off = ham::offload;

int add(int a, int b) { return a + b; }
void spin(std::int64_t ns) { sim::advance(ns); }

class PinnedTrace : public ::testing::Test {
protected:
    void TearDown() override { fault::injector::instance().reset(); }
};

TEST_F(PinnedTrace, ClusterBackpressureRemoteKillAndSteals) {
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    copt.link = {"ib-hdr-w2", 1'300, 600, 23.0, 2};
    copt.remote.reply_timeout_ns = 100'000;
    copt.remote.max_retries = 2;
    copt.remote.recovery.enabled = true;
    copt.remote.recovery.backoff_ns = 50'000;
    copt.remote.recovery_streak = 3;
    // VH1's VE2 (global id 1*2+2 = 4) dies holding its third message.
    fault::injector::instance().kill_after_messages(4, 3);

    off::runtime_options opt;
    opt.backend = off::backend_kind::loopback;
    opt.targets.assign(2, 0);

    testing::trace_digest d;
    const std::uint64_t bp0 =
        testing::counter_total("aurora_net_link_backpressure_total");
    const std::uint64_t polls0 =
        testing::counter_total("aurora_backend_polls_total");
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(600'000'000'000);
    const int rc = off::run(plat, opt, [&] {
        cluster c(plat, copt);
        {
            cluster_executor_config cfg;
            cfg.policy = sched::placement_policy::work_stealing;
            cfg.scope = sched::steal_scope::local_then_remote;
            cfg.window = 2;
            cfg.remote_steal_threshold = 2;
            cluster_executor ex(c, cfg);
            for (int i = 0; i < 72; ++i) {
                const std::int64_t cost = i % 9 == 8 ? 120'000 : 12'000;
                ex.submit(ham::f2f<&spin>(cost), i % 6 == 5 ? 2 : 1);
            }
            ex.wait_all();
            EXPECT_EQ(ex.stats().completed, 72u);
            EXPECT_GT(ex.stats().steals_remote, 0u);
            d.add_tasks(ex.executor());
        }
        // Eight routed calls fired back to back through a window of two.
        std::vector<ham::offload::future<int>> futs;
        for (int i = 0; i < 8; ++i) {
            futs.push_back(c.async(2, 1 + i % 2, ham::f2f<&add>(i, 100)));
        }
        for (auto& f : futs) {
            d.add(static_cast<std::uint64_t>(f.get()));
        }
        auto cell = c.allocate<int>(1, 2, 4);
        const int four[4] = {1, 2, 3, 4};
        c.put(four, 1, cell, 4);
        int back[4] = {};
        c.get(1, cell, back, 4);
        EXPECT_EQ(back[3], 4);
        c.free(1, cell);
        EXPECT_EQ(c.observed_epoch(1, 2), 1u);
        d.add(static_cast<std::uint64_t>(sim::now()));
    });
    ASSERT_EQ(rc, 0);
    EXPECT_EQ(fault::injector::instance().stats().kills, 1u);
    d.add(static_cast<std::uint64_t>(plat.sim().now()));
    const std::uint64_t bp =
        testing::counter_total("aurora_net_link_backpressure_total") - bp0;
    EXPECT_GT(bp, 0u);
    d.add(bp);
    d.add(testing::counter_total("aurora_backend_polls_total") - polls0);
    EXPECT_EQ(d.value(), 594567666172380673ULL)
        << "final clock " << plat.sim().now() << ", " << bp << " refused sends";
}

TEST_F(PinnedTrace, GatewayParksFramesBehindARecoveringVe) {
    // A remote VE dies holding its second message while the origin keeps
    // routing to it and to its sibling: frames for the dead VE park on the
    // gateway through its recovery, and the sibling's frames park whenever
    // its eight slots are busy, so the gateway's parked pass holds both a
    // recovery pause and a slot probe until the respawn replays the work.
    cluster_options copt;
    copt.nodes = 2;
    copt.ves_per_node = 2;
    copt.remote.reply_timeout_ns = 100'000;
    copt.remote.max_retries = 2;
    copt.remote.recovery.enabled = true;
    copt.remote.recovery.backoff_ns = 400'000;
    copt.remote.recovery_streak = 3;
    fault::injector::instance().kill_after_messages(3, 2); // VH1's VE1

    off::runtime_options opt;
    opt.backend = off::backend_kind::loopback;
    opt.targets.assign(1, 0);

    testing::trace_digest d;
    const std::uint64_t polls0 =
        testing::counter_total("aurora_backend_polls_total");
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(600'000'000'000);
    const int rc = off::run(plat, opt, [&] {
        cluster c(plat, copt);
        std::vector<ham::offload::future<int>> sums;
        std::vector<ham::offload::future<void>> spins;
        for (int i = 0; i < 60; ++i) {
            if (i % 4 == 0) {
                sums.push_back(c.async(1, 1, ham::f2f<&add>(i, 1)));
            } else {
                spins.push_back(c.async(1, 2, ham::f2f<&spin>(30'000)));
            }
        }
        for (auto& f : sums) {
            d.add(static_cast<std::uint64_t>(f.get()));
            d.add(static_cast<std::uint64_t>(sim::now()));
        }
        for (auto& f : spins) {
            f.get();
            d.add(static_cast<std::uint64_t>(sim::now()));
        }
        EXPECT_EQ(c.observed_epoch(1, 1), 1u);
    });
    ASSERT_EQ(rc, 0);
    EXPECT_EQ(fault::injector::instance().stats().kills, 1u);
    d.add(static_cast<std::uint64_t>(plat.sim().now()));
    d.add(testing::counter_total("aurora_backend_polls_total") - polls0);
    EXPECT_EQ(d.value(), 13508821214656345431ULL)
        << "final clock " << plat.sim().now();
}

TEST(ParkedWaits, ClusterSetUpAndOneRemoteTaskSwitchRarely) {
    // The set-up of the cluster_4node benchmark workload: a 4x4 loopback
    // cluster, then one 500 us task on VH 1 through a stealing executor.
    // While the task runs, the origin's executor and the three gateways only
    // poll; parked, they cost no context switch until something arrives.
    cluster_options copt;
    copt.nodes = 4;
    copt.ves_per_node = 4;
    off::runtime_options opt;
    opt.backend = off::backend_kind::loopback;
    opt.targets.assign(4, 0);
    std::uint64_t in_ctor = 0;
    std::uint64_t in_task = 0;
    sim::platform plat(sim::platform_config::a300_8());
    ASSERT_EQ(off::run(plat, opt, [&] {
        const auto& st = plat.sim().stats();
        const std::uint64_t s0 = st.context_switches;
        cluster c(plat, copt);
        in_ctor = st.context_switches - s0;
        cluster_executor_config cfg;
        cfg.policy = sched::placement_policy::work_stealing;
        cfg.scope = sched::steal_scope::local_then_remote;
        cfg.window = 2;
        cfg.remote_steal_threshold = 2;
        cluster_executor ex(c, cfg);
        const std::uint64_t s1 = st.context_switches;
        ex.submit(ham::f2f<&spin>(500'000), 1);
        ex.wait_all();
        in_task = st.context_switches - s1;
    }), 0);
    // Measured: 20 and 10 switches. The loops that polled every 100-400 ns
    // took 20 and 17,747 before they parked.
    EXPECT_LE(in_ctor, 20u);
    EXPECT_LE(in_task, 40u);
}

} // namespace
} // namespace aurora::net
