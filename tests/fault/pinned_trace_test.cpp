// Pinned virtual trace of a healing mix no benchmark workload runs: four
// vedma targets under seeded drops and delays (reply timeouts, retransmits),
// one of them killed at a virtual time and healed (respawn, replay, the
// probation ramp of the executor's window). The digest covers every task's
// (id, state, executed_on, done_time_ns, done_seq), the final clock and the
// retransmit and result-probe counts; its value was recorded on the commit
// before the executor's idle passes were parked, so any change to how the
// host waits that moves a virtual result fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "offload/offload.hpp"
#include "sched/sched.hpp"
#include "sim/platform.hpp"
#include "tests/support/trace_digest.hpp"

namespace aurora::sched {
namespace {

namespace fault = aurora::fault;
namespace off = ham::offload;

void spin(std::int64_t ns, std::uint64_t* counter) {
    aurora::sim::advance(ns);
    ++*counter;
}

class PinnedTrace : public ::testing::Test {
protected:
    void TearDown() override { fault::injector::instance().reset(); }
};

TEST_F(PinnedTrace, VedmaTimeKillHealsUnderRetransmits) {
    auto& inj = fault::injector::instance();
    fault::config c;
    c.enabled = true;
    c.seed = 20261018;
    c.drop_permille = 25;
    c.delay_permille = 40;
    c.delay_ns = 30'000;
    inj.configure(c);
    inj.kill_at_time(2, 400'000);

    off::runtime_options opt;
    opt.backend = off::backend_kind::vedma;
    opt.targets = {0, 1, 2, 3};
    opt.reply_timeout_ns = 120'000;
    opt.max_retries = 4;
    opt.recovery.enabled = true;
    opt.recovery.backoff_ns = 60'000;
    opt.recovery_streak = 4;

    constexpr int tasks = 96;
    std::vector<std::uint64_t> runs(tasks, 0);
    testing::trace_digest d;
    const std::uint64_t polls0 =
        testing::counter_total("aurora_backend_polls_total");
    const std::uint64_t retx0 =
        testing::counter_total("aurora_offload_retransmits_total");

    aurora::sim::platform plat(aurora::sim::platform_config::a300_8());
    plat.sim().set_virtual_deadline(60'000'000'000);
    const int rc = off::run(plat, opt, [&] {
        executor ex{{.policy = placement_policy::work_stealing,
                     .window = 4,
                     .batching = true,
                     .max_batch = 3}};
        std::vector<task_id> ids;
        for (int i = 0; i < tasks; ++i) {
            const std::int64_t cost = 8'000 + (i % 7) * 6'000;
            const node_t home = static_cast<node_t>(1 + i % 4);
            std::uint64_t* count = &runs[static_cast<std::size_t>(i)];
            if (i >= 12 && i % 5 == 0) {
                ids.push_back(ex.submit(ham::f2f<&spin>(cost, count),
                                        task_options{.affinity = home},
                                        {ids[static_cast<std::size_t>(i - 12)]}));
            } else {
                ids.push_back(ex.submit(ham::f2f<&spin>(cost, count),
                                        task_options{.affinity = home}));
            }
        }
        ex.wait_all();
        for (const task_id id : ids) {
            EXPECT_EQ(ex.state_of(id), task_state::done) << "task " << id;
        }
        d.add_tasks(ex);
        off::runtime& rt = *off::runtime::current();
        EXPECT_EQ(rt.runtime_stats(2).recoveries, 1u);
    });
    ASSERT_EQ(rc, 0);
    for (const std::uint64_t r : runs) {
        EXPECT_EQ(r, 1u) << "recovery executes every task exactly once";
    }
    d.add(static_cast<std::uint64_t>(plat.sim().now()));
    d.add(testing::counter_total("aurora_backend_polls_total") - polls0);
    const std::uint64_t retx =
        testing::counter_total("aurora_offload_retransmits_total") - retx0;
    EXPECT_GT(retx, 0u);
    d.add(retx);
    EXPECT_EQ(inj.stats().kills, 1u);
    EXPECT_EQ(d.value(), 8405721340492396153ULL)
        << "final clock " << plat.sim().now();
}

TEST_F(PinnedTrace, DispatchWaitsOutARecoveryBehindTheHostsOffload) {
    // Target 1 dies holding its second message and heals after a long
    // backoff; meanwhile the host's own offload holds a slot of target 2,
    // so the executor's sends to target 2 are refused until it lands. The
    // parked pass then holds target 1's recovery pause and, right after
    // it, target 2's refused send.
    fault::injector::instance().kill_after_messages(1, 2);
    off::runtime_options opt;
    opt.backend = off::backend_kind::loopback;
    opt.targets.assign(2, 0);
    opt.reply_timeout_ns = 100'000;
    opt.max_retries = 2;
    opt.recovery.enabled = true;
    opt.recovery.backoff_ns = 400'000;
    opt.recovery_streak = 3;

    std::uint64_t count = 0;
    testing::trace_digest d;
    const std::uint64_t polls0 =
        testing::counter_total("aurora_backend_polls_total");
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(60'000'000'000);
    const int rc = off::run(plat, opt, [&] {
        auto own = off::async(2, ham::f2f<&spin>(900'000, &count));
        executor ex{{.policy = placement_policy::locality,
                     .window = 8,
                     .batching = false}};
        for (int i = 0; i < 40; ++i) {
            ex.submit(ham::f2f<&spin>(5'000 + (i % 3) * 4'000, &count),
                      task_options{.affinity = static_cast<node_t>(1 + i % 2)});
        }
        ex.wait_all();
        own.get();
        d.add_tasks(ex);
        EXPECT_EQ(off::runtime::current()->runtime_stats(1).recoveries, 1u);
    });
    ASSERT_EQ(rc, 0);
    EXPECT_EQ(count, 41u);
    d.add(static_cast<std::uint64_t>(plat.sim().now()));
    d.add(testing::counter_total("aurora_backend_polls_total") - polls0);
    EXPECT_EQ(d.value(), 6669770744162561016ULL)
        << "final clock " << plat.sim().now();
}

} // namespace
} // namespace aurora::sched
