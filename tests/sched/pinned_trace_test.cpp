// Pinned virtual traces of executor paths no benchmark workload runs, plus
// the resumption count of a wait that only polls. The digests cover every
// task's (id, state, executed_on, done_time_ns, done_seq), the final clock
// and the result-probe count; their values were recorded on the commit
// before the executor's idle passes were parked, so any change to how the
// executor waits that moves a virtual result fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "offload/offload.hpp"
#include "sched/sched.hpp"
#include "sim/platform.hpp"
#include "tests/support/trace_digest.hpp"

namespace aurora::sched {
namespace {

namespace off = ham::offload;

void spin(std::int64_t ns, std::uint64_t* counter) {
    aurora::sim::advance(ns);
    ++*counter;
}

off::runtime_options vedma_targets(int n) {
    off::runtime_options opt;
    opt.backend = off::backend_kind::vedma;
    for (int i = 0; i < n; ++i) {
        opt.targets.push_back(i);
    }
    return opt;
}

TEST(PinnedTrace, DeadlinesExpireInTheReadyQueue) {
    // Two vedma targets, window 1, batches of up to 4: tasks wait in the
    // ready queues long enough that a third of them pass their deadlines
    // there (some at the queue front, some inside a batch being gathered),
    // and their dependents cascade.
    constexpr int tasks = 90;
    std::vector<std::uint64_t> runs(tasks, 0);
    testing::trace_digest d;
    const std::uint64_t polls0 =
        testing::counter_total("aurora_backend_polls_total");
    aurora::sim::platform plat(aurora::sim::platform_config::a300_8());
    plat.sim().set_virtual_deadline(60'000'000'000);
    const int rc = off::run(plat, vedma_targets(2), [&] {
        executor ex{{.policy = placement_policy::locality,
                     .window = 1,
                     .batching = true,
                     .max_batch = 4}};
        const aurora::sim::time_ns t0 = aurora::sim::now();
        std::vector<task_id> ids;
        for (int i = 0; i < tasks; ++i) {
            task_options o;
            o.affinity = static_cast<node_t>(1 + i % 2);
            if (i % 3 != 0) {
                o.deadline_ns = t0 + 40'000 + (i * 7'919) % 400'000;
            }
            std::uint64_t* count = &runs[static_cast<std::size_t>(i)];
            const std::int64_t cost = 15'000 + (i % 5) * 5'000;
            if (i >= 10 && i % 4 == 1) {
                ids.push_back(ex.submit(ham::f2f<&spin>(cost, count), o,
                                        {ids[static_cast<std::size_t>(i - 10)]}));
            } else {
                ids.push_back(ex.submit(ham::f2f<&spin>(cost, count), o));
            }
        }
        ex.wait_all();
        const auto& st = ex.stats();
        EXPECT_GT(st.tasks_expired, 10u);
        EXPECT_LT(st.tasks_expired, std::uint64_t(tasks));
        d.add_tasks(ex);
    });
    ASSERT_EQ(rc, 0);
    d.add(static_cast<std::uint64_t>(plat.sim().now()));
    d.add(testing::counter_total("aurora_backend_polls_total") - polls0);
    EXPECT_EQ(d.value(), 12134095277972402225ULL)
        << "final clock " << plat.sim().now();
}

TEST(PinnedTrace, RefusedSendsWaitBehindTheHostsOwnOffloads) {
    // The host keeps an offload of its own in flight on each of two vedma
    // targets while an executor with a full window and batches of up to 3
    // dispatches to them: the round-robin cursor comes round to the host's
    // busy slot, so each pass builds a batch and has it refused until the
    // host's offload lands and the refused send's probe harvests it.
    std::uint64_t count = 0;
    testing::trace_digest d;
    const std::uint64_t polls0 =
        testing::counter_total("aurora_backend_polls_total");
    aurora::sim::platform plat(aurora::sim::platform_config::a300_8());
    plat.sim().set_virtual_deadline(60'000'000'000);
    // Reply timeouts shorter than the host's offload: its pending copy and
    // the executor's retransmit spuriously (idempotent, same generation),
    // and their deadlines fall anywhere in the passes, also right after a
    // batch was built.
    off::runtime_options opt = vedma_targets(2);
    opt.reply_timeout_ns = 70'000;
    opt.max_retries = 12;
    const int rc = off::run(plat, opt, [&] {
        auto own1 = off::async(1, ham::f2f<&spin>(300'000, &count));
        auto own2 = off::async(2, ham::f2f<&spin>(180'000, &count));
        executor ex{{.policy = placement_policy::locality,
                     .window = 8,
                     .batching = true,
                     .max_batch = 3}};
        for (int i = 0; i < 66; ++i) {
            ex.submit(ham::f2f<&spin>(6'000 + (i % 4) * 2'000, &count),
                      task_options{.affinity = static_cast<node_t>(1 + i % 2)});
        }
        ex.wait_all();
        own1.get();
        own2.get();
        d.add_tasks(ex);
        d.add(static_cast<std::uint64_t>(aurora::sim::now()));
    });
    ASSERT_EQ(rc, 0);
    EXPECT_EQ(count, 68u);
    d.add(static_cast<std::uint64_t>(plat.sim().now()));
    d.add(testing::counter_total("aurora_backend_polls_total") - polls0);
    EXPECT_EQ(d.value(), 11433948634999951645ULL)
        << "final clock " << plat.sim().now();
}

TEST(ParkedWaits, WaitAllOnFourVedmaTargetsResumesRarely) {
    // Four vedma targets, one 200 us task: wait_all() polls the task's
    // target (and nothing else) every pass. An executor alone on its VH
    // resumes without a context switch, so count resumptions.
    std::uint64_t count = 0;
    std::uint64_t resumed = 0;
    aurora::sim::platform plat(aurora::sim::platform_config::a300_8());
    ASSERT_EQ(off::run(plat, vedma_targets(4), [&] {
        executor ex;
        const auto& st = plat.sim().stats();
        const std::uint64_t r0 = st.resumptions;
        ex.submit(ham::f2f<&spin>(200'000, &count), task_options{.affinity = 2});
        ex.wait_all();
        resumed = st.resumptions - r0;
    }), 0);
    EXPECT_EQ(count, 1u);
    // Measured: 21 resumptions; 1,046 when every 400 ns pass resumed it.
    EXPECT_LE(resumed, 40u);
}

} // namespace
} // namespace aurora::sched
