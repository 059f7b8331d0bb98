// Placement policies: round robin, locality, work stealing, pinning.
#include <map>

#include <gtest/gtest.h>

#include "tests/sched/sched_test_common.hpp"

namespace aurora::sched {
namespace {

namespace sk = testkernels;

std::map<node_t, std::size_t> tasks_per_node(const executor& ex) {
    std::map<node_t, std::size_t> n;
    for (const completion_record& r : ex.trace()) {
        ++n[r.executed_on];
    }
    return n;
}

TEST(SchedPolicy, RoundRobinDealsEvenlyAndIgnoresAffinity) {
    run_sched(4, [] {
        std::vector<std::uint64_t> counters(16, 0);
        task_graph g;
        for (auto& c : counters) {
            // Everyone asks for node 2; round robin does not care.
            (void)g.add(ham::f2f<&sk::bump>(&c), {.affinity = 2});
        }
        executor ex{{.policy = placement_policy::round_robin,
                     .batching = false}};
        ex.run(g);
        const auto per_node = tasks_per_node(ex);
        ASSERT_EQ(per_node.size(), 4u);
        for (node_t n = 1; n <= 4; ++n) {
            EXPECT_EQ(per_node.at(n), 4u) << "node " << n;
        }
    });
}

TEST(SchedPolicy, LocalityHonorsAffinity) {
    run_sched(4, [] {
        std::vector<std::uint64_t> counters(16, 0);
        task_graph g;
        std::vector<node_t> want;
        for (std::size_t i = 0; i < counters.size(); ++i) {
            const auto node = node_t(1 + i % 4);
            want.push_back(node);
            (void)g.add(ham::f2f<&sk::bump>(&counters[i]), {.affinity = node});
        }
        executor ex{{.policy = placement_policy::locality}};
        ex.run(g);
        for (const completion_record& r : ex.trace()) {
            EXPECT_EQ(r.executed_on, want.at(r.id)) << "task " << r.id;
        }
        EXPECT_EQ(ex.stats().steals, 0u);
    });
}

TEST(SchedPolicy, LocalityFallsBackToRoundRobinWithoutAffinity) {
    run_sched(4, [] {
        std::vector<std::uint64_t> counters(8, 0);
        task_graph g;
        for (auto& c : counters) {
            (void)g.add(ham::f2f<&sk::bump>(&c)); // any_node
        }
        executor ex{{.policy = placement_policy::locality, .batching = false}};
        ex.run(g);
        const auto per_node = tasks_per_node(ex);
        ASSERT_EQ(per_node.size(), 4u); // all four nodes saw work
    });
}

TEST(SchedPolicy, WorkStealingRebalancesSkewedLoad) {
    run_sched(2, [] {
        std::vector<std::uint64_t> counters(24, 0);
        task_graph g;
        for (auto& c : counters) {
            // Everything homed on node 1, nothing pinned: node 2 must steal.
            (void)g.add(ham::f2f<&sk::cost_kernel>(std::int64_t{2000}, &c),
                        {.affinity = 1});
        }
        executor ex{{.policy = placement_policy::work_stealing,
                     .window = 1,
                     .max_batch = 2}};
        ex.run(g);
        EXPECT_GT(ex.stats().steals, 0u);
        const auto per_node = tasks_per_node(ex);
        EXPECT_GT(per_node.count(2) ? per_node.at(2) : 0u, 0u);
        EXPECT_GT(ex.stats().per_target.at(1).tasks_stolen_in, 0u);
        for (const std::uint64_t c : counters) {
            EXPECT_EQ(c, 1u); // stolen, not duplicated
        }
    });
}

TEST(SchedPolicy, PinnedTasksNeverMigrate) {
    run_sched(2, [] {
        std::vector<std::uint64_t> counters(24, 0);
        task_graph g;
        for (auto& c : counters) {
            (void)g.add(ham::f2f<&sk::cost_kernel>(std::int64_t{2000}, &c),
                        {.affinity = 1, .pinned = true});
        }
        executor ex{{.policy = placement_policy::work_stealing, .window = 1}};
        ex.run(g);
        EXPECT_EQ(ex.stats().steals, 0u);
        for (const completion_record& r : ex.trace()) {
            EXPECT_EQ(r.executed_on, 1);
        }
    });
}

TEST(SchedPolicy, StealsFromTheQueueWithTheMostUnpinnedTasks) {
    // Node 1 holds the deepest queue, all of it pinned; node 2 holds fewer
    // tasks, none pinned. Idle node 3 may only steal node 2's.
    run_sched(3, [] {
        std::vector<std::uint64_t> counters(30, 0);
        task_graph g;
        for (std::size_t i = 0; i < counters.size(); ++i) {
            const bool pinned = i < 20;
            (void)g.add(
                ham::f2f<&sk::cost_kernel>(std::int64_t{2000}, &counters[i]),
                {.affinity = pinned ? 1 : 2, .pinned = pinned});
        }
        executor ex{{.policy = placement_policy::work_stealing,
                     .window = 1,
                     .max_batch = 2}};
        ex.run(g);
        EXPECT_GT(ex.stats().steals, 0u);
        EXPECT_GT(ex.stats().per_target.at(2).tasks_stolen_in, 0u);
        for (const completion_record& r : ex.trace()) {
            if (r.id < 20) {
                EXPECT_EQ(r.executed_on, 1) << "task " << r.id;
            }
        }
        for (const std::uint64_t c : counters) {
            EXPECT_EQ(c, 1u);
        }
    });
}

TEST(SchedPolicy, StealingPreservesDependencies) {
    // Chains force repeated ready/steal cycles; order must still hold.
    run_sched(3, [] {
        std::vector<std::uint64_t> counters(30, 0);
        task_graph g;
        std::vector<task_id> ids;
        for (std::size_t i = 0; i < counters.size(); ++i) {
            std::vector<task_id> deps;
            if (i >= 3) {
                deps.push_back(ids[i - 3]); // three interleaved chains
            }
            ids.push_back(g.add_serialized(
                detail::serialize_task(
                    ham::f2f<&sk::cost_kernel>(std::int64_t{500}, &counters[i])),
                task_options{.affinity = 1}, deps.data(), deps.size()));
        }
        executor ex{{.policy = placement_policy::work_stealing, .window = 1}};
        ex.run(g);
        std::vector<completion_record> by_id(counters.size());
        for (const completion_record& r : ex.trace()) {
            by_id[r.id] = r;
        }
        for (std::size_t i = 3; i < counters.size(); ++i) {
            EXPECT_LT(by_id[i - 3].done_seq, by_id[i].start_seq);
        }
    });
}

} // namespace
} // namespace aurora::sched
