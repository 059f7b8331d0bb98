// aurora::net cluster tier:
//   * VH -> VH -> VE echo round trips on every calibrated link profile,
//   * remote memory (allocate/put/get/free) and buffer_ptr identity across
//     nodes (global ids),
//   * two-level scheduling with deterministic remote work stealing,
//   * remote-node VE kill -> heal with exactly-once execution and no
//     cross-tenant stall,
//   * terminal remote failure settles futures with target_failed_error,
//   * the one scheduler on the cluster tier: failover after a remote VE
//     dies, cross-VH dependencies, deadlines and shedding, and a
//     single-VH schedule identical to a plain sched::executor's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "net/net.hpp"
#include "offload/offload.hpp"
#include "sim/platform.hpp"

namespace aurora::net {
namespace {

namespace fault = aurora::fault;
using ham::offload::backend_kind;
using ham::offload::buffer_ptr;
using ham::offload::run;
using ham::offload::runtime_options;
using ham::offload::target_failed_error;
using ham::offload::target_health;

int add(int a, int b) { return a + b; }

std::int64_t sum_cells(buffer_ptr<std::int64_t> data, std::uint64_t n) {
    std::int64_t total = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        total += data[i];
    }
    return total;
}

void inc_cell(buffer_ptr<std::int64_t> cell) {
    cell[0] = cell[0] + 1;
}

int which_node() {
    return static_cast<int>(ham::offload::target_context::current()->node());
}

void spin(std::int64_t ns) { sim::advance(ns); }

runtime_options origin_options(int ves = 2) {
    runtime_options opt;
    opt.backend = backend_kind::loopback;
    opt.targets.assign(static_cast<std::size_t>(ves), 0);
    return opt;
}

class Cluster : public ::testing::Test {
protected:
    void TearDown() override { fault::injector::instance().reset(); }
};

class ClusterLinks : public ::testing::TestWithParam<const char*> {
protected:
    void TearDown() override { fault::injector::instance().reset(); }
};

/// offload::run with the platform handle exposed (cluster needs it).
void run_cluster(const runtime_options& opt, cluster_options copt,
                 const std::function<void(cluster&)>& body,
                 sim::time_ns deadline_ns = 120'000'000'000) {
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(deadline_ns);
    ASSERT_EQ(run(plat, opt, [&] {
        cluster c(plat, copt);
        body(c);
    }), 0);
}

TEST_P(ClusterLinks, EchoOnEveryNodeAndVe) {
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    copt.link = link_profile::by_name(GetParam());
    run_cluster(origin_options(2), copt, [&](cluster& c) {
        for (int vh = 0; vh < c.nodes(); ++vh) {
            for (int ve = 1; ve <= c.ves_per_node(); ++ve) {
                auto f = c.async(vh, ve, ham::f2f<&add>(10 * vh, ve));
                EXPECT_EQ(f.get(), 10 * vh + ve)
                    << "vh " << vh << " ve " << ve;
            }
        }
    });
}

TEST_P(ClusterLinks, RemoteVeSeesItsGlobalIdentity) {
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    copt.link = link_profile::by_name(GetParam());
    run_cluster(origin_options(2), copt, [&](cluster& c) {
        // VH k's VE i executes under the cluster-unique id k*V + i — the
        // node a buffer_ptr must carry to dereference there.
        for (int vh = 0; vh < c.nodes(); ++vh) {
            for (int ve = 1; ve <= c.ves_per_node(); ++ve) {
                EXPECT_EQ(c.async(vh, ve, ham::f2f<&which_node>()).get(),
                          c.global_id(vh, ve));
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Profiles, ClusterLinks,
                         ::testing::Values("ib-hdr", "roce", "ethernet-tcp"),
                         [](const auto& param_info) {
                             std::string n = param_info.param;
                             for (auto& ch : n) {
                                 if (ch == '-') {
                                     ch = '_';
                                 }
                             }
                             return n;
                         });

TEST_F(Cluster, RemoteMemoryRoundTrip) {
    cluster_options copt;
    copt.nodes = 2;
    copt.ves_per_node = 2;
    run_cluster(origin_options(1), copt, [&](cluster& c) {
        constexpr std::uint64_t n = 1024;
        auto buf = c.allocate<std::int64_t>(1, 1, n);
        EXPECT_EQ(buf.node(), c.global_id(1, 1));
        std::vector<std::int64_t> host(n);
        std::int64_t expect = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            host[i] = static_cast<std::int64_t>(3 * i + 1);
            expect += host[i];
        }
        c.put(host.data(), 1, buf, n);
        // The offloaded sum reads the buffer on the remote VE itself.
        EXPECT_EQ(c.async(1, 1, ham::f2f<&sum_cells>(buf, n)).get(), expect);
        std::vector<std::int64_t> back(n, 0);
        c.get(1, buf, back.data(), n);
        EXPECT_EQ(back, host);
        c.free(1, buf);
    });
}

TEST_F(Cluster, FourByFourSkewedMixWithRemoteStealing) {
    // The acceptance-criteria shape: 4 nodes x 4 VEs, a skewed task mix
    // piled onto node 1, remote stealing spreads it across the cluster.
    cluster_options copt;
    copt.nodes = 4;
    copt.ves_per_node = 4;
    run_cluster(origin_options(4), copt, [&](cluster& c) {
        cluster_executor_config cfg;
        cfg.policy = sched::placement_policy::work_stealing;
        cfg.scope = sched::steal_scope::local_then_remote;
        cfg.window = 2;
        cfg.remote_steal_threshold = 2;
        cluster_executor ex(c, cfg);
        for (int i = 0; i < 96; ++i) {
            ex.submit(ham::f2f<&add>(i, 1), /*affinity_vh=*/1);
        }
        ex.wait_all();
        const auto& st = ex.stats();
        EXPECT_EQ(st.completed, 96u);
        EXPECT_EQ(st.failed, 0u);
        EXPECT_GT(st.steals_remote, 0u);
        std::uint64_t off_node1 = 0;
        for (std::size_t e = 0; e < ex.num_engines(); ++e) {
            off_node1 += st.per_engine[e];
        }
        EXPECT_EQ(off_node1, 96u);
    }, 600'000'000'000);
}

TEST_F(Cluster, LocalOnlyScopeNeverCrossesALink) {
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    run_cluster(origin_options(2), copt, [&](cluster& c) {
        cluster_executor_config cfg;
        cfg.scope = sched::steal_scope::local_only;
        cfg.window = 2;
        cluster_executor ex(c, cfg);
        for (int i = 0; i < 24; ++i) {
            ex.submit(ham::f2f<&add>(i, 0), /*affinity_vh=*/1);
        }
        ex.wait_all();
        EXPECT_EQ(ex.stats().completed, 24u);
        EXPECT_EQ(ex.stats().steals_remote, 0u);
        // Every completion happened on node 1's engines.
        for (std::size_t e = 0; e < ex.num_engines(); ++e) {
            if (e != ex.engine_index(1, 1) && e != ex.engine_index(1, 2)) {
                EXPECT_EQ(ex.stats().per_engine[e], 0u) << "engine " << e;
            }
        }
    }, 600'000'000'000);
}

std::vector<std::uint64_t> steal_fingerprint() {
    std::vector<std::uint64_t> order;
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(600'000'000'000);
    EXPECT_EQ(run(plat, origin_options(2), [&] {
        cluster c(plat, copt);
        cluster_executor_config cfg;
        cfg.scope = sched::steal_scope::local_then_remote;
        cfg.window = 2;
        cfg.remote_steal_threshold = 2;
        cluster_executor ex(c, cfg);
        for (int i = 0; i < 48; ++i) {
            ex.submit(ham::f2f<&add>(i, i), /*affinity_vh=*/1);
        }
        ex.wait_all();
        order = ex.completion_order();
    }), 0);
    return order;
}

TEST_F(Cluster, RemoteWorkStealingIsDeterministic) {
    const std::vector<std::uint64_t> a = steal_fingerprint();
    const std::vector<std::uint64_t> b = steal_fingerprint();
    ASSERT_EQ(a.size(), 48u);
    EXPECT_EQ(a, b) << "completion order must not vary across identical runs";
}

TEST_F(Cluster, RemoteVeKillHealsExactlyOnceWithoutCrossTenantStall) {
    cluster_options copt;
    copt.nodes = 2;
    copt.ves_per_node = 2;
    copt.remote.reply_timeout_ns = 100'000;
    copt.remote.max_retries = 2;
    copt.remote.recovery.enabled = true;
    copt.remote.recovery.backoff_ns = 50'000;
    copt.remote.recovery_streak = 4;
    // Kill VH1's VE1 — global id 1*2+1 = 3 — after two routed messages.
    fault::injector::instance().kill_after_messages(3, 2);
    run_cluster(origin_options(1), copt, [&](cluster& c) {
        auto cell = c.allocate<std::int64_t>(1, 1, 1);
        const std::int64_t zero = 0;
        c.put(&zero, 1, cell, 1);
        std::vector<ham::offload::future<void>> futs;
        futs.reserve(12);
        for (int i = 0; i < 12; ++i) {
            futs.push_back(c.async(1, 1, ham::f2f<&inc_cell>(cell)));
        }
        // The sibling tenant (1,2) keeps serving while (1,1) recovers.
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(c.async(1, 2, ham::f2f<&add>(i, 7)).get(), i + 7);
        }
        for (auto& f : futs) {
            f.get();
        }
        // Exactly-once: the replay replays only never-executed messages.
        std::int64_t count = -1;
        c.get(1, cell, &count, 1);
        EXPECT_EQ(count, 12);
        EXPECT_EQ(c.engine_health(1, 1), target_health::healthy);
        EXPECT_EQ(c.observed_epoch(1, 1), 1u); // respawned incarnation
        EXPECT_EQ(c.observed_epoch(1, 2), 0u); // sibling untouched
        c.free(1, cell);
    }, 600'000'000'000);
    EXPECT_EQ(fault::injector::instance().stats().kills, 1u);
    EXPECT_EQ(fault::injector::instance().stats().revivals, 1u);
}

TEST_F(Cluster, MultiNodeKillScheduleHealsEveryNode) {
    // Two VEs on two different remote nodes die mid-run — VH1's VE1
    // (gid 3) and VH2's VE1 (gid 5). Each gateway heals its own VE
    // independently; work on every engine still completes exactly once.
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    copt.remote.reply_timeout_ns = 100'000;
    copt.remote.max_retries = 2;
    copt.remote.recovery.enabled = true;
    copt.remote.recovery.backoff_ns = 50'000;
    copt.remote.recovery_streak = 4;
    fault::injector::instance().kill_after_messages(3, 2);
    fault::injector::instance().kill_after_messages(5, 3);
    run_cluster(origin_options(1), copt, [&](cluster& c) {
        auto cell1 = c.allocate<std::int64_t>(1, 1, 1);
        auto cell2 = c.allocate<std::int64_t>(2, 1, 1);
        const std::int64_t zero = 0;
        c.put(&zero, 1, cell1, 1);
        c.put(&zero, 2, cell2, 1);
        std::vector<ham::offload::future<void>> futs;
        for (int i = 0; i < 10; ++i) {
            futs.push_back(c.async(1, 1, ham::f2f<&inc_cell>(cell1)));
            futs.push_back(c.async(2, 1, ham::f2f<&inc_cell>(cell2)));
        }
        // The untouched VEs on both nodes keep serving throughout.
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(c.async(1, 2, ham::f2f<&add>(i, 1)).get(), i + 1);
            EXPECT_EQ(c.async(2, 2, ham::f2f<&add>(i, 2)).get(), i + 2);
        }
        for (auto& f : futs) {
            f.get();
        }
        std::int64_t count1 = -1, count2 = -1;
        c.get(1, cell1, &count1, 1);
        c.get(2, cell2, &count2, 1);
        EXPECT_EQ(count1, 10);
        EXPECT_EQ(count2, 10);
        EXPECT_EQ(c.engine_health(1, 1), target_health::healthy);
        EXPECT_EQ(c.engine_health(2, 1), target_health::healthy);
        EXPECT_EQ(c.observed_epoch(1, 1), 1u);
        EXPECT_EQ(c.observed_epoch(2, 1), 1u);
        c.free(1, cell1);
        c.free(2, cell2);
    }, 600'000'000'000);
    EXPECT_EQ(fault::injector::instance().stats().kills, 2u);
    EXPECT_EQ(fault::injector::instance().stats().revivals, 2u);
}

TEST_F(Cluster, TerminalRemoteFailureSettlesFutures) {
    cluster_options copt;
    copt.nodes = 2;
    copt.ves_per_node = 2;
    copt.remote.reply_timeout_ns = 100'000;
    copt.remote.max_retries = 1;
    // recovery disabled: the death is terminal.
    fault::injector::instance().kill_after_messages(3, 1);
    run_cluster(origin_options(1), copt, [&](cluster& c) {
        auto f1 = c.async(1, 1, ham::f2f<&add>(1, 1));
        auto f2 = c.async(1, 1, ham::f2f<&add>(2, 2));
        EXPECT_THROW(
            {
                f1.get();
                f2.get();
            },
            target_failed_error);
        // The node degrades but its healthy VE keeps working.
        EXPECT_EQ(c.engine_health(1, 1), target_health::failed);
        EXPECT_EQ(c.async(1, 2, ham::f2f<&add>(20, 3)).get(), 23);
        EXPECT_EQ(c.status(1).health, target_health::degraded);
        EXPECT_EQ(c.status(1).ves_failed, 1);
    }, 600'000'000'000);
}

TEST_F(Cluster, NodeStatusRollup) {
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    run_cluster(origin_options(2), copt, [&](cluster& c) {
        for (int vh = 0; vh < 3; ++vh) {
            const node_status s = c.status(vh);
            EXPECT_EQ(s.health, target_health::healthy) << "vh " << vh;
            EXPECT_EQ(s.ves_total, 2);
            EXPECT_EQ(s.ves_healthy, 2);
        }
        EXPECT_EQ(c.outstanding(1), 0u);
    });
}

TEST_F(Cluster, TerminalRemoteVeDeathFailsOverUnderTheExecutor) {
    // VH 1's VE 1 (global id 3) dies for good while holding queued and
    // in-flight work. Unpinned tasks finish on VH 1's surviving VE — the
    // failover prefers the dead engine's own VH, and local_only scope keeps
    // steals from moving them anywhere else — while pinned ones fail with
    // the lost engine named in error_of().
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    copt.remote.reply_timeout_ns = 100'000;
    copt.remote.max_retries = 1;
    fault::injector::instance().kill_after_messages(3, 2);
    run_cluster(origin_options(2), copt, [&](cluster& c) {
        cluster_executor_config cfg;
        cfg.scope = sched::steal_scope::local_only;
        cfg.fail_fast = false;
        cluster_executor ex(c, cfg);
        std::vector<cluster_executor::task_id> unpinned, pinned;
        for (int i = 0; i < 12; ++i) {
            unpinned.push_back(ex.submit(ham::f2f<&spin>(20'000), 1, 1));
        }
        for (int i = 0; i < 4; ++i) {
            pinned.push_back(
                ex.submit(ham::f2f<&spin>(20'000), 1, 1, /*pinned=*/true));
        }
        ex.wait_all();
        EXPECT_EQ(c.engine_health(1, 1), target_health::failed);

        sched::executor& s = ex.executor();
        std::uint64_t on_sibling = 0;
        for (const auto id : unpinned) {
            const auto tid = static_cast<sched::task_id>(id);
            ASSERT_EQ(s.state_of(tid), sched::task_state::done) << id;
            const sched::node_t on = s.record_of(tid).executed_on;
            EXPECT_TRUE(on == c.global_id(1, 1) || on == c.global_id(1, 2))
                << "task " << id << " left VH 1 for engine " << on;
            on_sibling += on == c.global_id(1, 2) ? 1U : 0U;
        }
        EXPECT_GT(on_sibling, 0u);
        for (const auto id : pinned) {
            const auto tid = static_cast<sched::task_id>(id);
            EXPECT_EQ(s.state_of(tid), sched::task_state::failed) << id;
            EXPECT_NE(s.error_of(tid).find("lost its target 3"),
                      std::string::npos)
                << s.error_of(tid);
        }
        EXPECT_EQ(ex.stats().failed, pinned.size());
        EXPECT_GT(ex.stats().reroutes, 0u);

        const std::vector<cluster_executor::task_id>& order =
            ex.completion_order();
        EXPECT_EQ(order.size(), unpinned.size() + pinned.size());
        const std::set<cluster_executor::task_id> ids(order.begin(),
                                                      order.end());
        EXPECT_EQ(ids.size(), order.size()) << "a task settled twice";
    }, 600'000'000'000);
}

TEST_F(Cluster, DependencyAcrossVhNodesIsHonoured) {
    cluster_options copt;
    copt.nodes = 3;
    copt.ves_per_node = 2;
    run_cluster(origin_options(2), copt, [&](cluster& c) {
        cluster_executor ex(c, {});
        sched::executor& s = ex.executor();
        // The predecessor is the slow one, so only the dependency edge can
        // hold the successor back.
        const sched::task_id a = s.submit(
            ham::f2f<&spin>(200'000),
            {.affinity = ex.affinity(1, 1), .pinned = true});
        const sched::task_id b =
            s.submit(ham::f2f<&spin>(1'000),
                     {.affinity = ex.affinity(2, 1), .pinned = true}, {a});
        ex.wait_all();
        ASSERT_EQ(s.state_of(a), sched::task_state::done);
        ASSERT_EQ(s.state_of(b), sched::task_state::done);
        EXPECT_EQ(s.record_of(a).executed_on, c.global_id(1, 1));
        EXPECT_EQ(s.record_of(b).executed_on, c.global_id(2, 1));
        EXPECT_LT(s.record_of(a).done_seq, s.record_of(b).start_seq);
    }, 600'000'000'000);
}

TEST_F(Cluster, RemoteTaskExpiresWhileQueued) {
    cluster_options copt;
    copt.nodes = 2;
    copt.ves_per_node = 2;
    run_cluster(origin_options(1), copt, [&](cluster& c) {
        cluster_executor_config cfg;
        cfg.window = 1;
        cluster_executor ex(c, cfg);
        for (int i = 0; i < 3; ++i) {
            ex.submit(ham::f2f<&spin>(100'000), 1, 1, /*pinned=*/true);
        }
        // Queued behind 300 us of pinned work with a 50 us budget.
        const sched::task_id late = ex.executor().submit(
            ham::f2f<&spin>(1'000), {.affinity = ex.affinity(1, 1),
                                     .pinned = true,
                                     .deadline_ns = sim::now() + 50'000});
        ex.wait_all();
        EXPECT_EQ(ex.executor().state_of(late), sched::task_state::expired);
        EXPECT_EQ(ex.stats().expired, 1u);
        EXPECT_EQ(ex.stats().completed, 3u);
        EXPECT_EQ(ex.completion_order().size(), 4u);
    }, 600'000'000'000);
}

TEST_F(Cluster, ShedBackpressureRejectsOnTheClusterTier) {
    cluster_options copt;
    copt.nodes = 2;
    copt.ves_per_node = 2;
    run_cluster(origin_options(1), copt, [&](cluster& c) {
        cluster_executor_config cfg;
        cfg.max_queued = 4;
        cfg.backpressure = sched::backpressure_mode::shed;
        cluster_executor ex(c, cfg);
        for (int i = 0; i < 4; ++i) {
            ex.submit(ham::f2f<&spin>(50'000), 1);
        }
        EXPECT_THROW(ex.submit(ham::f2f<&spin>(50'000), 1),
                     ham::offload::admission_error);
        ex.wait_all();
        EXPECT_EQ(ex.stats().completed, 4u);
        EXPECT_EQ(ex.executor().stats().tasks_shed, 1u);
    }, 600'000'000'000);
}

/// The differential workload: skewed costs over explicit (0, ve) affinities.
struct diff_task {
    std::int64_t cost_ns;
    int ve;
};

std::vector<diff_task> diff_tasks() {
    std::vector<diff_task> tasks;
    for (int i = 0; i < 48; ++i) {
        tasks.push_back({i % 8 == 7 ? 80'000 : 5'000, i % 3 == 0 ? 1 : 1 + i % 4});
    }
    return tasks;
}

std::vector<sched::completion_record> single_vh_trace(bool facade) {
    std::vector<sched::completion_record> trace;
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(600'000'000'000);
    EXPECT_EQ(run(plat, origin_options(4), [&] {
        if (facade) {
            cluster_options copt;
            copt.nodes = 1;
            copt.ves_per_node = 4;
            cluster c(plat, copt);
            cluster_executor ex(c, {});
            for (const diff_task& t : diff_tasks()) {
                ex.submit(ham::f2f<&spin>(t.cost_ns), 0, t.ve);
            }
            ex.wait_all();
            trace = ex.executor().trace();
            return;
        }
        // The facade serialises without charging construction time; so
        // does this side, so both schedules start from the same instant.
        // Same configuration too: the facade's default, batching off.
        ham::offload::runtime& rt = *ham::offload::runtime::current();
        sched::executor ex(cluster_executor_config{});
        for (const diff_task& t : diff_tasks()) {
            alignas(16) std::byte buf[ham::default_max_msg_size];
            const std::size_t len = ham::write_message(
                rt.host_registry(), buf,
                std::min<std::size_t>(sizeof(buf), rt.options().msg_size),
                ham::f2f<&spin>(t.cost_ns));
            ex.submit_serialized({buf, buf + len}, {.affinity = t.ve}, nullptr,
                                 0);
        }
        ex.wait_all();
        trace = ex.trace();
    }), 0);
    return trace;
}

TEST_F(Cluster, SingleVhFacadeMatchesPlainExecutor) {
    const std::vector<sched::completion_record> via_facade =
        single_vh_trace(true);
    const std::vector<sched::completion_record> plain = single_vh_trace(false);
    ASSERT_EQ(via_facade.size(), diff_tasks().size());
    ASSERT_EQ(via_facade.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(via_facade[i].id, plain[i].id) << i;
        EXPECT_EQ(via_facade[i].executed_on, plain[i].executed_on) << i;
        EXPECT_EQ(via_facade[i].start_seq, plain[i].start_seq) << i;
        EXPECT_EQ(via_facade[i].done_seq, plain[i].done_seq) << i;
        EXPECT_EQ(via_facade[i].done_time_ns, plain[i].done_time_ns) << i;
    }
}

} // namespace
} // namespace aurora::net
