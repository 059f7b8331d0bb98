// aurora::heal — self-healing target lifecycle tests:
//   * a killed target recovers (respawn + replay) on every backend and the
//     interrupted work completes with correct results,
//   * cross-epoch duplicate rejection: a stale flag/packet from a previous
//     incarnation is dropped at the channel layer on every backend,
//   * recovery exhaustion degenerates to the terminal aurora::fault
//     behaviour (target_failed_error, health == failed),
//   * replayed offloads execute exactly once,
//   * drain() settles every outstanding ticket before shutdown,
//   * MTTR is recorded to the aurora_heal_mttr_ns histogram.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "offload/offload.hpp"
#include "sim/platform.hpp"

namespace ham::offload {
namespace {

namespace fault = aurora::fault;
namespace sim = aurora::sim;
namespace m = aurora::metrics;

void empty_kernel() {}
double add_one(double x) { return x + 1.0; }
void bump(std::uint64_t* counter) { ++*counter; }

runtime_options heal_options(backend_kind kind) {
    runtime_options opt;
    opt.backend = kind;
    opt.reply_timeout_ns = 100'000; // prompt death detection
    opt.max_retries = 2;
    opt.recovery.enabled = true;
    opt.recovery.backoff_ns = 50'000;
    opt.recovery_streak = 4;
    return opt;
}

void run_guarded(const runtime_options& opt, const std::function<void()>& body,
                 sim::time_ns deadline_ns = 60'000'000'000) {
    sim::platform plat(sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(deadline_ns);
    ASSERT_EQ(run(plat, opt, body), 0);
}

class Heal : public ::testing::Test {
protected:
    void TearDown() override { fault::injector::instance().reset(); }
};

class HealBackends : public ::testing::TestWithParam<backend_kind> {
protected:
    void TearDown() override { fault::injector::instance().reset(); }
};

TEST_P(HealBackends, KilledTargetRecoversAndCompletesAllWork) {
    fault::injector::instance().kill_after_messages(1, 3);
    run_guarded(heal_options(GetParam()), [] {
        // Message 3 dies un-acked; recovery respawns the target under epoch 1
        // and replays it — every sync still returns the right value.
        for (int i = 0; i < 12; ++i) {
            EXPECT_EQ(sync(1, ham::f2f<&add_one>(double(i))), double(i) + 1.0)
                << "offload " << i;
        }
        runtime& rt = *runtime::current();
        const auto rs = rt.runtime_stats(1);
        EXPECT_EQ(rs.recoveries, 1u);
        EXPECT_EQ(rs.epoch, 1u);
        EXPECT_GE(rs.replayed, 1u);
        // recovery_streak clean results promoted probation back to healthy.
        EXPECT_EQ(rt.health(1), target_health::healthy);
        EXPECT_EQ(rt.target_epoch(1), 1u);
    });
    EXPECT_EQ(fault::injector::instance().stats().kills, 1u);
    EXPECT_EQ(fault::injector::instance().stats().revivals, 1u);
}

TEST_P(HealBackends, CrossEpochDuplicateIsRejectedAtTheChannel) {
    fault::injector::instance().kill_after_messages(1, 2);
    const backend_kind kind = GetParam();
    run_guarded(heal_options(kind), [kind] {
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(sync(1, ham::f2f<&add_one>(double(i))), double(i) + 1.0);
        }
        runtime& rt = *runtime::current();
        ASSERT_EQ(rt.target_epoch(1), 1u); // the kill fired and healed

        auto& rejects = m::registry::global().counter_for(
            "aurora_heal_epoch_rejects_total",
            m::labels({{"backend", to_string(kind)}, {"node", "1"}}));
        const std::uint64_t before = rejects.value();
        // Plant a delayed retransmit from the dead incarnation (epoch 0). It
        // carries the generation the channel expects next, so only the epoch
        // check stands between it and execution.
        ASSERT_TRUE(rt.backend_for(1).inject_stale_flag(0, 0));
        sim::advance(2'000'000); // let the target poll (and reject) it
        EXPECT_EQ(rejects.value(), before + 1);

        // The stale message was never executed and the channel state is
        // intact: subsequent offloads behave normally.
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(sync(1, ham::f2f<&add_one>(41.0)), 42.0);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Backends, HealBackends,
                         ::testing::Values(backend_kind::loopback,
                                           backend_kind::tcp,
                                           backend_kind::veo,
                                           backend_kind::vedma),
                         [](const auto& param_info) {
                             return std::string(to_string(param_info.param));
                         });

TEST_F(Heal, ReplayedAsyncWorkExecutesExactlyOnce) {
    fault::injector::instance().kill_after_messages(1, 3);
    runtime_options opt = heal_options(backend_kind::loopback);
    std::vector<std::uint64_t> counts(8, 0);
    run_guarded(opt, [&] {
        std::vector<future<void>> futs;
        futs.reserve(counts.size());
        for (auto& c : counts) {
            futs.push_back(async(1, ham::f2f<&bump>(&c)));
        }
        for (auto& f : futs) {
            f.get(); // no throw: the killed incarnation's work replays
        }
        const auto rs = runtime::current()->runtime_stats(1);
        EXPECT_EQ(rs.recoveries, 1u);
        EXPECT_GE(rs.replayed, 1u);
    });
    for (std::size_t i = 0; i < counts.size(); ++i) {
        EXPECT_EQ(counts[i], 1u) << "task " << i;
    }
}

TEST_F(Heal, RecoveryExhaustionFailsTerminally) {
    auto& inj = fault::injector::instance();
    inj.kill_after_messages(1, 1);
    // Every respawn attempt fails to re-attach; the budget (max_attempts)
    // runs out and the target is fenced for good — aurora::fault semantics.
    // (Armed inside the run body so the initial attach succeeds.)
    runtime_options opt = heal_options(backend_kind::loopback);
    opt.recovery.max_attempts = 2;
    run_guarded(opt, [&inj] {
        inj.fail_next_attach(1);
        inj.fail_next_attach(1);
        auto fut = async(1, ham::f2f<&add_one>(1.0));
        EXPECT_THROW(fut.get(), target_failed_error);
        runtime& rt = *runtime::current();
        EXPECT_EQ(rt.health(1), target_health::failed);
        EXPECT_FALSE(rt.failure_reason(1).empty());
        EXPECT_THROW(sync(1, ham::f2f<&empty_kernel>()), target_failed_error);
    });
    EXPECT_EQ(fault::injector::instance().stats().attach_failures, 2u);
}

TEST_F(Heal, RecoverySurvivesOneFailedReattachAttempt) {
    auto& inj = fault::injector::instance();
    inj.kill_after_messages(1, 2);
    runtime_options opt = heal_options(backend_kind::veo);
    opt.recovery.max_attempts = 3;
    run_guarded(opt, [&inj] {
        inj.fail_next_attach(1); // first re-attach fails, second succeeds
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(sync(1, ham::f2f<&add_one>(double(i))), double(i) + 1.0);
        }
        const auto rs = runtime::current()->runtime_stats(1);
        EXPECT_EQ(rs.recoveries, 1u);
        EXPECT_EQ(rs.epoch, 1u);
    });
    EXPECT_EQ(fault::injector::instance().stats().attach_failures, 1u);
}

TEST_F(Heal, DrainSettlesOutstandingWorkBeforeShutdown) {
    fault::injector::instance().kill_after_messages(1, 2);
    run_guarded(heal_options(backend_kind::loopback), [] {
        auto f1 = async(1, ham::f2f<&add_one>(1.0));
        auto f2 = async(1, ham::f2f<&add_one>(2.0));
        runtime& rt = *runtime::current();
        rt.drain();
        // drain() drove the recovery and harvested every slot: both results
        // are buffered, the futures become ready without further waiting.
        EXPECT_TRUE(f1.test());
        EXPECT_TRUE(f2.test());
        EXPECT_EQ(f1.get(), 2.0);
        EXPECT_EQ(f2.get(), 3.0);
        EXPECT_NE(rt.health(1), target_health::recovering);
    });
}

TEST_F(Heal, MttrHistogramRecordsTheOutage) {
    const auto before = m::registry::global()
                            .histogram_for("aurora_heal_mttr_ns",
                                           m::labels({{"backend", "vedma"},
                                                      {"node", "1"}}))
                            .snap();
    fault::injector::instance().kill_after_messages(1, 2);
    run_guarded(heal_options(backend_kind::vedma), [] {
        for (int i = 0; i < 6; ++i) {
            sync(1, ham::f2f<&empty_kernel>());
        }
    });
    const auto after = m::registry::global()
                           .histogram_for("aurora_heal_mttr_ns",
                                          m::labels({{"backend", "vedma"},
                                                     {"node", "1"}}))
                           .snap();
    EXPECT_EQ(after.count, before.count + 1);
    // The outage spans at least the detection window (reply timeout x
    // retries) plus the re-attach backoff — virtual time, so a hard floor.
    EXPECT_GT(after.sum - before.sum, 50'000u);
}

} // namespace
} // namespace ham::offload
