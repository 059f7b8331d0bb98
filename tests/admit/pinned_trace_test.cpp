// Pinned virtual trace of an admission mix no benchmark workload runs:
// occupancy and session-bound sheds, queued requests whose deadlines pass
// while the dispatch window is full, and a breaker that trips on a failing
// tenant, cools down and closes again through its probe. The digest covers
// every executor task's (id, state, executed_on, done_time_ns, done_seq),
// every request's outcome, the server statistics and the final clock; its
// value was recorded on the commit before admit's waits were parked, so any
// change to how the server waits that moves a virtual result fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "tests/admit/admit_test_common.hpp"
#include "tests/support/trace_digest.hpp"

namespace aurora::admit {
namespace {

std::uint64_t outcome(request& r) {
    try {
        r.get();
        return 0;
    } catch (const ham::offload::deadline_exceeded_error&) {
        return 1;
    } catch (const ham::offload::admission_error&) {
        return 2;
    } catch (const ham::offload::offload_error&) {
        return 3;
    }
}

TEST(PinnedTrace, AdmitShedsExpiresAndTripsABreaker) {
    testing::trace_digest d;
    std::uint64_t count = 0;
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(60'000'000'000);
    ASSERT_EQ(ham::offload::run(plat, sched::loopback_targets(2), [&] {
        server::config cfg = small_cfg(12, 2);
        cfg.breaker.failure_threshold = 3;
        cfg.breaker.probe_successes = 1;
        cfg.breaker.cooldown_ns = 150'000;
        server srv(cfg);
        session_options lat;
        lat.tenant = "latency";
        lat.cls = qos_class::latency;
        lat.default_deadline_ns = 90'000;
        session_options bg;
        bg.tenant = "background";
        bg.cls = qos_class::background;
        bg.max_queued = 3;
        session_options bad;
        bad.tenant = "flaky";
        bad.cls = qos_class::batch;
        const session_id s_lat = srv.open(lat);
        const session_id s_bg = srv.open(bg);
        const session_id s_bad = srv.open(bad);
        request_options pin1;
        pin1.affinity = 1;

        std::vector<request> reqs;
        std::uint64_t shed = 0;
        for (int round = 0; round < 6; ++round) {
            for (int i = 0; i < 4; ++i) {
                try {
                    reqs.push_back(srv.submit(
                        s_lat, ham::f2f<&tk::cost_kernel>(25'000 + i * 10'000,
                                                          &count)));
                } catch (const ham::offload::admission_error&) {
                    ++shed;
                }
                try {
                    reqs.push_back(srv.submit(
                        s_bg, ham::f2f<&tk::cost_kernel>(40'000, &count)));
                } catch (const ham::offload::admission_error&) {
                    ++shed;
                }
            }
            try {
                reqs.push_back(srv.submit(s_bad, ham::f2f<&tk::boom>(), pin1));
            } catch (const ham::offload::admission_error&) {
                ++shed;
            }
            reqs.back().wait();
            aurora::sim::advance(20'000);
        }
        for (request& r : reqs) {
            d.add(outcome(r));
        }
        srv.drain();
        EXPECT_GT(shed, 0u);
        EXPECT_GT(srv.stats().expired, 0u);
        EXPECT_GT(srv.stats().failed, 0u);
        d.add(shed);
        d.add(srv.stats().admitted);
        d.add(srv.stats().shed);
        d.add(srv.stats().expired);
        d.add(srv.stats().completed);
        d.add(srv.stats().failed);
        d.add(static_cast<std::uint64_t>(srv.breaker_of(1)));
        d.add_tasks(srv.scheduler());
        d.add(static_cast<std::uint64_t>(aurora::sim::now()));
    }), 0);
    d.add(static_cast<std::uint64_t>(plat.sim().now()));
    d.add(count);
    EXPECT_EQ(d.value(), 9675945774312953474ULL)
        << "final clock " << plat.sim().now();
}

TEST(ParkedWaits, RequestWaitResumesRarely) {
    // request::wait() on one 100 us request pumps the server every pass:
    // its executor polls the request's target until the result lands.
    std::uint64_t count = 0;
    std::uint64_t resumed = 0;
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    ASSERT_EQ(ham::offload::run(plat, sched::loopback_targets(2), [&] {
        server srv(small_cfg(8, 2));
        const session_id sid = srv.open();
        const auto& st = plat.sim().stats();
        const std::uint64_t r0 = st.resumptions;
        request r = srv.submit(sid, ham::f2f<&tk::cost_kernel>(100'000, &count));
        r.wait();
        resumed = st.resumptions - r0;
    }), 0);
    EXPECT_EQ(count, 1u);
    // Measured: 10 resumptions; 348 when every 300 ns pass resumed it.
    EXPECT_LE(resumed, 20u);
}

} // namespace
} // namespace aurora::admit
