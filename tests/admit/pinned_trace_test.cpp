// Pinned virtual trace of an admission mix no benchmark workload runs:
// occupancy and session-bound sheds, queued requests whose deadlines pass
// while the dispatch window is full, and a breaker that trips on a failing
// tenant, cools down and closes again through its probe. The digest covers
// every executor task's (id, state, executed_on, done_time_ns, done_seq),
// every request's outcome, the server statistics and the final clock; its
// value was recorded on the commit before admit's waits were parked, so any
// change to how the server waits that moves a virtual result fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <string>
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

/// The admission gate that refused a submit, from its text; -1 if none.
int gate_of(const std::string& what) {
    static const std::array<const char*, 7> keys = {
        "is closed",
        "quota exhausted",
        "queue full",
        "background shed threshold",
        "batch shed threshold",
        "backlog full",
        "circuit breaker open",
    };
    for (std::size_t g = 0; g < keys.size(); ++g) {
        if (what.find(keys[g]) != std::string::npos) {
            return static_cast<int>(g);
        }
    }
    return -1;
}

// Pinned virtual trace of session churn around queued deadlines. Six phases,
// one per order in which the three earliest queued deadlines leave their
// queues: by dispatch, by their session's close and by expiry. A fourth
// deadline, later than those three, must still fire on time after them.
// Meanwhile twelve sessions open, queue a request and close around every
// event, and every kind of refusal happens: a closed session, a quota, a
// session's queue bound, occupancy for each class, an open breaker and a
// half-open one whose probe is out. The digest takes the server statistics,
// the backlog and the clock after every event, every refusal's text and
// hint, every request's outcome, every session's statistics, every executor
// task and the final clock. Its value was recorded on the commit before
// admission decided refusals without throwing, stored its sessions by id and
// skipped the deadline sweep before the earliest queued deadline.
TEST(PinnedTrace, AdmitChurnAroundQueuedDeadlines) {
    testing::trace_digest d;
    std::uint64_t count = 0;
    std::array<std::uint64_t, 7> refusals{};
    std::vector<std::uint64_t> outcomes;
    // Per phase: the request indices of the three markers and the later one.
    std::vector<std::array<int, 4>> markers;
    std::size_t num_sessions = 0;
    enum leave : std::uint8_t { by_dispatch, by_close, by_expiry };
    const std::array<std::array<leave, 3>, 6> orders = {{
        {by_dispatch, by_close, by_expiry},
        {by_dispatch, by_expiry, by_close},
        {by_close, by_dispatch, by_expiry},
        {by_close, by_expiry, by_dispatch},
        {by_expiry, by_dispatch, by_close},
        {by_expiry, by_close, by_dispatch},
    }};
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    plat.sim().set_virtual_deadline(60'000'000'000);
    ASSERT_EQ(ham::offload::run(plat, sched::loopback_targets(2), [&] {
        server::config cfg = small_cfg(40, 1);
        cfg.breaker.failure_threshold = 2;
        cfg.breaker.probe_successes = 1;
        cfg.breaker.cooldown_ns = 100'000;
        server srv(cfg);
        std::vector<session_id> sessions;
        std::vector<request> reqs;
        auto open = [&](const session_options& o) {
            sessions.push_back(srv.open(o));
            return sessions.back();
        };
        // The index of the admitted request in reqs, or -1 when refused.
        auto submit = [&](session_id sid, auto f, request_options ro = {}) {
            try {
                reqs.push_back(srv.submit(sid, f, ro));
                return static_cast<int>(reqs.size()) - 1;
            } catch (const ham::offload::admission_error& e) {
                const std::string what = e.what();
                const int g = gate_of(what);
                EXPECT_GE(g, 0) << what;
                if (g >= 0) {
                    ++refusals[static_cast<std::size_t>(g)];
                }
                for (const char c : what) {
                    d.add(static_cast<unsigned char>(c));
                }
                d.add(static_cast<std::uint64_t>(e.retry_after_ns()));
                return -1;
            }
        };
        auto work = [&](std::int64_t ns) {
            return ham::f2f<&tk::cost_kernel>(ns, &count);
        };
        auto checkpoint = [&] {
            const server::statistics& st = srv.stats();
            for (const std::uint64_t v :
                 {st.admitted, st.shed, st.expired, st.completed, st.failed,
                  static_cast<std::uint64_t>(srv.backlog()),
                  static_cast<std::uint64_t>(aurora::sim::now())}) {
                d.add(v);
            }
        };
        auto until = [&](aurora::sim::time_ns t) {
            ASSERT_LT(aurora::sim::now(), t);
            aurora::sim::advance(t - aurora::sim::now());
        };

        // Trip node 1's breaker; an open breaker refuses.
        const session_id flaky =
            open({.tenant = "flaky", .cls = qos_class::batch});
        request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        for (int i = 0; i < 2; ++i) {
            const int k = submit(flaky, ham::f2f<&tk::boom>(), pin1);
            ASSERT_GE(k, 0);
            reqs[static_cast<std::size_t>(k)].wait();
        }
        EXPECT_EQ(srv.breaker_of(1), breaker_state::open);
        EXPECT_LT(submit(flaky, work(1'000), pin1), 0);
        checkpoint();

        const session_id quota =
            open({.tenant = "quota", .cls = qos_class::batch, .quota = 3});
        const session_id bounded = open(
            {.tenant = "bounded", .cls = qos_class::background, .max_queued = 2});
        std::deque<session_id> churn;
        std::uint64_t churned = 0;
        bool probed = false;
        // Twelve sessions open and queue one request each, with no deadline,
        // a per-request one or a session default, all later than the
        // markers'. At most four stay open; the rest close with their
        // request queued, and a closed one refuses.
        auto churn_group = [&](aurora::sim::time_ns t0) {
            session_id closed = invalid_session;
            for (int i = 0; i < 12; ++i, ++churned) {
                session_options o;
                o.tenant = "churn";
                o.cls = churned % 2 == 0 ? qos_class::batch
                                         : qos_class::background;
                if (churned % 3 == 2) {
                    o.default_deadline_ns = 500'000;
                }
                const session_id sid = open(o);
                churn.push_back(sid);
                request_options ro;
                if (churned % 3 == 1) {
                    ro.deadline_ns = t0 + 400'000 + 1'000 * i;
                }
                (void)submit(sid, work(5'000), ro);
                while (churn.size() > 4) {
                    closed = churn.front();
                    srv.close(closed);
                    churn.pop_front();
                }
            }
            EXPECT_LT(submit(closed, work(5'000)), 0);
        };

        for (const auto& order : orders) {
            const aurora::sim::time_ns t0 = aurora::sim::now();
            // Marker k's deadline; its event comes 10 us before it (dispatch,
            // close) or 5 us after it (expiry).
            auto deadline = [&](int k) { return t0 + 60'000 + 40'000 * k; };
            const int dslot = static_cast<int>(
                std::find(order.begin(), order.end(), by_dispatch) -
                order.begin());
            // The window holds one request: this one until just before the
            // dispatch marker's event.
            const int hold =
                submit(open({.tenant = "hold", .cls = qos_class::latency}),
                       work(35'000 + 40'000 * dslot));
            ASSERT_GE(hold, 0);
            (void)srv.poll(); // sends it to its target
            std::array<int, 4> m{};
            std::array<session_id, 3> marker_sid{};
            for (int k = 0; k < 3; ++k) {
                request_options ro;
                session_id sid = invalid_session;
                switch (order[static_cast<std::size_t>(k)]) {
                    case by_dispatch: // first in class order once room frees
                        sid = open({.tenant = "marker", .cls = qos_class::latency});
                        ro.deadline_ns = deadline(k);
                        m[static_cast<std::size_t>(k)] =
                            submit(sid, work(400'000), ro);
                        break;
                    case by_close:
                        sid = open({.tenant = "marker", .cls = qos_class::batch});
                        ro.deadline_ns = deadline(k);
                        m[static_cast<std::size_t>(k)] =
                            submit(sid, work(5'000), ro);
                        break;
                    case by_expiry: // a session default deadline
                        sid = open({.tenant = "marker",
                                    .cls = qos_class::batch,
                                    .default_deadline_ns =
                                        deadline(k) - aurora::sim::now()});
                        m[static_cast<std::size_t>(k)] = submit(sid, work(5'000));
                        break;
                }
                marker_sid[static_cast<std::size_t>(k)] = sid;
            }
            // The later deadline: a per-request one over a session default.
            {
                const session_id sid = open({.tenant = "marker",
                                             .cls = qos_class::background,
                                             .default_deadline_ns = 1'000'000});
                request_options ro;
                ro.deadline_ns = t0 + 180'000;
                m[3] = submit(sid, work(5'000), ro);
            }
            markers.push_back(m);

            (void)submit(quota, work(5'000)); // the fourth phase's refuses
            for (int i = 0; i < 3; ++i) {
                (void)submit(bounded, work(5'000)); // the third refuses
            }
            churn_group(t0);
            checkpoint();

            for (int k = 0; k < 3; ++k) {
                switch (order[static_cast<std::size_t>(k)]) {
                    case by_dispatch:
                        until(deadline(k) - 10'000);
                        reqs[static_cast<std::size_t>(hold)].wait();
                        (void)srv.poll();
                        break;
                    case by_close:
                        until(deadline(k) - 10'000);
                        (void)srv.poll();
                        srv.close(marker_sid[static_cast<std::size_t>(k)]);
                        break;
                    case by_expiry:
                        until(deadline(k) + 5'000);
                        (void)srv.poll();
                        break;
                }
                checkpoint();
                if (!probed && srv.breaker_of(1) == breaker_state::half_open) {
                    // The cooldown ended while the window held the dispatch
                    // marker: the probe queues, and while it is out node 1
                    // refuses.
                    EXPECT_GE(submit(flaky, work(5'000), pin1), 0);
                    EXPECT_LT(submit(flaky, work(5'000), pin1), 0);
                    probed = true;
                }
                churn_group(t0);
            }
            until(t0 + 180'000); // a poll exactly at the later deadline
            (void)srv.poll();
            checkpoint();
            while (!churn.empty()) {
                srv.close(churn.front());
                churn.pop_front();
            }
            srv.drain();
            checkpoint();
        }
        EXPECT_TRUE(probed);

        // Occupancy: each class fills the backlog up to its threshold.
        (void)submit(open({.tenant = "hold", .cls = qos_class::latency}),
                     work(300'000));
        for (const qos_class cls :
             {qos_class::background, qos_class::batch, qos_class::latency}) {
            const session_id sid = open({.tenant = "flood",
                                         .cls = cls,
                                         .max_queued = 64,
                                         .default_deadline_ns = 100'000});
            for (int i = 0; i < 64; ++i) {
                request_options ro;
                if (i % 2 == 1) {
                    ro.deadline_ns = aurora::sim::now() + 50'000 + 1'000 * i;
                }
                if (submit(sid, work(2'000), ro) < 0) {
                    break;
                }
            }
        }
        checkpoint();
        srv.drain();
        checkpoint();

        for (request& r : reqs) {
            outcomes.push_back(outcome(r));
            d.add(outcomes.back());
        }
        for (const session_id sid : sessions) {
            const session_stats st = srv.stats(sid);
            for (const std::uint64_t v :
                 {st.admitted, st.shed, st.expired, st.completed, st.failed,
                  static_cast<std::uint64_t>(st.queued),
                  static_cast<std::uint64_t>(st.open)}) {
                d.add(v);
            }
        }
        num_sessions = sessions.size();
        checkpoint();
        d.add(static_cast<std::uint64_t>(srv.breaker_of(1)));
        d.add(static_cast<std::uint64_t>(srv.breaker_of(2)));
        d.add_tasks(srv.scheduler());
    }), 0);
    d.add(static_cast<std::uint64_t>(plat.sim().now()));
    d.add(count);
    for (const std::uint64_t n : refusals) {
        EXPECT_GT(n, 0u); // every gate refused at least once
        d.add(n);
    }
    // Each phase ran as laid out: the dispatch marker ran, the close marker
    // was shed, the expiry marker and the later deadline expired.
    ASSERT_EQ(markers.size(), orders.size());
    for (std::size_t p = 0; p < orders.size(); ++p) {
        for (std::size_t k = 0; k < 3; ++k) {
            const std::size_t i =
                static_cast<std::size_t>(markers[p][k]);
            ASSERT_LT(i, outcomes.size());
            const std::uint64_t want =
                orders[p][k] == by_dispatch ? 0 : orders[p][k] == by_close ? 2 : 1;
            EXPECT_EQ(outcomes[i], want) << "phase " << p << " slot " << k;
        }
        EXPECT_EQ(outcomes[static_cast<std::size_t>(markers[p][3])], 1u)
            << "phase " << p;
    }
    EXPECT_GT(num_sessions, 300u);
    EXPECT_EQ(d.value(), 8962964769287802960ULL)
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
