// aurora::admit server tests: session lifecycle, quota and queue bounds,
// priority-aware occupancy shedding, strict class priority and weighted
// fair-share dispatch order, deadline propagation (queued and scheduler
// paths), failure isolation, the per-target breaker lifecycle through the
// serving path, and whole-run determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tests/admit/admit_test_common.hpp"
#include "tests/support/trace_digest.hpp"

namespace aurora::admit {
namespace {

using ham::offload::admission_error;
using ham::offload::deadline_exceeded_error;
using ham::offload::offload_error;

/// Submits a request admission must refuse and checks that the refusal left
/// no trace: the session's and the server's admitted count, the session's
/// queue and the backlog unchanged, both shed counts up by exactly one.
/// Returns the error for the caller's checks of its text and hint.
template <typename Functor>
admission_error refuse(server& srv, session_id sid, Functor f,
                       request_options ro = {}) {
    const session_stats before = srv.stats(sid);
    const server::statistics total = srv.stats();
    const std::size_t backlog = srv.backlog();
    try {
        (void)srv.submit(sid, f, ro);
    } catch (const admission_error& e) {
        const session_stats after = srv.stats(sid);
        EXPECT_EQ(after.admitted, before.admitted);
        EXPECT_EQ(after.queued, before.queued);
        EXPECT_EQ(after.shed, before.shed + 1);
        EXPECT_EQ(srv.stats().admitted, total.admitted);
        EXPECT_EQ(srv.stats().shed, total.shed + 1);
        EXPECT_EQ(srv.backlog(), backlog);
        return e;
    }
    ADD_FAILURE() << "session " << sid << " admitted a request it must refuse";
    return admission_error("admitted", -1);
}

/// The unit of the occupancy hints: one dispatch in the cost model.
std::int64_t dispatch_ns() {
    return ham::offload::runtime::current()->costs().ham_msg_dispatch_ns;
}

TEST(AdmitServer, SessionLifecycleAndCompletionCounts) {
    run_sched(2, [] {
        server srv(small_cfg(16, 8));
        session_options o;
        o.tenant = "acme";
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        EXPECT_EQ(srv.open_sessions(), 1u);

        std::uint64_t counter = 0;
        std::vector<request> reqs;
        for (int i = 0; i < 4; ++i) {
            reqs.push_back(srv.submit(sid, ham::f2f<&tk::bump>(&counter)));
        }
        srv.drain();
        EXPECT_EQ(counter, 4u);
        for (request& r : reqs) {
            EXPECT_NO_THROW(r.get());
        }
        const session_stats st = srv.stats(sid);
        EXPECT_EQ(st.admitted, 4u);
        EXPECT_EQ(st.completed, 4u);
        EXPECT_EQ(st.shed, 0u);
        EXPECT_EQ(st.queued, 0u);
        EXPECT_TRUE(st.open);
        EXPECT_EQ(srv.backlog(), 0u);

        srv.close(sid);
        EXPECT_FALSE(srv.stats(sid).open);
        EXPECT_EQ(srv.open_sessions(), 0u);
        srv.close(sid); // idempotent
        EXPECT_EQ(srv.open_sessions(), 0u);
    });
}

TEST(AdmitServer, ClosedSessionShedsSubmits) {
    run_sched(1, [] {
        server srv(small_cfg(16, 8));
        const session_id sid = srv.open();
        srv.close(sid);
        std::uint64_t counter = 0;
        const admission_error e =
            refuse(srv, sid, ham::f2f<&tk::bump>(&counter));
        EXPECT_EQ(std::string(e.what()),
                  "session " + std::to_string(sid) + " is closed");
        EXPECT_EQ(e.retry_after_ns(), 0);
        EXPECT_EQ(srv.stats(sid).shed, 1u);
        EXPECT_EQ(counter, 0u);
    });
}

TEST(AdmitServer, QuotaExhaustionSheds) {
    run_sched(1, [] {
        server srv(small_cfg(16, 8));
        session_options o;
        o.quota = 2;
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;
        (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        // The third submit exceeds the quota of 2.
        const admission_error e =
            refuse(srv, sid, ham::f2f<&tk::bump>(&counter));
        EXPECT_EQ(std::string(e.what()), "session " + std::to_string(sid) +
                                             " quota exhausted (2 requests)");
        EXPECT_EQ(e.retry_after_ns(), 0); // a quota never refills
        srv.drain();
        EXPECT_EQ(counter, 2u);
        EXPECT_EQ(srv.stats(sid).shed, 1u);
    });
}

TEST(AdmitServer, PerSessionQueueBoundSheds) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 10'000'000, &prefill_done);

        session_options o;
        o.cls = qos_class::latency;
        o.max_queued = 2;
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;
        (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        (void)srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        EXPECT_EQ(srv.stats(sid).queued, 2u);
        // The third submit overflows max_queued=2.
        const admission_error e =
            refuse(srv, sid, ham::f2f<&tk::bump>(&counter));
        EXPECT_EQ(std::string(e.what()),
                  "session " + std::to_string(sid) + " queue full (2 queued)");
        // The backlog drains: a hinted retry, one dispatch per backlog entry
        // on the one target (the prefill and two queued) plus one.
        EXPECT_EQ(e.retry_after_ns(), 4 * dispatch_ns());
        srv.drain();
        EXPECT_EQ(prefill_done, 1u);
        EXPECT_EQ(counter, 2u);
    });
}

TEST(AdmitServer, OccupancyShedsByClassPriority) {
    run_sched(1, [] {
        // capacity 8: background sheds at backlog 4 (50%), batch at 6 (75%),
        // latency only when full. Window 1 keeps admitted work queued.
        server srv(small_cfg(8, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 10'000'000, &prefill_done);

        session_options lo, bo, go;
        lo.cls = qos_class::latency;
        bo.cls = qos_class::batch;
        go.cls = qos_class::background;
        const session_id l = srv.open(lo);
        const session_id b = srv.open(bo);
        const session_id g = srv.open(go);
        std::uint64_t counter = 0;
        auto work = [&] { return ham::f2f<&tk::bump>(&counter); };

        for (int i = 0; i < 3; ++i) {
            (void)srv.submit(l, work()); // backlog 2, 3, 4
        }
        // Background at 50% sheds; the hint is one dispatch per backlog
        // entry on the one target, plus one.
        admission_error e = refuse(srv, g, work());
        EXPECT_EQ(std::string(e.what()),
                  "backlog 4/8 above the background shed threshold");
        EXPECT_EQ(e.retry_after_ns(), 5 * dispatch_ns());
        (void)srv.submit(b, work()); // backlog 5
        (void)srv.submit(b, work()); // backlog 6
        e = refuse(srv, b, work()); // batch at 75%
        EXPECT_EQ(std::string(e.what()),
                  "backlog 6/8 above the batch shed threshold");
        EXPECT_EQ(e.retry_after_ns(), 7 * dispatch_ns());
        (void)srv.submit(l, work()); // backlog 7
        (void)srv.submit(l, work()); // backlog 8: full
        e = refuse(srv, l, work()); // latency only at 100%
        EXPECT_EQ(std::string(e.what()), "backlog full (8/8)");
        EXPECT_EQ(e.retry_after_ns(), 9 * dispatch_ns());

        srv.drain();
        EXPECT_EQ(counter, 7u); // 5 latency + 2 batch bumps ran
        EXPECT_EQ(srv.stats(g).shed, 1u);
        EXPECT_EQ(srv.stats(b).shed, 1u);
        EXPECT_EQ(srv.stats(l).shed, 1u);
        EXPECT_EQ(srv.backlog(), 0u);
    });
}

TEST(AdmitServer, StrictClassPriorityDispatchOrder) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        session_options lo, bo, go;
        lo.cls = qos_class::latency;
        bo.cls = qos_class::batch;
        go.cls = qos_class::background;
        const session_id g = srv.open(go);
        const session_id b = srv.open(bo);
        const session_id l = srv.open(lo);

        // Submitted lowest class first; dispatch must invert that order.
        std::vector<int> log;
        for (int i = 0; i < 3; ++i) {
            (void)srv.submit(g, ham::f2f<&tk::record>(&log, 100 + i));
        }
        for (int i = 0; i < 3; ++i) {
            (void)srv.submit(b, ham::f2f<&tk::record>(&log, 200 + i));
        }
        for (int i = 0; i < 3; ++i) {
            (void)srv.submit(l, ham::f2f<&tk::record>(&log, 300 + i));
        }
        srv.drain();
        const std::vector<int> want = {300, 301, 302, 200, 201,
                                       202, 100, 101, 102};
        EXPECT_EQ(log, want);
    });
}

TEST(AdmitServer, WeightedFairShareHoldsUnderTricklingCapacity) {
    run_sched(1, [] {
        // Window 1: capacity frees one slot at a time, the hardest case for
        // weighted fairness — deficit round robin must still yield 3:1.
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        session_options heavy, light;
        heavy.cls = qos_class::batch;
        heavy.weight = 3;
        light.cls = qos_class::batch;
        light.weight = 1;
        const session_id a = srv.open(heavy);
        const session_id b = srv.open(light);

        std::vector<int> log;
        for (int i = 0; i < 6; ++i) {
            (void)srv.submit(a, ham::f2f<&tk::record>(&log, 1));
        }
        for (int i = 0; i < 6; ++i) {
            (void)srv.submit(b, ham::f2f<&tk::record>(&log, 2));
        }
        srv.drain();
        const std::vector<int> want = {1, 1, 1, 2, 1, 1, 1, 2, 2, 2, 2, 2};
        EXPECT_EQ(log, want);
    });
}

TEST(AdmitServer, QueuedDeadlineExpiresBeforeDispatch) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;

        request_options tight;
        tight.deadline_ns = sim::now() + 10'000; // passes while queued
        request doomed = srv.submit(sid, ham::f2f<&tk::bump>(&counter), tight);
        request fine = srv.submit(sid, ham::f2f<&tk::bump>(&counter));

        srv.drain();
        EXPECT_THROW(doomed.get(), deadline_exceeded_error);
        EXPECT_NO_THROW(fine.get());
        EXPECT_EQ(counter, 1u); // the expired request never ran
        const session_stats st = srv.stats(sid);
        EXPECT_EQ(st.expired, 1u);
        EXPECT_EQ(st.completed, 1u);
    });
}

TEST(AdmitServer, SessionDefaultDeadlineApplies) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        session_options o;
        o.cls = qos_class::latency;
        o.default_deadline_ns = 5'000; // absolute: now + 5us per request
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;
        request r = srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        srv.drain();
        EXPECT_THROW(r.get(), deadline_exceeded_error);
        EXPECT_EQ(counter, 0u);
        EXPECT_EQ(srv.stats(sid).expired, 1u);
    });
}

TEST(AdmitServer, DeadlinePropagatesIntoSchedulerQueue) {
    run_sched(1, [] {
        // Window 2 but a single-message target window: the deadline request
        // reaches the scheduler and waits in its ready queue behind a long
        // task, so the *executor's* dispatch-time cancellation must fire and
        // the server must map it back to deadline_exceeded_error.
        server::config cfg = small_cfg(64, 2);
        cfg.exec.window = 1;
        server srv(cfg);
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        std::uint64_t counter = 0;
        request_options tight;
        tight.deadline_ns = sim::now() + 10'000;
        request doomed = srv.submit(sid, ham::f2f<&tk::bump>(&counter), tight);

        srv.drain();
        EXPECT_THROW(doomed.get(), deadline_exceeded_error);
        EXPECT_EQ(counter, 0u);
        EXPECT_EQ(srv.stats(sid).expired, 1u);
        EXPECT_GT(srv.scheduler().stats().tasks_expired, 0u);
    });
}

TEST(AdmitServer, CloseShedsQueuedButInFlightCompletes) {
    run_sched(1, [] {
        server srv(small_cfg(64, 1));
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);

        const session_id sid = srv.open();
        std::uint64_t counter = 0;
        request q1 = srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        request q2 = srv.submit(sid, ham::f2f<&tk::bump>(&counter));
        ASSERT_EQ(srv.stats(sid).queued, 2u);

        srv.close(sid);
        EXPECT_EQ(srv.stats(sid).queued, 0u);
        EXPECT_EQ(srv.stats(sid).shed, 2u);
        EXPECT_TRUE(q1.settled());
        EXPECT_THROW(q1.get(), admission_error);
        EXPECT_THROW(q2.get(), admission_error);

        srv.drain(); // the in-flight prefill still runs to completion
        EXPECT_EQ(prefill_done, 1u);
        EXPECT_EQ(counter, 0u);
        EXPECT_EQ(srv.backlog(), 0u);
    });
}

TEST(AdmitServer, TenantFailureIsIsolated) {
    run_sched(2, [] {
        server srv(small_cfg(16, 8));
        const session_id bad = srv.open({.tenant = "bad"});
        const session_id good = srv.open({.tenant = "good"});
        std::uint64_t counter = 0;
        request boom = srv.submit(bad, ham::f2f<&tk::boom>());
        std::vector<request> oks;
        for (int i = 0; i < 4; ++i) {
            oks.push_back(srv.submit(good, ham::f2f<&tk::bump>(&counter)));
        }
        srv.drain();
        try {
            boom.get();
            FAIL() << "a raising kernel must surface as offload_error";
        } catch (const deadline_exceeded_error&) {
            FAIL() << "wrong error type: deadline_exceeded_error";
        } catch (const admission_error&) {
            FAIL() << "wrong error type: admission_error";
        } catch (const offload_error& e) {
            // expected: a plain execution failure carrying the root cause
            // (the executor's per-task error, not just "failed on node N")
            EXPECT_NE(std::string(e.what()).find("task exploded"),
                      std::string::npos);
        }
        for (request& r : oks) {
            EXPECT_NO_THROW(r.get());
        }
        EXPECT_EQ(counter, 4u);
        EXPECT_EQ(srv.stats(bad).failed, 1u);
        EXPECT_EQ(srv.stats(good).completed, 4u);
    });
}

TEST(AdmitServer, BreakerTripsShedsProbesAndRecloses) {
    run_sched(2, [] {
        server::config cfg = small_cfg(16, 8);
        cfg.breaker.failure_threshold = 3;
        cfg.breaker.probe_successes = 1;
        cfg.breaker.cooldown_ns = 10'000;
        server srv(cfg);
        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);

        request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        for (int i = 0; i < 3; ++i) {
            request r = srv.submit(sid, ham::f2f<&tk::boom>(), pin1);
            r.wait();
        }
        // The third failure tripped the breaker in the poll that settled it.
        const sim::time_ns tripped = sim::now();
        EXPECT_EQ(srv.breaker_of(1), breaker_state::open);

        // Open breaker: node-1 work sheds with the rest of the cooldown as
        // the hint...
        std::uint64_t counter = 0;
        admission_error e =
            refuse(srv, sid, ham::f2f<&tk::bump>(&counter), pin1);
        EXPECT_EQ(std::string(e.what()), "circuit breaker open for node 1");
        EXPECT_GT(e.retry_after_ns(), 0);
        EXPECT_EQ(e.retry_after_ns(), tripped + 10'000 - sim::now());
        // ...while node 2 serves unaffected.
        request_options pin2;
        pin2.affinity = 2;
        pin2.pinned = true;
        request ok = srv.submit(sid, ham::f2f<&tk::bump>(&counter), pin2);
        ok.wait();
        EXPECT_EQ(counter, 1u);

        // Cooldown elapses: exactly one probe passes, siblings shed.
        sim::advance(10'000);
        EXPECT_EQ(srv.breaker_of(1), breaker_state::half_open);
        request probe = srv.submit(sid, ham::f2f<&tk::bump>(&counter), pin1);
        // Half-open with the probe out: every resubmission sheds until the
        // probe settles, so the hint must not be 0 ("may retry now") or
        // clients spin. It is one dispatch.
        e = refuse(srv, sid, ham::f2f<&tk::bump>(&counter), pin1);
        EXPECT_EQ(std::string(e.what()), "circuit breaker open for node 1");
        EXPECT_EQ(e.retry_after_ns(), dispatch_ns());
        probe.get();
        EXPECT_EQ(srv.breaker_of(1), breaker_state::closed);
        EXPECT_EQ(counter, 2u);
    });
}

TEST(AdmitServer, HalfOpenBreakerTakesOnlyItsProbesVerdict) {
    run_sched(2, [] {
        server::config cfg = small_cfg(16, 8);
        cfg.breaker.failure_threshold = 3;
        cfg.breaker.probe_successes = 1;
        cfg.breaker.cooldown_ns = 10'000;
        server srv(cfg);
        session_options o;
        o.cls = qos_class::latency;
        const session_id sid = srv.open(o);
        request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        for (int i = 0; i < 3; ++i) {
            srv.submit(sid, ham::f2f<&tk::boom>(), pin1).wait();
        }
        sim::advance(10'000);
        ASSERT_EQ(srv.breaker_of(1), breaker_state::half_open);

        // Unpinned work runs on node 1 too, but no probe was admitted: its
        // successes say nothing about the probe and must not close it.
        const auto ran_on_1 = [&] {
            return srv.scheduler().stats().per_target[0].tasks_executed;
        };
        const std::uint64_t ran_before = ran_on_1();
        std::uint64_t counter = 0;
        std::vector<request> unpinned;
        for (int i = 0; i < 8; ++i) {
            unpinned.push_back(srv.submit(sid, ham::f2f<&tk::bump>(&counter)));
        }
        for (request& r : unpinned) {
            r.get();
        }
        EXPECT_GT(ran_on_1() - ran_before, 3u);
        EXPECT_EQ(srv.breaker_of(1), breaker_state::half_open);

        // The probe's own success closes it.
        request probe = srv.submit(sid, ham::f2f<&tk::bump>(&counter), pin1);
        probe.get();
        EXPECT_EQ(srv.breaker_of(1), breaker_state::closed);
        EXPECT_EQ(counter, 9u);
    });
}

TEST(AdmitServer, ClosingSessionWithQueuedProbeUnwedgesBreaker) {
    run_sched(2, [] {
        server::config cfg = small_cfg(64, 1);
        cfg.breaker.failure_threshold = 3;
        cfg.breaker.probe_successes = 1;
        cfg.breaker.cooldown_ns = 10'000;
        server srv(cfg);
        session_options o;
        o.cls = qos_class::latency;
        const session_id flaky = srv.open(o);
        request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        for (int i = 0; i < 3; ++i) {
            srv.submit(flaky, ham::f2f<&tk::boom>(), pin1).wait();
        }
        sim::advance(10'000);
        ASSERT_EQ(srv.breaker_of(1), breaker_state::half_open);

        // Fill the window so the probe stays queued, then close its session:
        // the probe slot must be released, not wedged half-open forever.
        std::uint64_t prefill_done = 0;
        request hold = occupy_window(srv, 1'000'000, &prefill_done);
        std::uint64_t counter = 0;
        request doomed_probe =
            srv.submit(flaky, ham::f2f<&tk::bump>(&counter), pin1);
        srv.close(flaky);
        EXPECT_THROW(doomed_probe.get(), admission_error);

        // A fresh session can immediately field the next probe and reclose.
        const session_id next = srv.open(o);
        request probe = srv.submit(next, ham::f2f<&tk::bump>(&counter), pin1);
        srv.drain();
        EXPECT_NO_THROW(probe.get());
        EXPECT_EQ(srv.breaker_of(1), breaker_state::closed);
        EXPECT_EQ(counter, 1u);
    });
}

TEST(AdmitServer, UnknownSessionIdsAreRejected) {
    run_sched(1, [] {
        server srv(small_cfg(16, 8));
        const session_id a = srv.open();
        const session_id b = srv.open();
        srv.close(b);
        std::uint64_t counter = 0;
        for (const session_id sid : {invalid_session, b + 1,
                                     std::numeric_limits<session_id>::max()}) {
            EXPECT_THROW((void)srv.submit(sid, ham::f2f<&tk::bump>(&counter)),
                         aurora::check_error)
                << "session " << sid;
            EXPECT_THROW(srv.close(sid), aurora::check_error)
                << "session " << sid;
            EXPECT_THROW((void)srv.stats(sid), aurora::check_error)
                << "session " << sid;
        }
        // The known sessions still answer, and nothing was counted.
        EXPECT_TRUE(srv.stats(a).open);
        EXPECT_FALSE(srv.stats(b).open);
        EXPECT_EQ(srv.stats().admitted, 0u);
        EXPECT_EQ(srv.stats().shed, 0u);
        EXPECT_EQ(srv.open_sessions(), 1u);
        EXPECT_EQ(counter, 0u);
    });
}

TEST(AdmitServer, BreakerTripsCounterSumsEveryServer) {
    // Two servers in one process each trip node 1's breaker once: the
    // process-wide counter rises by two, whatever earlier servers exported.
    const auto trips = [] {
        return aurora::testing::counter_total(
            "aurora_admit_breaker_trips_total");
    };
    const std::uint64_t before = trips();
    run_sched(2, [] {
        server::config cfg = small_cfg(16, 8);
        cfg.breaker.failure_threshold = 1;
        request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        for (int n = 0; n < 2; ++n) {
            server srv(cfg);
            const session_id sid = srv.open();
            srv.submit(sid, ham::f2f<&tk::boom>(), pin1).wait();
            EXPECT_EQ(srv.breaker_of(1), breaker_state::open);
            (void)srv.poll(); // exports the breaker gauges and counters
        }
    });
    EXPECT_EQ(trips() - before, 2u);
}

/// One mixed workload; returns its observable trace for replay comparison.
struct run_trace {
    std::vector<int> log;
    std::vector<std::uint64_t> stats;
    std::uint64_t backlog = 0;

    bool operator==(const run_trace&) const = default;
};

run_trace mixed_workload() {
    run_trace out;
    server::config cfg = small_cfg(12, 2);
    cfg.breaker.failure_threshold = 2;
    server srv(cfg);
    session_options lo, bo, go;
    lo.cls = qos_class::latency;
    lo.weight = 2;
    bo.cls = qos_class::batch;
    go.cls = qos_class::background;
    const session_id l = srv.open(lo);
    const session_id b = srv.open(bo);
    const session_id g = srv.open(go);
    std::uint64_t counter = 0;
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 3; ++i) {
            try {
                (void)srv.submit(l, ham::f2f<&tk::record>(&out.log,
                                                          100 * round + i));
            } catch (const admission_error&) {
            }
        }
        request_options tight;
        tight.deadline_ns = sim::now() + 5'000;
        try {
            (void)srv.submit(b, ham::f2f<&tk::cost_kernel>(
                                    std::int64_t(20'000), &counter),
                             tight);
        } catch (const admission_error&) {
        }
        try {
            (void)srv.submit(g, ham::f2f<&tk::bump>(&counter));
        } catch (const admission_error&) {
        }
        srv.poll();
    }
    srv.drain();
    for (const session_id sid : {l, b, g}) {
        const session_stats st = srv.stats(sid);
        out.stats.insert(out.stats.end(),
                         {st.admitted, st.completed, st.shed, st.expired,
                          st.failed});
    }
    out.backlog = srv.backlog();
    return out;
}

TEST(AdmitServer, ReplaysDeterministically) {
    run_trace first, second;
    run_sched(2, [&] { first = mixed_workload(); });
    run_sched(2, [&] { second = mixed_workload(); });
    EXPECT_EQ(first, second);
    // The workload is non-trivial: something completed and something shed
    // or expired, so equality is not vacuous.
    EXPECT_FALSE(first.log.empty());
}

/// WFQ across four live sessions (two weighted batch sessions, one latency,
/// one background) with queued deadlines. Before, between and after the live
/// sessions, `churn` sessions open, queue one request and close again, so
/// their ids fall between the live ids and their work is shed on close. The
/// window holds three, so one dispatch pass serves several sessions.
run_trace churned_wfq(std::size_t churn) {
    run_trace out;
    server srv(small_cfg(4096, 3));
    std::uint64_t prefill_done = 0;
    std::vector<request> holds;
    for (int i = 0; i < 3; ++i) {
        holds.push_back(occupy_window(srv, 1'000'000, &prefill_done));
    }
    std::vector<int> churn_log;
    auto open_and_close = [&] {
        for (std::size_t i = 0; i < churn; ++i) {
            session_options o;
            o.tenant = "churn";
            o.cls = static_cast<qos_class>(i % num_qos_classes);
            const session_id sid = srv.open(o);
            (void)srv.submit(sid, ham::f2f<&tk::record>(&churn_log, -1));
            srv.close(sid);
            const session_stats st = srv.stats(sid); // answers after close
            EXPECT_FALSE(st.open);
            EXPECT_EQ(st.shed, 1u);
        }
    };
    session_options heavy, light, lat, bg;
    heavy.cls = light.cls = qos_class::batch;
    heavy.weight = 3;
    lat.cls = qos_class::latency;
    bg.cls = qos_class::background;
    std::vector<session_id> live;
    for (const session_options& o : {heavy, light, lat, bg}) {
        open_and_close();
        live.push_back(srv.open(o));
    }
    open_and_close();

    for (int i = 0; i < 6; ++i) {
        for (std::size_t k = 0; k < live.size(); ++k) {
            request_options ro;
            if (i % 3 == 2) {
                ro.deadline_ns = sim::now() + 10'000; // expires while queued
            }
            (void)srv.submit(live[k], ham::f2f<&tk::record>(
                                          &out.log, 100 * int(k) + i),
                             ro);
        }
    }
    srv.drain();
    EXPECT_TRUE(churn_log.empty()); // shed on close, never dispatched
    for (const session_id sid : live) {
        const session_stats st = srv.stats(sid);
        out.stats.insert(out.stats.end(), {st.admitted, st.completed, st.shed,
                                           st.expired, st.failed});
    }
    out.backlog = srv.backlog();
    return out;
}

TEST(AdmitServer, ClosedSessionsBetweenLiveOnesLeaveWfqUnchanged) {
    run_trace plain, churned;
    run_sched(1, [&] { plain = churned_wfq(0); });
    run_sched(1, [&] { churned = churned_wfq(200); }); // 1,000 closed sessions
    EXPECT_EQ(plain.log, churned.log);     // dispatch order
    EXPECT_EQ(plain.stats, churned.stats); // shares and expiries
    EXPECT_EQ(churned.backlog, 0u);
    // Not vacuous: every live session got work through, and some expired.
    ASSERT_EQ(plain.stats.size(), 20u);
    std::uint64_t expired = 0;
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_GT(plain.stats[5 * k + 1], 0u);
        expired += plain.stats[5 * k + 3];
    }
    EXPECT_GT(expired, 0u);
}

} // namespace
} // namespace aurora::admit
