// Real-time microbenchmarks of the DES engine itself (google-benchmark).
//
// The simulator's own speed bounds how fast the reproduction regenerates the
// paper's sweeps: these numbers quantify the cost of a scheduler handoff, an
// event signal, the fast path (a lone runnable process advancing time
// without any context switch), idle pollers parked in sim::poll while
// another process spends a long stretch of virtual time, and the set-up of a
// simulation's processes.
#include <benchmark/benchmark.h>

#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace {

using namespace aurora::sim;

void BM_LoneProcessAdvance(benchmark::State& state) {
    // Fast path: one runnable process re-schedules itself with no handoff.
    const auto steps = state.range(0);
    for (auto _ : state) {
        simulation s;
        s.spawn("p", [steps] {
            for (std::int64_t i = 0; i < steps; ++i) {
                advance(1);
            }
        });
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_LoneProcessAdvance)->Arg(1000)->Arg(10000);

void BM_PingPongContextSwitch(benchmark::State& state) {
    // Worst case: two processes alternating at every step (full handoffs).
    const auto steps = state.range(0);
    for (auto _ : state) {
        simulation s;
        for (const int p : {0, 1}) {
            s.spawn(p == 0 ? "p0" : "p1", [steps, p] {
                for (std::int64_t i = 0; i < steps; ++i) {
                    advance(2 + p); // interleave deterministically
                }
            });
        }
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * steps * 2);
}
BENCHMARK(BM_PingPongContextSwitch)->Arg(500)->Arg(2000);

void BM_ParkedPollersLongAdvance(benchmark::State& state) {
    // The multi-VE attach pattern: three VEs already attached poll their
    // receive flag over LHM every 745 ns while the host spends range(0) ns
    // attaching the next one. Parked, each poller wakes once, when the flag
    // is set; resumed per poll, this would be ~40,000 switches for 10 ms.
    const auto span = state.range(0);
    const duration_ns lhm_ns = 745;
    std::uint64_t switches = 0;
    for (auto _ : state) {
        simulation s;
        bool flag = false;
        for (const char* name : {"ve0", "ve1", "ve2"}) {
            s.spawn(name, [&] {
                poll({&lhm_ns, 1}, 0,
                     [&](std::size_t) { return flag ? time_ns{0} : never; });
            });
        }
        s.spawn("host", [&, span] {
            advance(span);
            flag = true;
        });
        s.run();
        switches = s.stats().context_switches;
    }
    state.counters["switches"] = static_cast<double>(switches);
}
BENCHMARK(BM_ParkedPollersLongAdvance)->Arg(10'000'000);

void BM_SpawnAndFinish(benchmark::State& state) {
    // Set-up: one simulation whose processes each take one step and finish,
    // as many at once as a four-node cluster runs. Every process needs a
    // stack; one taken from the thread's list of released stacks costs no
    // mapping, guard page, page faults or unmapping.
    const auto procs = state.range(0);
    for (auto _ : state) {
        simulation s;
        for (std::int64_t i = 0; i < procs; ++i) {
            s.spawn("p", [] { advance(1); });
        }
        s.run();
        benchmark::DoNotOptimize(s.now());
    }
    state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_SpawnAndFinish)->Arg(24);

void BM_EventSignalWake(benchmark::State& state) {
    // Two-event rendezvous: each event is reset by its waiter after
    // consumption, so the handshake is ordering-independent.
    const auto rounds = state.range(0);
    for (auto _ : state) {
        simulation s;
        event ping(s), pong(s);
        s.spawn("a", [&, rounds] {
            for (std::int64_t i = 0; i < rounds; ++i) {
                ping.set();
                pong.wait();
                pong.reset();
                advance(1);
            }
        });
        s.spawn("b", [&, rounds] {
            for (std::int64_t i = 0; i < rounds; ++i) {
                ping.wait();
                ping.reset();
                pong.set();
                advance(1);
            }
        });
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_EventSignalWake)->Arg(200);

void BM_QueueThroughput(benchmark::State& state) {
    const auto items = state.range(0);
    for (auto _ : state) {
        simulation s;
        sim_queue<std::int64_t> q(s);
        s.spawn("producer", [&, items] {
            for (std::int64_t i = 0; i < items; ++i) {
                q.push(i);
                advance(1);
            }
        });
        s.spawn("consumer", [&, items] {
            for (std::int64_t i = 0; i < items; ++i) {
                benchmark::DoNotOptimize(q.pop());
            }
        });
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_QueueThroughput)->Arg(1000);

} // namespace

BENCHMARK_MAIN();
