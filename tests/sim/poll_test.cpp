// sim::poll against the loop it replaces.
//
// A seeded world of pollers and writers runs twice: once with every poller
// parked in sim::poll, once with the same loop written out as advance() plus
// checks. Both runs must produce the same log (who saw what, when, in which
// order), the same per-poller probe counts and the same final clock; only
// the engine's context switches may fall.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aurora;

struct rng {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Step lengths that share many common multiples, so stores keep landing
/// exactly on poll ticks (745 + 140: an LHM poll across the UPI link).
constexpr std::array<sim::duration_ns, 6> kSteps = {100, 300, 500, 745, 885, 0};

struct poller_spec {
    std::vector<sim::duration_ns> steps; ///< one iteration of the loop
    std::size_t probe = 0;               ///< the step after which it reads
    std::size_t word = 0;                ///< the word it watches
    sim::duration_ns idle_timeout = 0;   ///< 0 = none
    int node = 0;                        ///< fault-injector identity
    int values = 0;                      ///< exit after seeing this many
};

struct writer_op {
    sim::duration_ns delay = 0; ///< advance before the action
    int action = 0;             ///< 0 store, 1 kill_now, 2 only advance
    std::size_t word = 0;
    std::uint64_t value = 0;
    int node = 0;
};

struct world {
    std::vector<poller_spec> pollers;
    std::vector<std::vector<writer_op>> writers;
    std::vector<std::pair<int, sim::time_ns>> kills_at; ///< (node, when)
    std::size_t words = 1;
    sim::time_ns deadline = 0;
};

struct outcome {
    std::vector<std::string> log;
    std::vector<std::uint64_t> probes; ///< per poller
    sim::time_ns clock = 0;
    std::uint64_t switches = 0;
    std::string error;

    bool operator==(const outcome& o) const {
        return log == o.log && probes == o.probes && clock == o.clock &&
               error == o.error;
    }
};

std::string entry(const std::string& who, sim::time_ns t, const std::string& what) {
    std::ostringstream os;
    os << t << ' ' << who << ' ' << what;
    return os.str();
}

/// The poll loop body shared by both variants: the checks after step `k`.
/// Returns false when the poller leaves its loop.
struct poller_state {
    const poller_spec& spec;
    std::vector<std::uint64_t>& mem;
    std::vector<std::string>& log;
    std::string name;
    sim::time_ns idle_start = 0;
    int seen = 0;
    std::uint64_t probes = 0;

    bool checks_after(std::size_t k) {
        if (k == spec.probe) {
            ++probes;
            const std::uint64_t v = mem[spec.word];
            if (v != 0) {
                log.push_back(entry(name, sim::now(), "saw " + std::to_string(v)));
                mem[spec.word] = 0; // consume it on this poller's own turn
                idle_start = sim::now();
                if (++seen == spec.values) {
                    return false;
                }
            } else if (spec.idle_timeout > 0 &&
                       sim::now() - idle_start >= spec.idle_timeout) {
                log.push_back(entry(name, sim::now(), "idle timeout"));
                return false;
            }
        }
        return true;
    }

    /// When would checks_after(k) act? Side-effect free.
    sim::time_ns due(std::size_t k) const {
        sim::time_ns t = fault::injector::instance().kill_due(spec.node);
        if (k == spec.probe) {
            if (mem[spec.word] != 0) {
                return 0;
            }
            if (spec.idle_timeout > 0) {
                t = std::min(t, idle_start + spec.idle_timeout);
            }
        }
        return t;
    }
};

outcome run_world(const world& w, bool parked) {
    auto& inj = fault::injector::instance();
    inj.reset();
    for (const auto& [node, when] : w.kills_at) {
        inj.kill_at_time(node, when);
    }
    outcome out;
    std::vector<std::uint64_t> mem(w.words, 0);
    std::vector<poller_state> states;
    states.reserve(w.pollers.size());
    sim::simulation sim;
    if (w.deadline != 0) {
        sim.set_virtual_deadline(w.deadline);
    }
    for (std::size_t i = 0; i < w.pollers.size(); ++i) {
        states.push_back({w.pollers[i], mem, out.log, 'p' + std::to_string(i), 0, 0, 0});
        poller_state& st = states.back();
        sim.spawn(st.name, [&st, &inj, parked] {
            const poller_spec& spec = st.spec;
            try {
                std::size_t k = 0;
                for (;;) {
                    inj.check_target_alive(spec.node);
                    if (parked) {
                        const sim::poll_result r = sim::poll(
                            spec.steps, k, [&st](std::size_t j) { return st.due(j); });
                        st.probes += r.skipped(spec.probe);
                        k = r.step;
                    } else {
                        sim::advance(spec.steps[k]);
                    }
                    if (!st.checks_after(k)) {
                        return;
                    }
                    k = (k + 1) % spec.steps.size();
                }
            } catch (const fault::target_killed&) {
                st.log.push_back(entry(st.name, sim::now(), "killed"));
            }
        });
    }
    for (std::size_t i = 0; i < w.writers.size(); ++i) {
        const std::string name = 'w' + std::to_string(i);
        sim.spawn(name, [&, i, name] {
            for (const writer_op& op : w.writers[i]) {
                sim::advance(op.delay);
                if (op.action == 0) {
                    mem[op.word] = op.value;
                    out.log.push_back(entry(name, sim::now(),
                                            "store " + std::to_string(op.word) + "=" +
                                                std::to_string(op.value)));
                } else if (op.action == 1) {
                    inj.kill_now(op.node);
                    out.log.push_back(
                        entry(name, sim::now(), "fence " + std::to_string(op.node)));
                }
            }
        });
    }
    try {
        sim.run();
    } catch (const sim::simulation_error& e) {
        out.error = e.what();
    }
    for (const poller_state& st : states) {
        out.probes.push_back(st.probes);
    }
    out.clock = sim.now();
    out.switches = sim.stats().context_switches;
    inj.reset();
    return out;
}

/// A seeded world whose poll loops have up to `max_steps` steps.
world random_world(std::uint64_t seed, std::uint64_t max_steps = 3) {
    rng r{seed};
    world w;
    w.words = 1 + r.below(3);
    const std::size_t np = 1 + r.below(4);
    for (std::size_t i = 0; i < np; ++i) {
        poller_spec p;
        const std::size_t n = 1 + r.below(max_steps);
        do {
            p.steps.clear();
            for (std::size_t k = 0; k < n; ++k) {
                p.steps.push_back(kSteps[r.below(kSteps.size())]);
            }
        } while (std::all_of(p.steps.begin(), p.steps.end(),
                             [](sim::duration_ns d) { return d == 0; }));
        p.probe = r.below(n);
        p.word = r.below(w.words);
        // Every poller leaves eventually: after a few values or on its idle
        // timeout, which is always set.
        p.idle_timeout = sim::duration_ns(1 + r.below(40)) * 745;
        p.node = int(i);
        p.values = 1 + int(r.below(4));
        w.pollers.push_back(p);
        if (r.below(4) == 0) {
            w.kills_at.emplace_back(int(i), sim::time_ns(r.below(30)) * 100);
        }
    }
    const std::size_t nw = 1 + r.below(3);
    for (std::size_t i = 0; i < nw; ++i) {
        std::vector<writer_op> ops;
        const std::size_t n = 1 + r.below(12);
        for (std::size_t k = 0; k < n; ++k) {
            writer_op op;
            // Delays built from the poll steps (and one long advance now and
            // then) put stores exactly on poll ticks, reached through
            // different numbers of suspensions, so both tie orders occur.
            const std::size_t parts = r.below(4);
            for (std::size_t j = 0; j < parts; ++j) {
                op.delay += kSteps[r.below(kSteps.size())];
            }
            if (r.below(16) == 0) {
                op.delay += 10'000'000; // pollers stay parked across it
            }
            const auto a = r.below(16);
            op.action = a < 12 ? 0 : (a < 13 ? 1 : 2);
            op.word = r.below(w.words);
            op.value = 1 + r.below(1000);
            op.node = int(r.below(np));
            ops.push_back(op);
        }
        w.writers.push_back(std::move(ops));
    }
    if (r.below(8) == 0) {
        w.deadline = sim::time_ns(1 + r.below(400)) * 100; // often on a tick
    }
    return w;
}

void expect_same(const world& w, const std::string& what) {
    const outcome loop = run_world(w, false);
    const outcome parked = run_world(w, true);
    ASSERT_EQ(loop.error, parked.error) << what;
    EXPECT_EQ(loop.log, parked.log) << what;
    if (loop.error.empty()) {
        // An aborted poll() unwinds without reporting its skipped passes.
        EXPECT_EQ(loop.probes, parked.probes) << what;
    }
    EXPECT_EQ(loop.clock, parked.clock) << what;
    EXPECT_LE(parked.switches, loop.switches) << what;
}

TEST(PollDifferential, SeededWorldsMatchTheHandWrittenLoop) {
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        expect_same(random_world(seed), "seed " + std::to_string(seed));
        if (HasFailure()) {
            return;
        }
    }
    // Loops of up to 16 steps, like the executor's multi-engine passes: a
    // pass's offset from the loop's current step wraps around the end of
    // its steps.
    for (std::uint64_t seed = 401; seed <= 600; ++seed) {
        expect_same(random_world(seed, 16), "seed " + std::to_string(seed));
        if (HasFailure()) {
            return;
        }
    }
}

TEST(PollDifferential, StoreOnATickIsSeenInTheLoopsTieOrder) {
    // The writer's store lands exactly on a 745 ns tick of the poller. When
    // the writer last suspended before the poller did, it runs first at that
    // tick and the poller sees the value there; otherwise one tick later.
    for (const sim::duration_ns writer_split : {0, 745, 1490}) {
        world w;
        poller_spec p;
        p.steps = {745};
        p.idle_timeout = 20 * 745;
        p.values = 1;
        w.pollers.push_back(p);
        w.writers.push_back({{writer_split, 2, 0, 0, 0},
                             {5 * 745 - writer_split, 0, 0, 7, 0}});
        expect_same(w, "split " + std::to_string(writer_split));
    }
}

TEST(PollDifferential, HostWaitCycleAndFarSocketPollers) {
    // The host wait's three steps (future check, probe read, pause) beside
    // two LHM pollers, one across the UPI link, all parked at once while a
    // writer sleeps through one long advance.
    world w;
    w.words = 3;
    w.pollers.push_back({{300, 100, 100}, 1, 0, 0, 0, 1});
    w.pollers.push_back({{745}, 0, 1, 0, 1, 1});
    w.pollers.push_back({{885}, 0, 2, 0, 2, 1});
    w.writers.push_back({{10'000'000, 0, 1, 5, 0},
                         {0, 0, 2, 6, 0},
                         {0, 0, 0, 4, 0}});
    const outcome parked = run_world(w, true);
    const outcome loop = run_world(w, false);
    EXPECT_EQ(loop, parked);
    // The loop resumes its pollers tens of thousands of times; parked, each
    // wakes once.
    EXPECT_GT(loop.switches, 10'000u);
    EXPECT_LT(parked.switches, 20u);
}

TEST(PollDifferential, KillsAndTimeoutsWakeParkedPollers) {
    world w;
    w.words = 2;
    w.pollers.push_back({{745}, 0, 0, 0, 0, 1});          // killed by time
    w.pollers.push_back({{300, 200}, 1, 1, 0, 1, 1});     // fenced by kill_now
    w.pollers.push_back({{745}, 0, 0, 50 * 745, 2, 1});   // idle timeout
    w.kills_at.emplace_back(0, 12'345);
    w.writers.push_back({{20'000, 1, 0, 0, 1}, {100'000, 2, 0, 0, 0}});
    expect_same(w, "kills");
    const outcome parked = run_world(w, true);
    ASSERT_EQ(parked.log.size(), 4u);
    EXPECT_NE(parked.log[0].find("p0 killed"), std::string::npos);
}

TEST(PollDifferential, NothingToWakeEndsAtTheVirtualDeadline) {
    // Pollers that nothing can wake run into the virtual deadline exactly
    // where the loop would, with the same error.
    world w;
    w.pollers.push_back({{745}, 0, 0, 0, 0, 1});
    w.pollers.push_back({{300, 100, 100}, 1, 0, 0, 1, 1});
    w.deadline = 1'000'000;
    const outcome loop = run_world(w, false);
    const outcome parked = run_world(w, true);
    EXPECT_NE(loop.error.find("virtual deadline"), std::string::npos) << loop.error;
    EXPECT_EQ(loop.error, parked.error);
    EXPECT_EQ(loop.clock, parked.clock);
}

TEST(PollDifferential, NothingToWakeWithoutDeadlineIsADeadlock) {
    world w;
    w.pollers.push_back({{745}, 0, 0, 0, 0, 1});
    const outcome parked = run_world(w, true);
    EXPECT_NE(parked.error.find("deadlock"), std::string::npos) << parked.error;
    EXPECT_NE(parked.error.find("parked"), std::string::npos) << parked.error;
}

TEST(PollResult, SkippedCountsPassesPerStep) {
    sim::poll_result r;
    r.first = 1;
    r.cycle = 3;
    r.passes = 7; // steps 1 2 0 1 2 0 1
    EXPECT_EQ(r.skipped(1), 3u);
    EXPECT_EQ(r.skipped(2), 2u);
    EXPECT_EQ(r.skipped(0), 2u);
    r.passes = 0;
    EXPECT_EQ(r.skipped(1), 0u);
}

} // namespace
