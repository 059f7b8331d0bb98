// The pass cursor (sim::pass) against the multi-word loop it parks.
//
// A seeded world of pollers and writers runs twice. A poller repeats a pass
// of steps (advance) and checks at fixed places: word checks that consume a
// store, one-shot timers, and counters every evaluation bumps. Once with
// every pass written out; once with the same pass run through the cursor and
// parked on its record after each pass that found nothing, replayed up to
// the step it woke after and run live from there. Both runs must produce the
// same log (who saw what, when, in which order), the same counters (skipped
// evaluations booked through tally), the same final clock and the same error
// when the virtual deadline ends a run.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/pass.hpp"
#include "util/check.hpp"

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

constexpr sim::duration_ns kSteps[] = {0, 100, 300, 400, 745};

struct place {
    enum kind { step, word, timer, counter } k = step;
    sim::duration_ns ns = 0;  ///< step
    std::size_t word_at = 0;  ///< word
    sim::time_ns when = 0;    ///< timer
};

struct poller_spec {
    std::vector<place> pass;
    int values = 0; ///< leaves after consuming this many stores
};

struct world {
    std::vector<poller_spec> pollers;
    std::vector<std::vector<std::pair<sim::duration_ns, std::size_t>>> writers;
    std::size_t words = 1;
};

struct outcome {
    std::vector<std::string> log;
    std::vector<std::uint64_t> counters;
    sim::time_ns clock = 0;
    std::string error;
    bool operator==(const outcome&) const = default;
};

std::string entry(sim::time_ns t, const std::string& what) {
    std::ostringstream os;
    os << t << ' ' << what;
    return os.str();
}

world make_world(std::uint64_t seed) {
    rng r{seed};
    world w;
    w.words = 1 + r.below(3);
    const std::size_t pollers = 1 + r.below(3);
    for (std::size_t p = 0; p < pollers; ++p) {
        poller_spec s;
        const std::size_t places = 2 + r.below(7);
        bool timed = false;
        for (std::size_t i = 0; i < places; ++i) {
            place pl;
            pl.k = static_cast<place::kind>(r.below(4));
            pl.ns = kSteps[r.below(5)];
            pl.word_at = r.below(w.words);
            pl.when = static_cast<sim::time_ns>(r.below(20'000));
            timed = timed || (pl.k == place::step && pl.ns > 0);
            s.pass.push_back(pl);
        }
        if (!timed) {
            s.pass.push_back({place::step, 100, 0, 0});
        }
        s.values = 1 + static_cast<int>(r.below(4));
        w.pollers.push_back(s);
    }
    const std::size_t writers = 1 + r.below(3);
    for (std::size_t i = 0; i < writers; ++i) {
        std::vector<std::pair<sim::duration_ns, std::size_t>> ops;
        const std::size_t n = 2 + r.below(6);
        for (std::size_t k = 0; k < n; ++k) {
            ops.emplace_back(static_cast<sim::duration_ns>(r.below(4) * 100 +
                                                           r.below(2) * 745),
                             r.below(w.words));
        }
        w.writers.push_back(ops);
    }
    return w;
}

sim::time_ns word_due(const void* word, std::uint64_t) {
    return *static_cast<const std::uint64_t*>(word) != 0 ? 0 : sim::never;
}

void bump(void* counter, std::uint64_t, std::uint64_t n) {
    *static_cast<std::uint64_t*>(counter) += n;
}

outcome run(const world& w, bool parked) {
    outcome out;
    std::vector<std::uint64_t> mem(w.words, 0);
    std::uint64_t next_value = 1;
    std::size_t counters = 0;
    for (const poller_spec& p : w.pollers) {
        counters += p.pass.size();
    }
    out.counters.assign(counters, 0);
    sim::simulation sim;
    sim.set_virtual_deadline(2'000'000);
    std::size_t base = 0;
    for (std::size_t id = 0; id < w.pollers.size(); ++id) {
        sim.spawn('p' + std::to_string(id), [&, id, base] {
            const poller_spec& spec = w.pollers[id];
            const std::string me = 'p' + std::to_string(id);
            std::vector<bool> fired(spec.pass.size(), false);
            int seen = 0;
            // The pass written out; true when a check acted.
            const auto pass = [&] {
                bool acted = false;
                for (std::size_t i = 0; i < spec.pass.size(); ++i) {
                    const place& pl = spec.pass[i];
                    switch (pl.k) {
                        case place::step:
                            sim::advance(pl.ns);
                            break;
                        case place::word:
                            if (mem[pl.word_at] != 0) {
                                out.log.push_back(entry(
                                    sim::now(),
                                    me + " saw " + std::to_string(mem[pl.word_at]) +
                                        " at " + std::to_string(i)));
                                mem[pl.word_at] = 0;
                                ++seen;
                                acted = true;
                            }
                            break;
                        case place::timer:
                            if (!fired[i] && sim::now() >= pl.when) {
                                out.log.push_back(entry(
                                    sim::now(),
                                    me + " timer " + std::to_string(i)));
                                fired[i] = true;
                                acted = true;
                            }
                            break;
                        case place::counter:
                            ++out.counters[base + i];
                            break;
                    }
                }
                return acted;
            };
            // The same pass through the cursor.
            const auto cursor_pass = [&] {
                bool acted = false;
                for (std::size_t i = 0; i < spec.pass.size(); ++i) {
                    const place& pl = spec.pass[i];
                    switch (pl.k) {
                        case place::step:
                            sim::pass::step(pl.ns);
                            break;
                        case place::word:
                            if (sim::pass::live(&word_due, &mem[pl.word_at])) {
                                out.log.push_back(entry(
                                    sim::now(),
                                    me + " saw " + std::to_string(mem[pl.word_at]) +
                                        " at " + std::to_string(i)));
                                mem[pl.word_at] = 0;
                                ++seen;
                                acted = true;
                            }
                            break;
                        case place::timer:
                            if (!fired[i] && sim::pass::at(pl.when)) {
                                out.log.push_back(entry(
                                    sim::now(),
                                    me + " timer " + std::to_string(i)));
                                fired[i] = true;
                                acted = true;
                            }
                            break;
                        case place::counter:
                            sim::pass::tally(&bump, &out.counters[base + i]);
                            break;
                    }
                }
                return acted;
            };
            if (parked) {
                sim::pass_loop loop("seeded poller");
                for (; seen < spec.values; loop.begin()) {
                    if (!cursor_pass()) {
                        loop.park();
                    }
                }
            } else {
                while (seen < spec.values) {
                    pass();
                }
            }
            out.log.push_back(entry(sim::now(), me + " done"));
        });
        base += w.pollers[id].pass.size();
    }
    for (std::size_t id = 0; id < w.writers.size(); ++id) {
        sim.spawn('w' + std::to_string(id), [&, id] {
            for (const auto& [delay, word] : w.writers[id]) {
                sim::advance(delay);
                mem[word] = next_value;
                out.log.push_back(
                    entry(sim::now(), 'w' + std::to_string(id) + " stored " +
                                          std::to_string(next_value)));
                ++next_value;
            }
        });
    }
    try {
        sim.run();
    } catch (const sim::simulation_error& e) {
        out.error = e.what();
    }
    out.clock = sim.now();
    return out;
}

/// Seeds 1–600 in six blocks of 100, one test each, so that a parallel
/// ctest runs the blocks side by side: under a sanitizer they are most of
/// the engine suite's time.
class PlanDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanDifferential, SeededWorldsMatchTheWrittenOutPasses) {
    const std::uint64_t first = GetParam();
    for (std::uint64_t seed = first; seed < first + 100; ++seed) {
        const world w = make_world(seed);
        const outcome a = run(w, false);
        const outcome b = run(w, true);
        ASSERT_EQ(a.log, b.log) << "seed " << seed;
        if (a.error.empty()) {
            // A run the virtual deadline ends unwinds its parked passes
            // without booking them (sim::poll).
            ASSERT_EQ(a.counters, b.counters) << "seed " << seed;
        }
        ASSERT_EQ(a.clock, b.clock) << "seed " << seed;
        ASSERT_EQ(a.error, b.error) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedBlocks, PlanDifferential,
    ::testing::Values<std::uint64_t>(1, 101, 201, 301, 401, 501),
    [](const ::testing::TestParamInfo<std::uint64_t>& block) {
        return "seeds_" + std::to_string(block.param) + "_to_" +
               std::to_string(block.param + 99);
    });

TEST(PassCursor, ParkedReplayDivergingFromItsRecordTripsTheCheck) {
    // The pass reads `first_step` without a check, against the rule: the
    // writer moves it while the loop is parked, so the woken pass's replay
    // takes another step than its record and the loop fails by name.
    sim::simulation sim;
    std::uint64_t word = 0;
    sim::duration_ns first_step = 100;
    sim.spawn("poller", [&] {
        sim::pass_loop loop("divergent poller");
        for (;; loop.begin()) {
            sim::pass::step(first_step);
            sim::pass::step(200);
            if (sim::pass::live(&word_due, &word)) {
                return;
            }
            loop.park();
        }
    });
    sim.spawn("writer", [&] {
        sim::advance(1'000);
        first_step = 150;
        word = 1;
    });
    try {
        sim.run();
        FAIL() << "the diverging replay went unnoticed";
    } catch (const check_error& e) {
        EXPECT_NE(std::string(e.what()).find("divergent poller"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("takes 150 ns, its record 100"),
                  std::string::npos)
            << e.what();
    }
}

/// An outer loop waits for stores to `a`; each one it sees opens an inner
/// loop inside its pass, which waits for a store to `b`. Parked or written
/// out, the run logs the same events at the same times.
std::vector<std::string> nested_run(bool parked, std::vector<bool>* outer_parked) {
    std::vector<std::string> log;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    sim::simulation sim;
    sim.spawn("outer", [&] {
        const auto inner_wait = [&] {
            if (!parked) {
                do {
                    sim::advance(100);
                } while (b == 0);
            } else {
                sim::pass_loop inner("inner");
                for (;; inner.begin()) {
                    sim::pass::step(100);
                    if (sim::pass::live(&word_due, &b)) {
                        break;
                    }
                    inner.park();
                }
            }
            log.push_back(entry(sim::now(), "inner saw " + std::to_string(b)));
            b = 0;
        };
        int seen = 0;
        if (!parked) {
            while (seen < 2) {
                sim::advance(300);
                if (a != 0) {
                    log.push_back(
                        entry(sim::now(), "outer saw " + std::to_string(a)));
                    a = 0;
                    ++seen;
                    inner_wait();
                }
            }
            return;
        }
        sim::pass_loop outer("outer");
        for (; seen < 2; outer.begin()) {
            sim::pass::step(300);
            bool opened = false;
            if (sim::pass::live(&word_due, &a)) {
                log.push_back(entry(sim::now(), "outer saw " + std::to_string(a)));
                a = 0;
                ++seen;
                inner_wait();
                opened = true;
            }
            const bool did_park = outer.park();
            if (opened) {
                outer_parked->push_back(did_park);
            }
        }
    });
    sim.spawn("writer", [&] {
        sim::advance(2'000);
        a = 1;
        sim::advance(5'000);
        b = 2;
        sim::advance(9'000);
        a = 3;
        sim::advance(1'000);
        b = 4;
    });
    sim.run();
    log.push_back(entry(sim.now(), "end"));
    return log;
}

TEST(PassCursor, ALoopOpenedInsideAnotherLoopsPassParksOnItsOwnRecord) {
    std::vector<bool> outer_parked;
    const std::vector<std::string> parked = nested_run(true, &outer_parked);
    EXPECT_EQ(nested_run(false, nullptr), parked);
    ASSERT_EQ(parked.size(), 5u);
    // The passes that ran an inner loop count as progress: the outer loop
    // runs its next pass live instead of parking on them.
    EXPECT_EQ(outer_parked, (std::vector<bool>{false, false}));
}

} // namespace
