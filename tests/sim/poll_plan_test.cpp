// ham::offload::poll_plan against the multi-word loop it parks.
//
// A seeded world of pollers and writers runs twice. A poller repeats a pass
// of steps (advance) and checks at fixed places: word checks that consume a
// store, one-shot timers, and counters every evaluation bumps. Once with
// every pass written out; once parked after each pass that found nothing,
// through a poll_plan describing the next pass, resuming after the step the
// plan names and running the rest of that pass. Both runs must produce the
// same log (who saw what, when, in which order), the same counters (skipped
// evaluations booked through on_skip), the same final clock and the same
// error when the virtual deadline ends a run.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "offload/poll_plan.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aurora;
using ham::offload::poll_plan;

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
            // The pass from place `from` on; true when a check acted.
            const auto pass = [&](std::size_t from) {
                bool acted = false;
                for (std::size_t i = from; i < spec.pass.size(); ++i) {
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
            poll_plan plan;
            bool idle = false;
            while (seen < spec.values) {
                if (parked && idle) {
                    plan.clear();
                    for (std::size_t i = 0; i < spec.pass.size(); ++i) {
                        const place& pl = spec.pass[i];
                        switch (pl.k) {
                            case place::step:
                                plan.step(pl.ns, static_cast<std::uint32_t>(i));
                                break;
                            case place::word:
                                plan.wake_live(&word_due, &mem[pl.word_at]);
                                break;
                            case place::timer:
                                plan.wake_at(fired[i] ? sim::never : pl.when);
                                break;
                            case place::counter:
                                plan.on_skip(&bump, &out.counters[base + i]);
                                break;
                        }
                    }
                    std::uint32_t tag = 0;
                    if (plan.park(tag)) {
                        idle = !pass(tag + 1);
                        continue;
                    }
                }
                idle = !pass(0);
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

} // namespace
