// aurora::metrics::registry — instrument identity, label handling,
// concurrent update integrity, and trace counters staying out of it.
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "trace/summary.hpp"
#include "trace/trace.hpp"

namespace aurora::metrics {
namespace {

TEST(Labels, FormatsAndEscapes) {
    EXPECT_EQ(labels({}), "");
    EXPECT_EQ(labels({{"node", "1"}}), "node=\"1\"");
    EXPECT_EQ(labels({{"backend", "vedma"}, {"node", "2"}}),
              "backend=\"vedma\",node=\"2\"");
    EXPECT_EQ(labels({{"k", "a\"b\\c\nd"}}), "k=\"a\\\"b\\\\c\\nd\"");
}

TEST(Registry, FindOrCreateReturnsStableIdentity) {
    registry reg;
    counter& a = reg.counter_for("reg_test_total", "node=\"1\"");
    counter& b = reg.counter_for("reg_test_total", "node=\"1\"");
    EXPECT_EQ(&a, &b);
    counter& other = reg.counter_for("reg_test_total", "node=\"2\"");
    EXPECT_NE(&a, &other);
    a.add(3);
    other.add(5);
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(other.value(), 5u);
}

TEST(Registry, FindDoesNotCreate) {
    registry reg;
    EXPECT_EQ(reg.find_counter("absent_total"), nullptr);
    EXPECT_EQ(reg.find_gauge("absent"), nullptr);
    EXPECT_EQ(reg.find_histogram("absent_ns"), nullptr);
    reg.histogram_for("present_ns", "node=\"1\"").record(7);
    ASSERT_NE(reg.find_histogram("present_ns", "node=\"1\""), nullptr);
    EXPECT_EQ(reg.find_histogram("present_ns", "node=\"2\""), nullptr);
    EXPECT_EQ(reg.find_histogram("present_ns", "node=\"1\"")->snap().count, 1u);
}

TEST(Registry, FirstHelpWins) {
    registry reg;
    reg.counter_for("help_test_total", "", "the real help");
    reg.counter_for("help_test_total", "x=\"1\"", "ignored");
    const auto families = reg.snapshot();
    ASSERT_EQ(families.size(), 1u);
    EXPECT_EQ(families[0].help, "the real help");
    EXPECT_EQ(families[0].series.size(), 2u);
}

TEST(Registry, SnapshotIsSortedAndTyped) {
    registry reg;
    reg.gauge_for("zz_level").set(-4);
    reg.counter_for("aa_total", "b=\"2\"").add(1);
    reg.counter_for("aa_total", "a=\"1\"").add(2);
    reg.histogram_for("mm_ns").record(1000);

    const auto families = reg.snapshot();
    ASSERT_EQ(families.size(), 3u);
    EXPECT_EQ(families[0].name, "aa_total");
    EXPECT_EQ(families[0].kind, instrument_kind::counter);
    ASSERT_EQ(families[0].series.size(), 2u);
    // Series are sorted by label string.
    EXPECT_EQ(families[0].series[0].labels, "a=\"1\"");
    EXPECT_EQ(families[0].series[0].value, 2);
    EXPECT_EQ(families[1].name, "mm_ns");
    EXPECT_EQ(families[1].kind, instrument_kind::histogram);
    EXPECT_EQ(families[1].series[0].hist.count, 1u);
    EXPECT_EQ(families[2].name, "zz_level");
    EXPECT_EQ(families[2].series[0].value, -4);
}

TEST(Registry, ConcurrentFindOrCreateAndUpdate) {
    // 8 threads hammer the same 4 series through find-or-create; totals
    // must be exact and every thread must resolve identical pointers.
    registry reg;
    constexpr int threads = 8;
    constexpr int iters = 100'000;
    std::vector<std::thread> ts;
    std::vector<counter*> seen(threads * 4, nullptr);
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&reg, &seen, t] {
            const char* lbl[4] = {"n=\"0\"", "n=\"1\"", "n=\"2\"", "n=\"3\""};
            for (int s = 0; s < 4; ++s) {
                counter& c = reg.counter_for("stress_total", lbl[s]);
                seen[std::size_t(t * 4 + s)] = &c;
                for (int i = 0; i < iters; ++i) {
                    c.add(1);
                }
            }
        });
    }
    for (auto& t : ts) t.join();
    std::set<counter*> unique(seen.begin(), seen.end());
    EXPECT_EQ(unique.size(), 4u);
    for (int s = 0; s < 4; ++s) {
        const counter* c = reg.find_counter(
            "stress_total", std::string("n=\"") + char('0' + s) + '"');
        ASSERT_NE(c, nullptr);
        EXPECT_EQ(c->value(), std::uint64_t(threads) * iters);
    }
}

TEST(TraceCounter, LeavesEveryRegistryFamilyUnchanged) {
    // Trace counters are trace-only: fired with tracing off or on, they add
    // no family, series or value to the registry. A count the registry holds
    // is added once, under its own family, at the call site.
    const bool was_enabled = trace::enabled();
    trace::collector::instance().reset();
    const std::vector<registry::family_snapshot> before =
        registry::global().snapshot();
    trace::set_enabled(false);
    AURORA_TRACE_COUNTER("registry_test", "untraced", 3);
    trace::set_enabled(true);
    AURORA_TRACE_COUNTER("registry_test", "traced", 4);
    trace::set_enabled(was_enabled);
    const std::vector<registry::family_snapshot> after =
        registry::global().snapshot();

    ASSERT_EQ(after.size(), before.size());
    for (std::size_t f = 0; f < before.size(); ++f) {
        EXPECT_EQ(after[f].name, before[f].name);
        ASSERT_EQ(after[f].series.size(), before[f].series.size())
            << before[f].name;
        for (std::size_t i = 0; i < before[f].series.size(); ++i) {
            EXPECT_EQ(after[f].series[i].labels, before[f].series[i].labels);
            EXPECT_EQ(after[f].series[i].value, before[f].series[i].value)
                << before[f].name << "{" << before[f].series[i].labels << "}";
            EXPECT_EQ(after[f].series[i].hist.count,
                      before[f].series[i].hist.count);
        }
    }

    // The traced firing is still a trace counter; the untraced one left
    // nothing.
    const trace::summary s = trace::summarize();
    std::uint64_t traced = 0;
    for (const trace::counter_summary& c : s.counters) {
        EXPECT_NE(c.key, "registry_test/untraced");
        if (c.key == "registry_test/traced") {
            traced = c.total;
        }
    }
    EXPECT_EQ(traced, 4u);
    trace::collector::instance().reset();
}

} // namespace
} // namespace aurora::metrics
