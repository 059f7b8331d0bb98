// The offload runtime as the flight recorder's only writer, checked on the
// on-demand dump. Every request a workload collected shows post, sent,
// harvest and collect under its own ticket, in virtual-time order. Every
// resend (reply-timeout retransmit or checksum-NACK answer) is one more
// `sent` of its request, and a replay after a respawn reposts its ticket in
// the new epoch.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <regex>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "obs/flight.hpp"
#include "offload/offload.hpp"
#include "sim/platform.hpp"

namespace ham::offload {
namespace {

namespace fault = aurora::fault;
namespace obs = aurora::obs;

double add_one(double x) { return x + 1.0; }

struct dumped_timeline {
    std::uint64_t ticket = 0;
    std::vector<std::string> stages;   ///< in the dump's order
    std::vector<std::uint64_t> ts_ns;  ///< one per stage
    std::vector<unsigned> epochs;      ///< one per stage
};

/// The request timelines of `node`'s on-demand postmortem, read back from
/// its JSON text.
std::vector<dumped_timeline> on_demand_dump(std::uint16_t node) {
    const std::string json = obs::postmortem_json(node, "on_demand", 0, "");
    static const std::regex timeline_re(
        R"re(\{"node":\d+,"ticket":(\d+),[^\[]*"events":\[([^\]]*)\])re");
    static const std::regex event_re(
        R"re("stage":"(\w+)","ts_ns":(\d+),"slot":\d+,"epoch":(\d+))re");
    std::vector<dumped_timeline> out;
    for (auto it = std::sregex_iterator(json.begin(), json.end(), timeline_re);
         it != std::sregex_iterator(); ++it) {
        dumped_timeline tl;
        tl.ticket = std::stoull((*it)[1].str());
        const std::string events = (*it)[2].str();
        for (auto ev = std::sregex_iterator(events.begin(), events.end(),
                                            event_re);
             ev != std::sregex_iterator(); ++ev) {
            tl.stages.push_back((*ev)[1].str());
            tl.ts_ns.push_back(std::stoull((*ev)[2].str()));
            tl.epochs.push_back(static_cast<unsigned>(std::stoul((*ev)[3].str())));
        }
        out.push_back(std::move(tl));
    }
    return out;
}

const std::vector<std::string> spine = {"post", "sent", "harvest", "collect"};

int sends_of(const dumped_timeline& tl) {
    int n = 0;
    for (const std::string& s : tl.stages) {
        n += s == "sent" ? 1 : 0;
    }
    return n;
}

TEST(Postmortem, CollectedRequestsRunPostSentHarvestCollect) {
    obs::flight_registry::reset();
    constexpr int rounds = 4;
    runtime_options opt;
    opt.backend = backend_kind::loopback;
    opt.targets.assign(2, 0);
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    ASSERT_EQ(run(plat, opt,
                  [] {
                      for (int i = 0; i < rounds; ++i) {
                          // Two requests per target outstanding at once.
                          auto a = async(1, ham::f2f<&add_one>(double(i)));
                          auto b = async(2, ham::f2f<&add_one>(double(i)));
                          auto c = async(1, ham::f2f<&add_one>(double(i)));
                          auto d = async(2, ham::f2f<&add_one>(double(i)));
                          EXPECT_EQ(d.get() + c.get() + b.get() + a.get(),
                                    4.0 * (i + 1));
                      }
                  }),
              0);
    for (std::uint16_t node = 1; node <= 2; ++node) {
        ASSERT_EQ(obs::flight_registry::find(node)->dropped(), 0u);
        int collected = 0;
        for (const dumped_timeline& tl : on_demand_dump(node)) {
            EXPECT_NE(tl.ticket, 0u) << "node " << node;
            // Events come ordered by virtual time; equal times keep the
            // causal stage order.
            for (std::size_t i = 1; i < tl.ts_ns.size(); ++i) {
                EXPECT_LE(tl.ts_ns[i - 1], tl.ts_ns[i]);
            }
            EXPECT_EQ(tl.stages, spine)
                << "node " << node << " ticket " << tl.ticket;
            if (!tl.stages.empty() && tl.stages.back() == "collect") {
                ++collected;
            }
        }
        // Every request the workload collected, plus the terminate handshake.
        EXPECT_EQ(collected, 2 * rounds + 1) << "node " << node;
    }
    obs::flight_registry::reset();
}

TEST(Postmortem, ResendsAreSentsUnderTheirRequestsTicket) {
    obs::flight_registry::reset();
    auto& registry = aurora::metrics::registry::global();
    const auto labels =
        aurora::metrics::labels({{"backend", "loopback"}, {"node", "1"}});
    auto& retransmits =
        registry.counter_for("aurora_offload_retransmits_total", labels);
    auto& nack_resends =
        registry.counter_for("aurora_offload_corrupt_retries_total", labels);
    const std::uint64_t retransmits_before = retransmits.value();
    const std::uint64_t nack_resends_before = nack_resends.value();
    fault::config chaos;
    chaos.enabled = true;
    chaos.seed = 11;
    chaos.drop_permille = 150;
    chaos.corrupt_permille = 150;
    fault::injector::instance().configure(chaos);
    runtime_options opt;
    opt.backend = backend_kind::loopback;
    opt.reply_timeout_ns = 100'000;
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    const int rc = run(plat, opt, [] {
        for (int i = 0; i < 30; ++i) {
            EXPECT_EQ(sync(1, ham::f2f<&add_one>(double(i))), i + 1.0);
        }
    });
    const fault::counters injected = fault::injector::instance().stats();
    fault::injector::instance().reset();
    ASSERT_EQ(rc, 0);
    const std::uint64_t retransmitted = retransmits.value() - retransmits_before;
    const std::uint64_t nacked = nack_resends.value() - nack_resends_before;
    ASSERT_GT(injected.drops, 0u);
    ASSERT_GT(injected.corruptions, 0u);
    ASSERT_GT(retransmitted, 0u);
    ASSERT_GT(nacked, 0u);
    ASSERT_EQ(obs::flight_registry::find(1)->dropped(), 0u);

    std::uint64_t extra_sends = 0;
    for (const dumped_timeline& tl : on_demand_dump(1)) {
        EXPECT_NE(tl.ticket, 0u);
        ASSERT_FALSE(tl.stages.empty());
        EXPECT_EQ(tl.stages.front(), "post") << "ticket " << tl.ticket;
        EXPECT_EQ(tl.stages.back(), "collect") << "ticket " << tl.ticket;
        const int sends = sends_of(tl);
        EXPECT_GE(sends, 1) << "ticket " << tl.ticket;
        extra_sends += static_cast<std::uint64_t>(sends - 1);
    }
    EXPECT_EQ(extra_sends, retransmitted + nacked);
    obs::flight_registry::reset();
}

TEST(Postmortem, ReplaysRepostTheirTicketInTheNewEpoch) {
    obs::flight_registry::reset();
    fault::injector::instance().kill_after_messages(1, 3);
    runtime_options opt;
    opt.backend = backend_kind::loopback;
    opt.reply_timeout_ns = 100'000;
    opt.max_retries = 2;
    opt.recovery.enabled = true;
    opt.recovery.backoff_ns = 50'000;
    std::uint64_t replayed = 0;
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    const int rc = run(plat, opt, [&replayed] {
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(sync(1, ham::f2f<&add_one>(double(i))), i + 1.0);
        }
        replayed = runtime::current()->runtime_stats(1).replayed;
    });
    fault::injector::instance().reset();
    ASSERT_EQ(rc, 0);
    ASSERT_GT(replayed, 0u);
    ASSERT_EQ(obs::flight_registry::find(1)->dropped(), 0u);

    std::uint64_t reposted = 0;
    for (const dumped_timeline& tl : on_demand_dump(1)) {
        EXPECT_NE(tl.ticket, 0u);
        ASSERT_FALSE(tl.stages.empty());
        if (tl.epochs.front() == tl.epochs.back()) {
            EXPECT_EQ(tl.stages, spine) << "ticket " << tl.ticket;
            continue;
        }
        // Posted to the killed incarnation, then reposted, sent, harvested
        // and collected in the respawned one, all under one ticket.
        ++reposted;
        EXPECT_EQ(tl.stages.front(), "post") << "ticket " << tl.ticket;
        EXPECT_EQ(tl.epochs.front(), 0u);
        std::size_t first_new = 0;
        while (tl.epochs[first_new] == 0) {
            ++first_new;
        }
        const std::vector<std::string> in_new_epoch(
            tl.stages.begin() + static_cast<std::ptrdiff_t>(first_new),
            tl.stages.end());
        EXPECT_EQ(in_new_epoch, spine) << "ticket " << tl.ticket;
        EXPECT_EQ(tl.epochs.back(), 1u);
    }
    EXPECT_EQ(reposted, replayed);
    obs::flight_registry::reset();
}

} // namespace
} // namespace ham::offload
