// aurora::obs unit tests: flight-ring wrap-around under concurrent emitters,
// lifecycle correlation keys, timeline reassembly (VE join, overflow
// accounting), and the postmortem JSON shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "trace/trace.hpp"

namespace aurora::obs {
namespace {

TEST(PackRef, RoundTrip) {
    const std::uint64_t r = pack_ref(0xBEEF, 0x1234, 0xAB, stage::harvest);
    EXPECT_EQ(ref_node(r), 0xBEEF);
    EXPECT_EQ(ref_slot(r), 0x1234);
    EXPECT_EQ(ref_epoch(r), 0xAB);
    EXPECT_EQ(ref_stage(r), stage::harvest);
}

TEST(PackRef, StagesDoNotAlias) {
    std::set<std::uint64_t> refs;
    for (const stage s :
         {stage::submit, stage::post, stage::sent, stage::ve_dispatch,
          stage::ve_done, stage::harvest, stage::collect, stage::failed,
          stage::ctx, stage::net_route, stage::net_result}) {
        EXPECT_TRUE(refs.insert(pack_ref(1, 2, 3, s)).second)
            << "stage " << to_string(s) << " aliases another";
    }
}

TEST(TraceContext, WidenInvertsTruncation) {
    const trace_context none;
    EXPECT_FALSE(none.valid());
    EXPECT_EQ(widen_trace_id(0, 5), 0u); // absent stays absent
    const std::uint64_t full = (std::uint64_t{3 + 1} << 32) | 0xC0FFEEu;
    EXPECT_EQ(widen_trace_id(0xC0FFEE, 3), full);
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRing, RecordsUntilCapacityThenDrops) {
    flight_ring ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    for (std::uint64_t t = 1; t <= 6; ++t) {
        ring.note(lifecycle(stage::post, 1, t, std::uint16_t(t), 0, t * 100));
    }
    EXPECT_EQ(ring.pushed(), 6u);
    EXPECT_EQ(ring.dropped(), 2u);
    const auto snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // Oldest first; the two earliest events were overwritten.
    EXPECT_EQ(snap.front().value, 3u);
    EXPECT_EQ(snap.back().value, 6u);
    for (std::size_t i = 1; i < snap.size(); ++i) {
        EXPECT_LT(snap[i - 1].ts_ns, snap[i].ts_ns);
    }
    // The snapshot is the lifecycle form a trace lane carries.
    EXPECT_EQ(snap.front().type, trace::event_type::lifecycle);
    EXPECT_STREQ(snap.front().name, "post");
    EXPECT_EQ(snap.front().ref, pack_ref(1, 3, 0, stage::post));
    EXPECT_EQ(snap.front().ts_ns, 300u);
}

TEST(FlightRing, WrapAroundUnderConcurrentEmitters) {
    // Several threads may note into one target's ring concurrently. The ring
    // must never tear a record: every snapshot entry is either skipped or
    // fully consistent, each note appears at most once, and the snapshot is
    // oldest-first.
    constexpr int threads = 4;
    constexpr int per_thread = 500;
    constexpr std::uint32_t cap = 64;
    constexpr std::uint64_t mask = 0x5A5A5A5Au;
    flight_ring ring(cap);
    std::vector<std::thread> emitters;
    emitters.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        emitters.emplace_back([&ring, t] {
            for (int i = 0; i < per_thread; ++i) {
                // Tag every word with the writer and the iteration (ticket:
                // both; node and epoch: writer; slot: iteration; timestamp:
                // the ticket scrambled) so a torn record shows as a mismatch.
                const std::uint64_t tag =
                    (std::uint64_t(t) << 32) | std::uint64_t(i);
                ring.note(lifecycle(stage::sent, std::uint16_t(t), tag,
                                    std::uint16_t(i), std::uint8_t(t),
                                    tag ^ mask));
            }
        });
    }
    for (std::thread& th : emitters) {
        th.join();
    }
    EXPECT_EQ(ring.pushed(), std::uint64_t(threads) * per_thread);
    EXPECT_EQ(ring.dropped(), std::uint64_t(threads) * per_thread - cap);

    const auto snap = ring.snapshot();
    EXPECT_LE(snap.size(), std::size_t(cap));
    EXPECT_FALSE(snap.empty());
    std::set<std::uint64_t> tags;
    std::vector<std::int64_t> last(threads, -1);
    for (const trace::event& e : snap) {
        const std::uint64_t writer = e.value >> 32;
        const auto iteration = static_cast<std::int64_t>(e.value & 0xFFFFFFFFu);
        ASSERT_LT(writer, std::uint64_t(threads));
        EXPECT_TRUE(tags.insert(e.value).second) << "duplicate " << e.value;
        EXPECT_EQ(ref_stage(e.ref), stage::sent);
        EXPECT_EQ(ref_node(e.ref), writer) << "torn record: ref/ticket";
        EXPECT_EQ(ref_epoch(e.ref), writer) << "torn record: ref/ticket";
        EXPECT_EQ(ref_slot(e.ref), iteration) << "torn record: ref/ticket";
        EXPECT_EQ(e.ts_ns, e.value ^ mask) << "torn record: ts/ticket";
        // Oldest first: each writer's notes keep the order it made them.
        EXPECT_GT(iteration, last[writer]);
        last[writer] = iteration;
    }
}

TEST(FlightRegistry, RingsAreSharedAndEnumerable) {
    flight_registry::reset();
    flight_ring& a = flight_registry::ring_for(11);
    flight_ring& b = flight_registry::ring_for(11);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(flight_registry::find(12), nullptr);
    flight_registry::ring_for(12).note(lifecycle(stage::post, 12, 1, 0, 0, 0));
    const auto nodes = flight_registry::nodes();
    ASSERT_EQ(nodes.size(), 2u);
    EXPECT_EQ(nodes[0], 11);
    EXPECT_EQ(nodes[1], 12);
    flight_registry::reset();
    EXPECT_TRUE(flight_registry::nodes().empty());
}

TEST(Postmortem, JsonCarriesPartialRequestTimelines) {
    flight_registry::reset();
    flight_ring& ring = flight_registry::ring_for(2);
    ring.note(lifecycle(stage::post, 2, 7, 3, 1, 100));
    ring.note(lifecycle(stage::sent, 2, 7, 3, 1, 200));
    ring.note(lifecycle(stage::failed, 2, 7, 3, 1, 900));
    const std::string json = postmortem_json(2, "target_failed", 1, "ve died");
    EXPECT_EQ(json.rfind("{\"node\":2,\"kind\":\"target_failed\",\"epoch\":1,"
                         "\"reason\":\"ve died\",\"recorded\":3,",
                         0),
              0u)
        << json;
    // The rest is timelines_json of the ring reassembled as one lane.
    trace::collector::lane_snapshot lane;
    lane.events = ring.snapshot();
    const std::string body = timelines_json(reassemble({lane}));
    EXPECT_EQ(json.substr(json.find("\"timelines\"")), body.substr(1)) << json;
    EXPECT_NE(json.find("\"ticket\":7"), std::string::npos);
    EXPECT_NE(json.find("\"failed\":true"), std::string::npos);
    EXPECT_NE(json.find("\"stage\":\"failed\""), std::string::npos);
    flight_registry::reset();
}

// --- timeline reassembly -----------------------------------------------------

trace::collector::lane_snapshot lane_of(std::vector<trace::event> events,
                                        std::uint64_t dropped = 0) {
    trace::collector::lane_snapshot l;
    l.name = "test-lane";
    l.events = std::move(events);
    l.dropped = dropped;
    return l;
}

TEST(Reassemble, CompleteTimelineTelescopesExactly) {
    // Host lane knows the ticket; the VE lane only knows (node, slot, epoch).
    const auto host = lane_of({
        lifecycle(stage::submit, 1, 9, 0, 0, 100),
        lifecycle(stage::post, 1, 9, 0, 0, 150),
        lifecycle(stage::sent, 1, 9, 0, 0, 250),
        lifecycle(stage::harvest, 1, 9, 0, 0, 1000),
        lifecycle(stage::collect, 1, 9, 0, 0, 1100),
    });
    const auto ve = lane_of({
        lifecycle(stage::ve_dispatch, 1, 0, 0, 0, 400),
        lifecycle(stage::ve_done, 1, 0, 0, 0, 900),
    });
    const reassembly r = reassemble({host, ve});
    ASSERT_EQ(r.timelines.size(), 1u);
    const timeline& tl = r.timelines.front();
    EXPECT_EQ(tl.node, 1);
    EXPECT_EQ(tl.ticket, 9u);
    EXPECT_TRUE(tl.complete);
    EXPECT_FALSE(tl.failed);
    EXPECT_FALSE(tl.lossy);
    EXPECT_EQ(tl.roundtrip_ns, 850u); // post..harvest
    EXPECT_EQ(tl.stage_ns[std::uint8_t(stage::post)], 50u);         // queue_wait
    EXPECT_EQ(tl.stage_ns[std::uint8_t(stage::sent)], 100u);        // send
    EXPECT_EQ(tl.stage_ns[std::uint8_t(stage::ve_dispatch)], 150u); // flag_poll
    EXPECT_EQ(tl.stage_ns[std::uint8_t(stage::ve_done)], 500u);     // execute
    EXPECT_EQ(tl.stage_ns[std::uint8_t(stage::harvest)], 100u);     // result
    EXPECT_EQ(tl.stage_ns[std::uint8_t(stage::collect)], 100u);     // settle
    // The attribution contract: inner edges sum to the roundtrip exactly.
    EXPECT_EQ(tl.stage_ns[std::uint8_t(stage::sent)] +
                  tl.stage_ns[std::uint8_t(stage::ve_dispatch)] +
                  tl.stage_ns[std::uint8_t(stage::ve_done)] +
                  tl.stage_ns[std::uint8_t(stage::harvest)],
              tl.roundtrip_ns);
    EXPECT_EQ(r.dropped_events, 0u);
}

TEST(Reassemble, VeEventsJoinTheLatestPrecedingPostOnTheirSlot) {
    // Two requests reuse slot 0 back to back; each VE event must join the
    // post that owned the slot at that virtual time, never a later one.
    const auto host = lane_of({
        lifecycle(stage::post, 1, 1, 0, 0, 100),
        lifecycle(stage::sent, 1, 1, 0, 0, 110),
        lifecycle(stage::harvest, 1, 1, 0, 0, 500),
        lifecycle(stage::post, 1, 2, 0, 0, 600),
        lifecycle(stage::sent, 1, 2, 0, 0, 610),
        lifecycle(stage::harvest, 1, 2, 0, 0, 900),
    });
    const auto ve = lane_of({
        lifecycle(stage::ve_dispatch, 1, 0, 0, 0, 200),
        lifecycle(stage::ve_done, 1, 0, 0, 0, 400),
        lifecycle(stage::ve_dispatch, 1, 0, 0, 0, 700),
        lifecycle(stage::ve_done, 1, 0, 0, 0, 800),
    });
    const reassembly r = reassemble({host, ve});
    ASSERT_EQ(r.timelines.size(), 2u);
    EXPECT_EQ(r.timelines[0].ticket, 1u);
    EXPECT_TRUE(r.timelines[0].complete);
    EXPECT_EQ(r.timelines[0].stage_ns[std::uint8_t(stage::ve_done)], 200u);
    EXPECT_EQ(r.timelines[1].ticket, 2u);
    EXPECT_TRUE(r.timelines[1].complete);
    EXPECT_EQ(r.timelines[1].stage_ns[std::uint8_t(stage::ve_done)], 100u);
}

TEST(Reassemble, EpochMismatchNeverJoinsAcrossIncarnations) {
    const auto host = lane_of({
        lifecycle(stage::post, 1, 1, 0, /*epoch=*/0, 100),
        lifecycle(stage::sent, 1, 1, 0, 0, 110),
        lifecycle(stage::harvest, 1, 1, 0, 0, 500),
    });
    // A respawned target (epoch 1) reports on the same slot: stale data that
    // must not masquerade as execution of the epoch-0 request.
    const auto ve = lane_of({
        lifecycle(stage::ve_dispatch, 1, 0, 0, /*epoch=*/1, 200),
        lifecycle(stage::ve_done, 1, 0, 0, 1, 400),
    });
    const reassembly r = reassemble({host, ve});
    ASSERT_EQ(r.timelines.size(), 1u);
    EXPECT_FALSE(r.timelines.front().complete);
    EXPECT_EQ(r.timelines.front().stage_ns[std::uint8_t(stage::ve_done)], 0u);
}

TEST(Reassemble, LaneOverflowMarksTimelinesLossyAndCountsDrops) {
    // Push lifecycle events through a real ring that is too small: the
    // surviving suffix must still reassemble, flagged lossy, with the drop
    // count surfaced (the "dropped_events" marker in the JSON and the
    // aurora_trace_query summary line).
    trace::ring_buffer buf(8);
    for (std::uint64_t t = 1; t <= 6; ++t) {
        buf.push(lifecycle(stage::post, 1, t, std::uint16_t(t), 0, t * 100));
        buf.push(lifecycle(stage::sent, 1, t, std::uint16_t(t), 0, t * 100 + 10));
        buf.push(
            lifecycle(stage::harvest, 1, t, std::uint16_t(t), 0, t * 100 + 50));
    }
    ASSERT_GT(buf.dropped(), 0u);
    trace::collector::lane_snapshot l;
    l.name = "overflowed";
    l.events = buf.snapshot();
    l.dropped = buf.dropped();
    const reassembly r = reassemble({l});
    EXPECT_EQ(r.dropped_events, buf.dropped());
    ASSERT_FALSE(r.timelines.empty());
    for (const timeline& tl : r.timelines) {
        EXPECT_TRUE(tl.lossy) << "ticket " << tl.ticket;
        // No spine (ve events never recorded) => never reported complete.
        EXPECT_FALSE(tl.complete);
    }
    // A lane with drops but no lifecycle events must not inflate the count.
    trace::collector::lane_snapshot unrelated;
    unrelated.name = "spans-only";
    unrelated.dropped = 1000;
    const reassembly r2 = reassemble({l, unrelated});
    EXPECT_EQ(r2.dropped_events, buf.dropped());
}

TEST(Reassemble, CtxBindsTraceIdAndFailureSettles) {
    const std::uint64_t trace_id = widen_trace_id(0xC0DE, 0);
    trace::event ctx;
    ctx.cat = "obs";
    ctx.name = "ctx";
    ctx.ts_ns = 90;
    ctx.value = 5;                 // ticket
    ctx.dur_ns = trace_id;         // full trace id
    ctx.ref = pack_ref(1, /*parent span rides the slot field=*/77, 0,
                       stage::ctx);
    ctx.type = trace::event_type::lifecycle;
    const auto host = lane_of({
        ctx,
        lifecycle(stage::post, 1, 5, 0, 0, 100),
        lifecycle(stage::failed, 1, 5, 0, 0, 900),
    });
    const reassembly r = reassemble({host});
    ASSERT_EQ(r.timelines.size(), 1u);
    const timeline& tl = r.timelines.front();
    EXPECT_EQ(tl.trace_id, trace_id);
    EXPECT_EQ(tl.parent_span, 77);
    EXPECT_TRUE(tl.failed);
    EXPECT_FALSE(tl.complete);
    const std::string json = timelines_json(r);
    EXPECT_NE(json.find("\"failed\":true"), std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
}

// --- gating ------------------------------------------------------------------

TEST(ObsGate, EmitNowRespectsTheSwitch) {
    trace::set_enabled(true);
    trace::collector::instance().reset();
    set_enabled(true);
    emit_now(stage::post, 1, 1, 0, 0);
    set_enabled(false);
    emit_now(stage::sent, 1, 1, 0, 0); // must be a no-op
    std::size_t lifecycle_events = 0;
    for (const auto& l : trace::collector::instance().snapshot()) {
        for (const auto& e : l.events) {
            lifecycle_events += e.type == trace::event_type::lifecycle ? 1 : 0;
        }
    }
    EXPECT_EQ(lifecycle_events, 1u);
    // Mint follows the same gate: no context while off.
    EXPECT_FALSE(mint(0).valid());
    set_enabled(true);
    const trace_context c = mint(3);
    EXPECT_TRUE(c.valid());
    EXPECT_EQ(c.trace_id >> 32, 4u); // (origin + 1) << 32 | counter
    set_enabled(false);
    trace::set_enabled(false);
    trace::collector::instance().reset();
}

} // namespace
} // namespace aurora::obs
