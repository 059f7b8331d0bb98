// aurora::obs timeline reassembly — stitch per-request lifecycle events from
// every trace lane into causal request timelines with a critical-path
// breakdown.
//
// A request's host-side events (submit/post/sent/harvest/collect/failed and
// the cluster-tier net_route/net_result) carry its (node, ticket) key
// directly. VE-side events (ve_dispatch/ve_done) carry only (node, slot,
// epoch) — the single-machine wire deliberately transports no ticket — and
// are re-joined here: a message slot is strictly serialised in virtual time
// (the host never reuses a slot before harvesting it), so a VE event belongs
// to the *latest* host `post` on the same (node, slot, epoch) that does not
// postdate it.
//
// Stage attribution telescopes exactly per timeline: each duration is the
// delta between two consecutive retained touchpoints, named after the edge
// into the later stage (see obs.hpp). For a complete timeline
//   send + flag_poll + execute + result == roundtrip (post..harvest)
// holds by construction; `aurora_trace_query --selfcheck` enforces it, and
// the aggregate per-stage percentile sums must reconstruct the roundtrip
// percentiles within 5% — two-sided at p50, one-sided (never less) at p99,
// where heterogeneous tails can legitimately over-count (acceptance gate,
// run by the trace-replay CI job).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "trace/trace.hpp"

namespace aurora::obs {

struct timeline_event {
    stage st = stage::post;
    std::uint64_t ts_ns = 0;
    std::uint16_t slot = 0;
    std::uint8_t epoch = 0;
};

struct timeline {
    std::uint16_t node = 0;
    std::uint64_t ticket = 0;
    std::uint64_t trace_id = 0;    ///< 0 = no cluster trace context bound
    std::uint16_t parent_span = 0;
    bool complete = false; ///< post, sent, ve_dispatch, ve_done, harvest —
                           ///< all present and causally ordered
    bool failed = false;   ///< settled via stage::failed
    bool lossy = false;    ///< a contributing trace lane overflowed: earlier
                           ///< events of this request may have been dropped
    std::vector<timeline_event> events; ///< time-ordered
    /// Duration of the edge into stage s (index = underlying stage value);
    /// only edges with both endpoints retained are non-zero.
    std::array<std::uint64_t, num_stages> stage_ns{};
    std::uint64_t roundtrip_ns = 0; ///< post..harvest (0 if either missing)
};

struct reassembly {
    std::vector<timeline> timelines; ///< ordered by (node, first ts, ticket)
    std::uint64_t dropped_events = 0; ///< wrap-around drops across req lanes
};

/// Critical-path name of the edge *into* stage s ("queue_wait", "send",
/// "flag_poll", "execute", "result", "settle"); nullptr when the stage is
/// not a duration endpoint (ctx, failed, net_*).
[[nodiscard]] const char* edge_name(stage s) noexcept;

/// Stitch the given lanes (or the global collector's current snapshot).
[[nodiscard]] reassembly
reassemble(const std::vector<trace::collector::lane_snapshot>& lanes);
[[nodiscard]] reassembly reassemble();

/// Machine-readable dump consumed by tools/aurora_trace_query. `head`, when
/// given, is written first: JSON object members without a trailing comma
/// (a postmortem's node, kind and reason).
[[nodiscard]] std::string timelines_json(const reassembly& r,
                                         const std::string& head = {});

/// Feed the complete timelines into the metrics registry:
/// aurora_obs_stage_ns{stage=...} log2 histograms plus
/// aurora_obs_roundtrip_ns, all from the same timeline set so per-stage
/// percentile sums are comparable against the roundtrip percentiles.
void record_stage_metrics(const reassembly& r);

/// Honour HAM_AURORA_OBS_FILE: reassemble the global collector, write the
/// timelines JSON there, and record the stage histograms. Called from
/// offload::run teardown next to trace::flush_to_env(). No-op when tracing
/// is off or the variable is unset.
void flush_to_env();

} // namespace aurora::obs
