// aurora::obs — end-to-end causal request observability.
//
// Three cooperating pieces (docs/TRACING.md, "request timelines & flight
// recorder"):
//
//   * request-lifecycle events: every runtime/scheduler/target/net
//     touchpoint of one offload request is one ticket-keyed
//     trace::event_type::lifecycle record (lifecycle() below) in the trace
//     lanes (one per simulated process). A request is identified by
//     (node, ticket) — tickets are per-target counters in the runtime, node
//     is the machine-unique global id (runtime_options::node_base + local
//     node). VE-side touchpoints do not know the ticket (the wire
//     deliberately carries none on the single-machine protocols); they are
//     keyed (node, slot) and re-joined by the timeline reassembler, which
//     exploits the fact that a slot is strictly serialised in virtual time: a
//     VE event belongs to the latest host `post` on the same slot that
//     precedes it.
//
//   * trace-context propagation (cluster tier): aurora::net frames carry a
//     64-bit trace id and a 16-bit parent span id in the routing header's
//     reserved bytes (13..15 / 20..23, see docs/PROTOCOLS.md). The context is
//     all-zero when request tracing is off, keeping every frame byte-identical
//     to the pre-obs wire. Node-0 single-machine frames carry nothing — they
//     are correlated by (target, ticket, epoch) instead, so the fig9/fig10
//     fast-path guarantee holds.
//
//   * an always-on bounded flight recorder (obs/flight.hpp): a per-target
//     black-box ring of the same lifecycle events, written by the offload
//     runtime alone (post, every accepted wire send, harvest, collect,
//     failed), dumped as a timelines document when a target fails or enters
//     recovery, and on demand via `aurora_info --flight`.
//
// Cost discipline mirrors aurora::trace: disabled, every emit helper is one
// relaxed atomic load and a predictable branch; enabled, one ring-buffer
// store. The flight recorder is always on and costs a handful of relaxed
// atomic stores per touchpoint — it never allocates after construction and
// never takes a lock on the hot path.
//
// Gating: request tracing is aurora::trace's switch (HAM_AURORA_TRACE);
// lifecycle events ride the trace lanes.
#pragma once

#include <cstdint>

#include "trace/trace.hpp"

namespace aurora::obs {

/// Request-lifecycle touchpoints, in causal order along the critical path.
/// The edge *into* each stage is the attributed duration (timeline.hpp):
///   queue_wait = submit..post      (scheduler ready-queue wait)
///   send       = post..sent        (slot bookkeeping + wire send)
///   flag_poll  = sent..ve_dispatch (transport + target receive poll)
///   execute    = ve_dispatch..ve_done (handler execution)
///   result     = ve_done..harvest  (result transfer + host poll)
///   settle     = harvest..collect  (future delivery to the caller)
enum class stage : std::uint8_t {
    submit = 1,  ///< scheduler accepted the task (host, has ticket at dispatch)
    post,        ///< runtime bound the request to a slot
    sent,        ///< backend accepted the wire message
    ve_dispatch, ///< target loop received the message (keyed by slot)
    ve_done,     ///< handler finished, result about to ship (keyed by slot)
    harvest,     ///< host harvested the result flag/payload
    collect,     ///< future delivered to the caller
    failed,      ///< request settled as failed (target death)
    ctx,         ///< trace-context binding (value=ticket, dur_ns=trace id)
    net_route,   ///< origin VH routed a cluster frame to a gateway
    net_result,  ///< origin VH received the gateway's result frame
    shed,        ///< admission control rejected/cancelled the request
    expired,     ///< deadline passed before dispatch; request cancelled
};

[[nodiscard]] const char* to_string(stage s) noexcept;

/// Number of distinct attributable critical-path stages (timeline.hpp).
inline constexpr std::size_t num_stages = 14;

/// Lifecycle correlation key packed into trace::event::ref:
/// node u16 << 32 | slot u16 << 16 | epoch u8 << 8 | stage u8.
[[nodiscard]] constexpr std::uint64_t pack_ref(std::uint16_t node,
                                               std::uint16_t slot,
                                               std::uint8_t epoch,
                                               stage s) noexcept {
    return (std::uint64_t{node} << 32) | (std::uint64_t{slot} << 16) |
           (std::uint64_t{epoch} << 8) | std::uint64_t{std::uint8_t(s)};
}

[[nodiscard]] constexpr std::uint16_t ref_node(std::uint64_t ref) noexcept {
    return static_cast<std::uint16_t>(ref >> 32);
}
[[nodiscard]] constexpr std::uint16_t ref_slot(std::uint64_t ref) noexcept {
    return static_cast<std::uint16_t>(ref >> 16);
}
[[nodiscard]] constexpr std::uint8_t ref_epoch(std::uint64_t ref) noexcept {
    return static_cast<std::uint8_t>(ref >> 8);
}
[[nodiscard]] constexpr stage ref_stage(std::uint64_t ref) noexcept {
    return static_cast<stage>(ref & 0xff);
}

/// Forwards to trace::set_enabled: request tracing has no switch of its own.
inline void set_enabled(bool on) noexcept { trace::set_enabled(on); }

/// The lifecycle event of one touchpoint at virtual time `ts_ns` — the one
/// record form of a request touchpoint, in a trace lane and in a flight ring.
/// `ticket` is the per-target request ticket (0 for VE-side events, which are
/// re-keyed by slot).
[[nodiscard]] trace::event lifecycle(stage s, std::uint16_t node,
                                     std::uint64_t ticket, std::uint16_t slot,
                                     std::uint8_t epoch,
                                     std::uint64_t ts_ns) noexcept;

/// Record lifecycle(...) in the current trace lane while tracing is on.
inline void emit(stage s, std::uint16_t node, std::uint64_t ticket,
                 std::uint16_t slot, std::uint8_t epoch, std::uint64_t ts_ns) {
    if (trace::enabled()) {
        trace::emit(lifecycle(s, node, ticket, slot, epoch, ts_ns));
    }
}

/// Convenience: touchpoint at trace::clock_ns().
inline void emit_now(stage s, std::uint16_t node, std::uint64_t ticket,
                     std::uint16_t slot, std::uint8_t epoch) {
    if (trace::enabled()) {
        trace::emit(lifecycle(s, node, ticket, slot, epoch, trace::clock_ns()));
    }
}

// --- trace-context propagation (cluster tier) -------------------------------

/// Context carried in aurora::net routing headers. `trace_id` is globally
/// unique: (origin node + 1) << 32 | a process-wide counter; only the low 32
/// bits travel on the wire (the receiver reconstructs the rest from
/// src_node). An all-zero context means "absent" and encodes as the legacy
/// all-zero reserved bytes.
struct trace_context {
    std::uint64_t trace_id = 0;
    std::uint16_t parent_span = 0;
    [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

/// Mint a fresh context for a request originating on `origin_node`.
/// Returns an invalid context when request tracing is off.
[[nodiscard]] trace_context mint(std::uint16_t origin_node) noexcept;

/// Reconstruct the full 64-bit id from the 32 wire bits and the frame's
/// src_node (inverse of the truncation in protocol::encode_routing).
[[nodiscard]] constexpr std::uint64_t
widen_trace_id(std::uint32_t trace_lo, std::uint16_t src_node) noexcept {
    return trace_lo == 0 ? 0
                         : ((std::uint64_t{src_node} + 1) << 32) | trace_lo;
}

/// Bind (node, ticket) to a trace context on the current lane: the timeline
/// reassembler attaches trace_id / parent_span to the matching request, which
/// is how cross-hop causality joins (origin ticket <-> gateway-local ticket
/// share one trace id).
void emit_ctx(std::uint16_t node, std::uint64_t ticket,
              const trace_context& ctx);

} // namespace aurora::obs
