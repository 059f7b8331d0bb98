#include "obs/obs.hpp"

#include <atomic>

namespace aurora::obs {

const char* to_string(stage s) noexcept {
    switch (s) {
        case stage::submit: return "submit";
        case stage::post: return "post";
        case stage::sent: return "sent";
        case stage::ve_dispatch: return "ve_dispatch";
        case stage::ve_done: return "ve_done";
        case stage::harvest: return "harvest";
        case stage::collect: return "collect";
        case stage::failed: return "failed";
        case stage::ctx: return "ctx";
        case stage::net_route: return "net_route";
        case stage::net_result: return "net_result";
        case stage::shed: return "shed";
        case stage::expired: return "expired";
    }
    return "?";
}

trace::event lifecycle(stage s, std::uint16_t node, std::uint64_t ticket,
                       std::uint16_t slot, std::uint8_t epoch,
                       std::uint64_t ts_ns) noexcept {
    trace::event e;
    e.cat = "req";
    e.name = to_string(s);
    e.ts_ns = ts_ns;
    e.value = ticket;
    e.ref = pack_ref(node, slot, epoch, s);
    e.type = trace::event_type::lifecycle;
    return e;
}

trace_context mint(std::uint16_t origin_node) noexcept {
    if (!trace::enabled()) {
        return {};
    }
    // Process-wide counter: ids are unique and, because every increment
    // happens at a deterministic point of the virtual-time schedule, stable
    // across runs of the same workload.
    static std::atomic<std::uint32_t> g_next{0};
    const std::uint32_t lo =
        g_next.fetch_add(1, std::memory_order_relaxed) + 1;
    trace_context ctx;
    ctx.trace_id = ((std::uint64_t{origin_node} + 1) << 32) | lo;
    return ctx;
}

void emit_ctx(std::uint16_t node, std::uint64_t ticket,
              const trace_context& ctx) {
    if (!trace::enabled() || !ctx.valid()) {
        return;
    }
    // The parent span rides the slot field, the full trace id dur_ns.
    trace::event e = lifecycle(stage::ctx, node, ticket, ctx.parent_span, 0,
                               trace::clock_ns());
    e.dur_ns = ctx.trace_id;
    trace::emit(e);
}

} // namespace aurora::obs
