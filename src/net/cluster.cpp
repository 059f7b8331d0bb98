#include "net/cluster.hpp"

#include <cstring>
#include <utility>

#include "ham/execution_context.hpp"
#include "ham/handler_registry.hpp"
#include "obs/obs.hpp"
#include "offload/app_image.hpp"
#include "offload/target.hpp"
#include "sim/pass.hpp"
#include "util/check.hpp"

namespace aurora::net {

namespace proto = ham::offload::protocol;
using ham::offload::node_t;
using ham::offload::target_health;

namespace {

/// [result_header{target_failed}][reason] — the same synthetic settlement
/// shape runtime::settle_failed() produces locally.
std::vector<std::byte> synthetic_failed(const std::string& why) {
    proto::result_header h;
    h.status = proto::status::target_failed;
    std::vector<std::byte> bytes(sizeof(h) + why.size());
    std::memcpy(bytes.data(), &h, sizeof(h));
    std::memcpy(bytes.data() + sizeof(h), why.data(), why.size());
    return bytes;
}

} // namespace

/// One remote VH: the link, the gateway process's shared state, and the
/// origin-side ticket bookkeeping. All fields are shared memory between the
/// origin process and the gateway process — legal without locks because the
/// cooperative simulator runs one process at a time.
struct cluster::gateway {
    gateway(int vh_, link_profile profile)
        : vh(vh_), link(std::move(profile), vh_) {}

    int vh;
    inter_node_channel link;

    // --- gateway-process side ------------------------------------------------
    ham::offload::runtime* rt = nullptr; ///< valid from started until done
    bool started = false;
    bool done = false;
    bool terminate = false; ///< the terminate frame arrived
    sim::process* proc = nullptr;

    /// A routed message posted into the gateway runtime, awaiting its result.
    struct flight {
        int ve = 0;
        std::uint64_t local_ticket = 0;
        std::uint32_t local_slot = 0;
        std::uint64_t origin_ticket = 0;
        proto::msg_kind kind = proto::msg_kind::user;
        aurora::obs::trace_context ctx; ///< echoed on the result frame
    };
    std::deque<flight> flights;
    /// Per-VE parked frames (no free slot / VE recovering): a stalled VE must
    /// not block the other tenants of this node.
    struct parked_frame {
        std::uint64_t ticket = 0;
        std::vector<std::byte> payload;
        proto::msg_kind kind = proto::msg_kind::user;
        aurora::obs::trace_context ctx;
    };
    std::map<int, std::deque<parked_frame>> parked;
    /// Result frames the link refused (window full), oldest first.
    std::deque<std::vector<std::byte>> outbox;

    // --- origin side ---------------------------------------------------------
    std::uint64_t next_ticket = 1;
    std::size_t inflight = 0; ///< tickets issued, result not yet consumed
    std::map<std::uint64_t, std::vector<std::byte>> arrived;
    std::vector<std::uint8_t> epochs; ///< last epoch seen per VE (index ve)

    metrics::gauge* health_gauge = nullptr;
    metrics::counter* forwarded = nullptr;
    metrics::counter* returned = nullptr;
};

cluster::cluster(sim::platform& plat, cluster_options opt)
    : plat_(plat), opt_(std::move(opt)) {
    AURORA_CHECK_MSG(opt_.nodes >= 1, "cluster needs at least the origin node");
    AURORA_CHECK_MSG(opt_.ves_per_node >= 1, "cluster needs VEs per node");
    origin_ = ham::offload::runtime::current();
    AURORA_CHECK_MSG(origin_ != nullptr,
                     "cluster must be constructed inside offload::run()");
    auto& reg = metrics::registry::global();
    for (int vh = 1; vh < opt_.nodes; ++vh) {
        gateways_.push_back(std::make_unique<gateway>(vh, opt_.link));
        gateway& g = *gateways_.back();
        g.epochs.assign(static_cast<std::size_t>(opt_.ves_per_node) + 1, 0);
        const std::string l =
            metrics::labels({{"node", std::to_string(vh)}});
        g.health_gauge = &reg.gauge_for(
            "aurora_net_node_health", l,
            "Aggregate VH-node health (0 healthy, 1 degraded, 2 failed, "
            "3 recovering, 4 probation).");
        g.forwarded = &reg.counter_for(
            "aurora_net_frames_forwarded_total", l,
            "Routed frames a gateway re-posted into its local runtime.");
        g.returned = &reg.counter_for(
            "aurora_net_results_returned_total", l,
            "Result frames a gateway routed back to the origin.");
        g.proc = &plat_.sim().spawn(
            "VH" + std::to_string(vh) + ".gateway", [this, &g] { run_gateway(g); });
    }
    // Let every gateway finish booting its runtime (VE attach) so health and
    // memory operations are well-defined the moment the constructor returns.
    const auto started = [](const void* g, std::uint64_t) {
        return static_cast<const gateway*>(g)->started ? 0 : sim::never;
    };
    for (auto& up : gateways_) {
        sim::pass_loop loop("net::cluster::boot");
        for (; !sim::pass::live(started, up.get()); loop.begin()) {
            loop.park(origin_->costs().local_poll_ns);
        }
    }
    // node 0's health gauge completes the per-node family for the tools.
    publish_node_health(0);
}

cluster::~cluster() {
    try {
        for (auto& up : gateways_) {
            gateway& g = *up;
            proto::routing_header h;
            h.src_node = 0;
            h.dst_node = static_cast<std::uint16_t>(g.vh);
            h.target = 0;
            h.kind = proto::msg_kind::terminate;
            h.ticket = 0;
            std::vector<std::byte> frame =
                proto::make_routed_frame(h, nullptr, 0);
            send_blocking(g, frame);
        }
        for (auto& up : gateways_) {
            sim::join(*up->proc);
        }
    } catch (const sim::simulation_aborted&) {
        // unwinding an aborted simulation — nothing more to do
    }
}

// --- gateway process ---------------------------------------------------------

void cluster::run_gateway(gateway& g) {
    // The same scaffolding as a host process (run.cpp): image registry,
    // execution/target contexts, then a runtime owning this node's VEs.
    const ham::handler_registry& reg = ham::offload::host_image_registry();
    ham::execution_context::scope image_scope(reg);
    // Remote node-0 (the gateway VH itself) allocations are never exercised
    // by routed traffic, but the runtime scaffolding wants a context.
    ham::offload::direct_memory gmem;
    ham::offload::target_context gctx(0, ham::offload::target_context::device::vh,
                                      &gmem, &plat_.costs());
    ham::offload::target_context::scope ctx_scope(gctx);

    ham::offload::runtime_options ropt = opt_.remote;
    ropt.backend = ham::offload::backend_kind::loopback;
    ropt.targets.assign(static_cast<std::size_t>(opt_.ves_per_node), 0);
    ropt.node_base = g.vh * opt_.ves_per_node;
    {
        ham::offload::runtime rt(plat_.sim(), nullptr, reg, ropt);
        ham::offload::runtime::scope rt_scope(rt);
        g.rt = &rt;
        g.started = true;
        sim::pass_loop loop("net::cluster::gateway");
        for (;; loop.begin()) {
            const pass_end r = gateway_pass(g, rt);
            if (r == pass_end::finished) {
                break;
            }
            if (r == pass_end::idle) {
                loop.park(rt.costs().local_poll_ns); // the pass's pause
            }
        }
        g.rt = nullptr;
        // runtime destructor: orderly terminate handshake with this node's VEs.
    }
    g.done = true;
}

cluster::pass_end cluster::gateway_pass(gateway& g, ham::offload::runtime& rt) {
    bool progress = false;
    auto settle = [&](std::uint64_t origin_ticket, int ve,
                      const aurora::obs::trace_context& ctx) {
        // Terminal VE failure: answer with the same synthetic settlement the
        // origin's own runtime would have produced, so the waiting future
        // fails with target_failed_error instead of stalling the cluster.
        const std::vector<std::byte> bytes =
            synthetic_failed("remote node " + std::to_string(g.vh) + " VE " +
                             std::to_string(ve) + " failed: " +
                             rt.failure_reason(ve));
        g.outbox.push_back(result_frame(g, ve, origin_ticket, bytes, ctx));
    };
    auto post = [&](std::uint64_t origin_ticket, int ve,
                    const std::vector<std::byte>& payload, proto::msg_kind kind,
                    const aurora::obs::trace_context& ctx) -> bool {
        ham::offload::runtime::sent_message sent;
        if (!rt.try_send_message(ve, payload.data(), payload.size(), sent, kind)) {
            return false;
        }
        if (ctx.valid()) {
            // Cross-hop causality: the gateway-local request joins the trace
            // the origin minted (same trace id, new hop).
            aurora::obs::emit_ctx(
                static_cast<std::uint16_t>(rt.options().node_base + ve),
                sent.ticket, ctx);
        }
        g.flights.push_back(
            {ve, sent.ticket, sent.slot, origin_ticket, kind, ctx});
        g.forwarded->add(1);
        return true;
    };

    // 1. Inbound frames: route to a VE, execute a memory op, or begin the
    //    shutdown handshake.
    std::vector<std::byte> frame;
    while (g.link.try_recv(0, frame)) {
        progress = true;
        AURORA_CHECK_MSG(proto::is_routed(frame.data(), frame.size()),
                         "gateway received an unrouted frame");
        proto::routing_header h = proto::decode_routing(frame.data());
        ++h.hops;
        aurora::obs::trace_context ctx;
        if (h.has_trace_context()) {
            ctx.trace_id = aurora::obs::widen_trace_id(h.trace_lo, h.src_node);
            ctx.parent_span = h.parent_span;
        }
        std::vector<std::byte> payload(
            frame.begin() +
                static_cast<std::ptrdiff_t>(proto::routing_header_bytes),
            frame.end());
        switch (h.kind) {
            case proto::msg_kind::terminate:
                g.terminate = true;
                break;
            case proto::msg_kind::data_put:
            case proto::msg_kind::data_get:
                g.outbox.push_back(result_frame(
                    g, h.target, h.ticket, serve_mem_request(rt, payload), ctx));
                break;
            default:
                if (!post(h.ticket, h.target, payload, h.kind, ctx)) {
                    g.parked[h.target].push_back(
                        {h.ticket, std::move(payload), h.kind, ctx});
                }
                break;
        }
    }

    // 2. Parked frames: retry per VE; a terminally failed VE settles its
    //    whole queue so no other tenant ever waits behind it.
    for (auto& [ve, q] : g.parked) {
        if (q.empty()) {
            continue;
        }
        if (rt.health(ve) == target_health::failed) {
            for (const auto& p : q) {
                settle(p.ticket, ve, p.ctx);
            }
            q.clear();
            progress = true;
            continue;
        }
        while (!q.empty() && post(q.front().ticket, ve, q.front().payload,
                                  q.front().kind, q.front().ctx)) {
            q.pop_front();
            progress = true;
        }
    }

    // 3. Completed offloads: forward results (FIFO front-probe per the slot
    //    discipline; later flights cannot complete earlier).
    for (std::size_t i = 0; i < g.flights.size();) {
        gateway::flight& f = g.flights[i];
        std::vector<std::byte> bytes;
        if (rt.try_collect(f.ve, f.local_ticket, f.local_slot, bytes)) {
            g.outbox.push_back(
                result_frame(g, f.ve, f.origin_ticket, bytes, f.ctx));
            g.flights.erase(g.flights.begin() + static_cast<std::ptrdiff_t>(i));
            progress = true;
        } else {
            ++i;
        }
    }

    // 4. Flush the outbox through the link's backpressure window.
    while (!g.outbox.empty() && g.link.try_send(1, std::move(g.outbox.front()))) {
        g.outbox.pop_front();
        g.returned->add(1);
        progress = true;
    }

    publish_node_health(g.vh);

    if (g.terminate && g.flights.empty() && g.outbox.empty()) {
        bool parked_left = false;
        for (const auto& [ve, q] : g.parked) {
            parked_left = parked_left || !q.empty();
        }
        if (!parked_left) {
            return pass_end::finished;
        }
    }
    return progress ? pass_end::progress : pass_end::idle;
}

std::vector<std::byte>
cluster::result_frame(gateway& g, int ve, std::uint64_t origin_ticket,
                      const std::vector<std::byte>& bytes,
                      const aurora::obs::trace_context& ctx) {
    proto::routing_header h;
    h.src_node = static_cast<std::uint16_t>(g.vh);
    h.dst_node = 0;
    h.target = static_cast<std::uint16_t>(ve);
    h.kind = proto::msg_kind::user;
    h.flags = proto::routing_flags::result;
    h.ticket = origin_ticket;
    h.epoch = g.rt != nullptr && ve > 0 ? g.rt->target_epoch(ve) : 0;
    if (ctx.valid()) {
        // Echo the request's context verbatim (trace_lo keeps the low half
        // the origin minted; the origin correlates by ticket, not by
        // re-widening against this frame's src_node).
        h.obs_flags = proto::obs_flags::trace_context;
        h.parent_span = ctx.parent_span;
        h.trace_lo = static_cast<std::uint32_t>(ctx.trace_id);
    }
    return proto::make_routed_frame(h, bytes.data(), bytes.size());
}

std::vector<std::byte>
cluster::serve_mem_request(ham::offload::runtime& rt,
                           const std::vector<std::byte>& payload) {
    AURORA_CHECK(payload.size() >= sizeof(mem_request));
    mem_request req;
    std::memcpy(&req, payload.data(), sizeof(req));
    const int ve = req.ve;
    switch (req.o) {
        case mem_request::op::alloc: {
            const std::uint64_t addr = rt.allocate_raw(ve, req.len);
            std::vector<std::byte> reply(sizeof(addr));
            std::memcpy(reply.data(), &addr, sizeof(addr));
            return reply;
        }
        case mem_request::op::free_mem:
            rt.free_raw(ve, req.addr);
            return {};
        case mem_request::op::put:
            AURORA_CHECK(payload.size() == sizeof(req) + req.len);
            rt.put_raw(ve, payload.data() + sizeof(req), req.addr, req.len);
            return {};
        case mem_request::op::get: {
            std::vector<std::byte> reply(req.len);
            rt.get_raw(ve, req.addr, reply.data(), req.len);
            return reply;
        }
    }
    AURORA_CHECK_MSG(false, "bad mem_request op");
    return {};
}

// --- origin side -------------------------------------------------------------

ham::offload::runtime& cluster::origin() {
    AURORA_CHECK(origin_ != nullptr);
    return *origin_;
}

int cluster::local_ve(int vh, node_t gid) const {
    const int ve = static_cast<int>(gid) - vh * opt_.ves_per_node;
    AURORA_CHECK_MSG(ve >= 1 && ve <= opt_.ves_per_node,
                     "buffer does not live on VH " + std::to_string(vh));
    return ve;
}

cluster::gateway& cluster::gw(int vh) {
    AURORA_CHECK_MSG(vh >= 1 && vh < opt_.nodes,
                     "no such remote node: " + std::to_string(vh));
    return *gateways_[static_cast<std::size_t>(vh) - 1];
}

const cluster::gateway& cluster::gw(int vh) const {
    AURORA_CHECK_MSG(vh >= 1 && vh < opt_.nodes,
                     "no such remote node: " + std::to_string(vh));
    return *gateways_[static_cast<std::size_t>(vh) - 1];
}

void cluster::drain_results(gateway& g) {
    std::vector<std::byte> frame;
    while (g.link.try_recv(1, frame)) {
        AURORA_CHECK_MSG(proto::is_routed(frame.data(), frame.size()),
                         "origin received an unrouted frame");
        const proto::routing_header h = proto::decode_routing(frame.data());
        AURORA_CHECK_MSG(h.is_result(), "origin received a non-result frame");
        if (h.target < g.epochs.size()) {
            g.epochs[h.target] = h.epoch;
        }
        if (h.has_trace_context()) {
            aurora::obs::emit_now(
                aurora::obs::stage::net_result,
                static_cast<std::uint16_t>(g.vh * opt_.ves_per_node), h.ticket,
                0, h.epoch);
        }
        g.arrived.emplace(
            h.ticket,
            std::vector<std::byte>(
                frame.begin() +
                    static_cast<std::ptrdiff_t>(proto::routing_header_bytes),
                frame.end()));
    }
}

std::uint64_t cluster::route_frame(gateway& g, int ve, proto::msg_kind kind,
                                   const void* payload, std::size_t len) {
    const std::uint64_t ticket = g.next_ticket++;
    proto::routing_header h;
    h.src_node = 0;
    h.dst_node = static_cast<std::uint16_t>(g.vh);
    h.target = static_cast<std::uint16_t>(ve);
    h.kind = kind;
    h.ticket = ticket;
    // Trace-context propagation: mint a cluster-unique trace id, bind the
    // origin-side ticket to it, and stamp the reserved header bytes. When
    // request tracing is off the context is invalid and the bytes stay zero —
    // the frame is byte-identical to the pre-obs wire.
    aurora::obs::trace_context ctx = aurora::obs::mint(h.src_node);
    if (ctx.valid()) {
        ctx.parent_span = static_cast<std::uint16_t>(ticket);
        h.obs_flags = proto::obs_flags::trace_context;
        h.parent_span = ctx.parent_span;
        h.trace_lo = static_cast<std::uint32_t>(ctx.trace_id);
        // The origin-side hop is keyed to the gateway's pseudo-node id (its
        // node_base — no VE uses it), under the origin-issued ticket.
        const auto pseudo = static_cast<std::uint16_t>(g.vh * opt_.ves_per_node);
        aurora::obs::emit_ctx(pseudo, ticket, ctx);
        aurora::obs::emit_now(aurora::obs::stage::net_route, pseudo, ticket, 0,
                              0);
    }
    std::vector<std::byte> frame = proto::make_routed_frame(
        h, static_cast<const std::byte*>(payload), len);
    send_blocking(g, frame);
    ++g.inflight;
    return ticket;
}

void cluster::send_blocking(gateway& g, std::vector<std::byte>& frame) {
    // Block (virtual time) under link backpressure, draining completions so
    // the window can free up.
    sim::pass_loop loop("net::cluster::send_blocking");
    for (; !g.link.try_send(0, std::move(frame)); loop.begin()) {
        drain_results(g);
        loop.park(origin().costs().local_poll_ns);
    }
}

cluster::routed_send cluster::submit_raw(int vh, int ve, const void* msg,
                                         std::size_t len,
                                         proto::msg_kind kind) {
    AURORA_CHECK_MSG(ve >= 1 && ve <= opt_.ves_per_node,
                     "VE out of range: " + std::to_string(ve));
    if (vh == 0) {
        // Legacy path: the origin runtime's own wire, byte-identical.
        const ham::offload::runtime::sent_message sent =
            origin().send_message(ve, msg, len, kind);
        return {static_cast<node_t>(ve), sent.ticket, sent.slot};
    }
    gateway& g = gw(vh);
    const std::uint64_t ticket = route_frame(g, ve, kind, msg, len);
    return {static_cast<node_t>(vh), ticket, 0};
}

std::vector<std::byte> cluster::mem_roundtrip(int vh, const mem_request& req,
                                              const void* data,
                                              std::size_t len) {
    gateway& g = gw(vh);
    std::vector<std::byte> payload(sizeof(req) + len);
    std::memcpy(payload.data(), &req, sizeof(req));
    if (len > 0) {
        std::memcpy(payload.data() + sizeof(req), data, len);
    }
    const proto::msg_kind kind = req.o == mem_request::op::get
                                     ? proto::msg_kind::data_get
                                     : proto::msg_kind::data_put;
    const std::uint64_t ticket =
        route_frame(g, req.ve, kind, payload.data(), payload.size());
    std::vector<std::byte> reply;
    wait_collect_until(static_cast<node_t>(vh), ticket, 0, reply,
                       ham::offload::detail::no_deadline);
    return reply;
}

std::uint64_t cluster::allocate_raw(int vh, int ve, std::uint64_t bytes) {
    if (vh == 0) {
        return origin().allocate_raw(ve, bytes);
    }
    mem_request req;
    req.o = mem_request::op::alloc;
    req.ve = static_cast<std::uint16_t>(ve);
    req.len = bytes;
    const std::vector<std::byte> reply = mem_roundtrip(vh, req, nullptr, 0);
    AURORA_CHECK(reply.size() == sizeof(std::uint64_t));
    std::uint64_t addr = 0;
    std::memcpy(&addr, reply.data(), sizeof(addr));
    return addr;
}

void cluster::free_raw(int vh, int ve, std::uint64_t addr) {
    if (vh == 0) {
        origin().free_raw(ve, addr);
        return;
    }
    mem_request req;
    req.o = mem_request::op::free_mem;
    req.ve = static_cast<std::uint16_t>(ve);
    req.addr = addr;
    mem_roundtrip(vh, req, nullptr, 0);
}

void cluster::put_raw(int vh, int ve, const void* src, std::uint64_t dst,
                      std::uint64_t len) {
    if (vh == 0) {
        origin().put_raw(ve, src, dst, len);
        return;
    }
    mem_request req;
    req.o = mem_request::op::put;
    req.ve = static_cast<std::uint16_t>(ve);
    req.addr = dst;
    req.len = len;
    mem_roundtrip(vh, req, src, len);
}

void cluster::get_raw(int vh, int ve, std::uint64_t src, void* dst,
                      std::uint64_t len) {
    if (vh == 0) {
        origin().get_raw(ve, src, dst, len);
        return;
    }
    mem_request req;
    req.o = mem_request::op::get;
    req.ve = static_cast<std::uint16_t>(ve);
    req.addr = src;
    req.len = len;
    const std::vector<std::byte> reply = mem_roundtrip(vh, req, nullptr, 0);
    AURORA_CHECK(reply.size() == len);
    std::memcpy(dst, reply.data(), len);
}

target_health cluster::engine_health(int vh, int ve) {
    if (vh == 0) {
        return origin().health(ve);
    }
    gateway& g = gw(vh);
    if (g.rt == nullptr) {
        return target_health::failed; // gateway exited
    }
    return g.rt->health(ve);
}

std::uint32_t cluster::engine_probation(int vh, int ve) {
    if (vh == 0) {
        return origin().probation_progress(ve);
    }
    gateway& g = gw(vh);
    return g.rt != nullptr ? g.rt->probation_progress(ve) : 0;
}

std::uint8_t cluster::observed_epoch(int vh, int ve) const {
    const gateway& g = gw(vh);
    return static_cast<std::size_t>(ve) < g.epochs.size()
               ? g.epochs[static_cast<std::size_t>(ve)]
               : 0;
}

node_status cluster::status(int vh) {
    node_status s;
    s.ves_total = vh == 0 ? static_cast<int>(origin().num_nodes()) - 1
                          : opt_.ves_per_node;
    for (int ve = 1; ve <= s.ves_total; ++ve) {
        switch (engine_health(vh, ve)) {
            case target_health::healthy:
            case target_health::degraded:
            case target_health::probation:
                ++s.ves_healthy;
                break;
            case target_health::recovering:
                ++s.ves_recovering;
                break;
            case target_health::failed:
                ++s.ves_failed;
                break;
        }
    }
    if (s.ves_failed == s.ves_total) {
        s.health = target_health::failed;
    } else if (s.ves_recovering > 0) {
        s.health = target_health::recovering;
    } else if (s.ves_healthy < s.ves_total) {
        s.health = target_health::degraded;
    }
    if (vh > 0) {
        s.link_depth = gw(vh).link.queue_depth();
    }
    return s;
}

std::size_t cluster::outstanding(int vh) const {
    // Tickets issued whose result has not been delivered yet (frames already
    // arrived but not consumed by their future do not count as outstanding).
    // Node 0's futures are tracked by the origin runtime itself.
    if (vh == 0) {
        return 0;
    }
    const gateway& g = gw(vh);
    return g.inflight - g.arrived.size();
}

// --- sched::engine_set --------------------------------------------------------

std::pair<int, int> cluster::engine_at(std::size_t e) const {
    const std::size_t origin_ves = origin_->num_nodes() - 1;
    if (e < origin_ves) {
        return {0, static_cast<int>(e) + 1};
    }
    const auto r = static_cast<int>(e - origin_ves);
    return {1 + r / opt_.ves_per_node, 1 + r % opt_.ves_per_node};
}

std::size_t cluster::engine_count() const {
    return origin_->num_nodes() - 1 +
           static_cast<std::size_t>((opt_.nodes - 1) * opt_.ves_per_node);
}

node_t cluster::engine_id(std::size_t e) const {
    const auto [vh, ve] = engine_at(e);
    return global_id(vh, ve);
}

int cluster::engine_vh(std::size_t e) const {
    return engine_at(e).first;
}

bool cluster::engine_send(std::size_t e, const void* msg, std::size_t len,
                          proto::msg_kind kind, std::uint64_t queued_ns,
                          ham::offload::future<void>& out) {
    const auto [vh, ve] = engine_at(e);
    if (vh == 0) {
        return origin_engines().engine_send(e, msg, len, kind, queued_ns, out);
    }
    gateway& g = gw(vh);
    if (!g.link.can_send(0)) {
        return false; // route_frame would block on the link's window
    }
    const std::uint64_t ticket = route_frame(g, ve, kind, msg, len);
    out = ham::offload::future<void>::remote(*this, static_cast<node_t>(vh),
                                             ticket, 0);
    return true;
}

target_health cluster::engine_health(std::size_t e) {
    const auto [vh, ve] = engine_at(e);
    return engine_health(vh, ve);
}

std::string cluster::engine_failure(std::size_t e) {
    const auto [vh, ve] = engine_at(e);
    if (vh == 0) {
        return origin_engines().engine_failure(e);
    }
    const gateway& g = gw(vh);
    return g.rt != nullptr ? g.rt->failure_reason(ve)
                           : "gateway of VH " + std::to_string(vh) + " exited";
}

std::uint32_t cluster::engine_probation(std::size_t e) {
    const auto [vh, ve] = engine_at(e);
    return engine_probation(vh, ve);
}

void cluster::engine_poll_recovery(std::size_t e) {
    // A remote gateway drives its own VEs' recovery.
    if (engine_at(e).first == 0) {
        origin_engines().engine_poll_recovery(e);
    }
}

std::uint64_t cluster::engine_version() const {
    std::uint64_t v = origin_->health_version();
    for (const auto& g : gateways_) {
        // A gateway that exited reads as failed everywhere.
        v += g->rt != nullptr ? g->rt->health_version() : std::uint64_t{1} << 48;
    }
    return v;
}

void cluster::publish_node_health(int vh) {
    if (vh == 0) {
        // Registered lazily; node 0 health mirrors the origin runtime.
        auto& gauge = metrics::registry::global().gauge_for(
            "aurora_net_node_health", metrics::labels({{"node", "0"}}),
            "Aggregate VH-node health (0 healthy, 1 degraded, 2 failed, "
            "3 recovering, 4 probation).");
        gauge.set(static_cast<std::int64_t>(status(0).health));
        return;
    }
    gateway& g = gw(vh);
    node_status s;
    // Compute from the gateway side without re-entering status() (which is
    // origin-facing); the gauge encodes the same aggregate.
    if (g.rt != nullptr) {
        int healthy = 0, recovering = 0, failed = 0;
        for (int ve = 1; ve <= opt_.ves_per_node; ++ve) {
            switch (g.rt->health(ve)) {
                case target_health::healthy:
                case target_health::degraded:
                case target_health::probation:
                    ++healthy;
                    break;
                case target_health::recovering:
                    ++recovering;
                    break;
                case target_health::failed:
                    ++failed;
                    break;
            }
        }
        if (failed == opt_.ves_per_node) {
            s.health = target_health::failed;
        } else if (recovering > 0) {
            s.health = target_health::recovering;
        } else if (healthy < opt_.ves_per_node) {
            s.health = target_health::degraded;
        }
    } else {
        s.health = g.started ? target_health::failed : target_health::healthy;
    }
    g.health_gauge->set(static_cast<std::int64_t>(s.health));
}

// --- result_source -----------------------------------------------------------

bool cluster::try_collect(node_t node, std::uint64_t ticket,
                          std::uint32_t /*slot*/, std::vector<std::byte>& out) {
    gateway& g = gw(static_cast<int>(node));
    drain_results(g);
    auto it = g.arrived.find(ticket);
    if (it == g.arrived.end()) {
        return false;
    }
    out = std::move(it->second);
    g.arrived.erase(it);
    --g.inflight;
    return true;
}

bool cluster::wait_collect_until(node_t node, std::uint64_t ticket,
                                 std::uint32_t slot,
                                 std::vector<std::byte>& out,
                                 sim::time_ns deadline_ns) {
    sim::pass_loop loop("net::cluster::wait_collect_until");
    for (; !try_collect(node, ticket, slot, out); loop.begin()) {
        if (sim::pass::at(deadline_ns)) {
            return false;
        }
        loop.park(origin().costs().local_poll_ns);
    }
    return true;
}

} // namespace aurora::net
