#include "offload/backend_queue.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "fault/fault.hpp"
#include "offload/heal.hpp"
#include "sim/event.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace ham::offload {

namespace {
/// Bytes on the modelled wire, readable by the peer from `deliver_at` on.
struct parcel {
    std::vector<std::byte> bytes;
    sim::time_ns deliver_at = 0;
};

/// A message on the wire: its flag travels with the payload.
struct packet : parcel {
    protocol::flag_word flag;
};
} // namespace

/// State shared between the host-side backend and the target process.
struct backend_queue::shared_state {
    explicit shared_state(sim::simulation& sim, std::uint32_t slots)
        : inbox(sim), results(slots) {}

    sim::sim_queue<packet> inbox;
    std::vector<parcel> results; ///< empty bytes = no result pending
};

sim::time_ns backend_queue::wire_costs::send(const hop& h,
                                             std::uint64_t bytes) const {
    sim::advance(h.cost(bytes));
    return sim::now() + latency_ns;
}

/// Target-side channel over the shared queues.
class backend_queue::channel final : public target_channel {
public:
    channel(shared_state& s, const kind_profile& kind, std::uint8_t epoch,
            node_t node)
        : s_(s), kind_(kind), epoch_(epoch), node_(node),
          recv_gen_(s.results.size(), 0) {}

    protocol::flag_word recv_next(std::vector<std::byte>& buf) override {
        const wire_costs& w = kind_.wire;
        for (;;) {
            packet pk = s_.inbox.pop();
            if (pk.flag.epoch != epoch_) {
                // Leftover of a previous incarnation still on the wire (stale
                // retransmit or even its poison fence): a recovered target
                // must never act on it. Checked before everything else — a
                // stale poison would otherwise kill the new incarnation.
                heal::note_epoch_reject(kind_.name, node_);
                continue;
            }
            if (pk.flag.kind == protocol::msg_kind::poison) {
                // Host-side fence: unwind the loop without answering.
                throw aurora::fault::target_killed{};
            }
            // Honour the wire latency: the packet is readable only after its
            // delivery timestamp, and the read itself may cost (tcp: a
            // syscall).
            if (w.latency_ns > 0) {
                sim::sleep_until(pk.deliver_at);
            }
            if (w.read_ns > 0) {
                sim::advance(w.read_ns);
            }
            const std::uint32_t slot = pk.flag.result_slot_plus1 - 1u;
            if (pk.flag.gen != 0 && slot < recv_gen_.size() &&
                pk.flag.gen == recv_gen_[slot]) {
                continue; // duplicate of a retransmitted message
            }
            if (slot < recv_gen_.size()) {
                recv_gen_[slot] = pk.flag.gen;
            }
            buf = std::move(pk.bytes);
            return pk.flag;
        }
    }

    void send_result(std::uint32_t result_slot, const void* bytes,
                     std::size_t len) override {
        AURORA_CHECK(result_slot < s_.results.size());
        AURORA_CHECK_MSG(s_.results[result_slot].bytes.empty(),
                         "result slot " << result_slot << " still occupied");
        // Even the loopback hand-off costs a little, which keeps result
        // arrival ordered after the send in virtual time.
        const sim::time_ns at = kind_.wire.send(kind_.wire.msg, len);
        auto& out = s_.results[result_slot];
        out.bytes.resize(len);
        std::memcpy(out.bytes.data(), bytes, len);
        out.deliver_at = at;
    }

private:
    shared_state& s_;
    const kind_profile kind_;
    std::uint8_t epoch_; ///< incarnation this channel belongs to
    node_t node_;
    std::vector<std::uint8_t> recv_gen_; ///< last generation seen per slot
};

backend_queue::kind_profile backend_queue::profile_for(backend_kind kind,
                                                       const sim::cost_model& cm) {
    if (kind == backend_kind::tcp) {
        // Every hop is a socket write plus streaming; the payload surfaces at
        // the peer half an RTT later, and each read is a syscall.
        const wire_costs::hop sock{cm.tcp_per_msg_ns, cm.tcp_bandwidth_gib};
        return {"tcp", "generic TCP/IP peer", "tcp_send", "tcp_poll", "tcp_result",
                {.msg = sock,
                 .bulk = sock,
                 .latency_ns = cm.tcp_half_rtt_ns,
                 .read_ns = cm.tcp_per_msg_ns}};
    }
    AURORA_CHECK_MSG(kind == backend_kind::loopback,
                     "the queue backend serves loopback and tcp only");
    // A message is a queue hand-off; bulk data is a plain host memcpy.
    return {"loopback", "in-process loopback", "loopback_send", "loopback_poll",
            "loopback_result",
            {.msg = {cm.local_poll_ns, 0.0},
             .bulk = {0, cm.vh_memcpy_gib},
             .latency_ns = 0,
             .read_ns = 0}};
}

backend_queue::backend_queue(sim::simulation& sim,
                             const ham::handler_registry& target_reg,
                             const sim::cost_model& costs,
                             const runtime_options& opt, node_t node)
    : sim_(sim),
      costs_(costs),
      node_(node),
      slots_(opt.msg_slots),
      msg_size_(opt.msg_size),
      kind_(profile_for(opt.backend, costs)),
      shared_(std::make_shared<shared_state>(sim, opt.msg_slots)),
      send_gen_(opt.msg_slots, 0),
      target_reg_(&target_reg),
      met_(kind_.name, node, kind_.poll_counter) {
    spawn_target();
}

void backend_queue::spawn_target() {
    // The target process owns its channel/context/memory objects so they
    // outlive this backend teardown order safely.
    auto shared = shared_;
    const auto* cm = &costs_;
    const auto* reg = target_reg_;
    const auto msg_size = msg_size_;
    const node_t n = node_;
    const std::uint8_t epoch = epoch_;
    const kind_profile kind = kind_;
    target_proc_ = &sim_.spawn(
        std::string(kind_.name) + "-target-" + std::to_string(node_),
        [shared, cm, reg, msg_size, n, epoch, kind] {
            direct_memory mem; // heap-backed: addresses are real pointers
            target_context ctx(n, target_context::device::vh, &mem, cm);
            channel ch(*shared, kind, epoch, n);
            target_loop_config cfg;
            cfg.registry = reg;
            cfg.context = &ctx;
            cfg.costs = cm;
            cfg.msg_size = msg_size;
            try {
                run_target_loop(cfg, ch);
            } catch (const aurora::fault::target_killed&) {
                // simulated VE death — exit without answering
            }
        });
}

io_status backend_queue::send_message(std::uint32_t slot, const void* msg,
                                      std::size_t len, protocol::msg_kind kind,
                                      bool retransmit) {
    AURORA_CHECK(slot < slots_);
    AURORA_CHECK_MSG(len <= msg_size_, "message exceeds slot capacity");
    AURORA_CHECK_MSG(kind == protocol::msg_kind::user ||
                         kind == protocol::msg_kind::batch ||
                         kind == protocol::msg_kind::terminate,
                     "the " << kind_.name << " backend has no DMA data path");
    AURORA_TRACE_SPAN("backend", kind_.send_span);
    const backend_metrics::send_timer timer(met_, len);
    auto& inj = aurora::fault::injector::instance();
    if (inj.active()) {
        if (const auto spike = inj.delay_spike()) {
            sim::advance(spike);
        }
        if (inj.should_fail_dma_post()) {
            return io_status::transient;
        }
    }
    packet pk;
    pk.flag.kind = kind;
    pk.flag.gen = retransmit
                      ? send_gen_[slot]
                      : (send_gen_[slot] = protocol::next_gen(send_gen_[slot]));
    pk.flag.result_slot_plus1 = static_cast<std::uint16_t>(slot + 1);
    pk.flag.epoch = epoch_;
    pk.flag.len = static_cast<std::uint32_t>(len);
    pk.bytes.resize(len);
    if (len > 0) {
        std::memcpy(pk.bytes.data(), msg, len);
    }
    pk.deliver_at = kind_.wire.send(kind_.wire.msg, len);
    if (inj.active() && (inj.should_drop() || inj.should_lose_flag())) {
        // The message vanishes on the wire (payload and flag travel together).
        return io_status::ok;
    }
    shared_->inbox.push(std::move(pk));
    return io_status::ok;
}

sim::time_ns backend_queue::result_due(std::uint32_t slot) const {
    const auto& r = shared_->results[slot];
    return r.bytes.empty() ? sim::never : r.deliver_at;
}

bool backend_queue::read_result(std::uint32_t slot, std::vector<std::byte>& out) {
    AURORA_CHECK(slot < slots_);
    backend_metrics::poll_timer timer(met_, sim::now() - probe_ns(slot));
    auto& r = shared_->results[slot];
    if (r.bytes.empty() || sim::now() < r.deliver_at) {
        return false; // nothing readable yet
    }
    out = std::move(r.bytes);
    r.bytes.clear();
    timer.arrived(out.size());
    AURORA_TRACE_INSTANT("backend", kind_.result_instant);
    return true;
}

void backend_queue::count_skipped_probes(std::uint32_t, std::uint64_t n) {
    met_.count_polls(n);
}

std::uint64_t backend_queue::allocate_bytes(std::uint64_t len) {
    AURORA_CHECK(len > 0);
    auto block = std::make_unique<std::byte[]>(len); // zeroed
    const auto addr = reinterpret_cast<std::uint64_t>(block.get());
    heap_.emplace(addr, std::move(block));
    return addr;
}

void backend_queue::free_bytes(std::uint64_t addr) {
    AURORA_CHECK_MSG(heap_.erase(addr) == 1,
                     "free of unknown " << kind_.name << " target buffer");
}

void backend_queue::put_bytes(const void* src, std::uint64_t dst_addr,
                              std::uint64_t len) {
    // Synchronous put: stream the payload, then wait until the peer-side
    // write is visible.
    const sim::time_ns arrives = kind_.wire.send(kind_.wire.bulk, len);
    if (kind_.wire.latency_ns > 0) {
        sim::sleep_until(arrives);
    }
    std::memcpy(reinterpret_cast<void*>(dst_addr), src, len);
}

void backend_queue::get_bytes(std::uint64_t src_addr, void* dst,
                              std::uint64_t len) {
    // Request out, payload back: two hops and their latencies, streaming the
    // payload once.
    const wire_costs& w = kind_.wire;
    sim::advance(2 * w.bulk.fixed_ns + 2 * w.latency_ns +
                 sim::transfer_ns(len, w.bulk.gib));
    std::memcpy(dst, reinterpret_cast<const void*>(src_addr), len);
}

node_descriptor backend_queue::descriptor() const {
    node_descriptor d;
    d.name = std::string(kind_.name) + "-" + std::to_string(node_);
    d.device_type = kind_.device_type;
    d.node = node_;
    d.ve_id = -1;
    return d;
}

void backend_queue::shutdown() {
    if (target_proc_ != nullptr) {
        sim::join(*target_proc_);
        target_proc_ = nullptr;
    }
}

void backend_queue::abandon() {
    if (target_proc_ == nullptr) {
        return;
    }
    // In-band poison unblocks a target parked in inbox.pop(); if the process
    // already died the packet is simply never read. It carries the current
    // epoch so a later incarnation can never mistake it for its own fence.
    packet pk;
    pk.flag.kind = protocol::msg_kind::poison;
    pk.flag.result_slot_plus1 = 1;
    pk.flag.epoch = epoch_;
    shared_->inbox.push(std::move(pk));
    sim::join(*target_proc_);
    target_proc_ = nullptr;
}

std::int64_t backend_queue::result_grace_ns() const {
    return kind_.wire.latency_ns + kind_.wire.read_ns;
}

void backend_queue::respawn(std::uint8_t epoch) {
    AURORA_CHECK_MSG(target_proc_ == nullptr,
                     "respawn of a " << kind_.name
                                     << " target that was never quiesced");
    epoch_ = epoch;
    // Results the final drain left behind belong to the dead incarnation.
    // Stale *inbox* packets stay: the new channel rejects them by epoch.
    for (auto& r : shared_->results) {
        r = parcel{};
    }
    std::fill(send_gen_.begin(), send_gen_.end(), std::uint8_t{0});
    spawn_target();
}

bool backend_queue::inject_stale_flag(std::uint32_t slot, std::uint8_t epoch) {
    AURORA_CHECK(slot < slots_);
    // Shape of a delayed retransmit from incarnation `epoch`: deliverable
    // immediately, with the generation the channel expects next, so only the
    // epoch check can reject it.
    packet pk;
    pk.flag.kind = protocol::msg_kind::user;
    pk.flag.gen = protocol::next_gen(send_gen_[slot]);
    pk.flag.result_slot_plus1 = static_cast<std::uint16_t>(slot + 1);
    pk.flag.epoch = epoch;
    pk.deliver_at = sim::now();
    shared_->inbox.push(std::move(pk));
    return true;
}

} // namespace ham::offload
