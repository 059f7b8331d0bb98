#include "offload/backend_veo.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "offload/app_image.hpp"
#include "offload/future.hpp"
#include "offload/heal.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace ham::offload {

using namespace aurora::veo;

namespace {
protocol::comm_layout make_layout(const runtime_options& opt) {
    protocol::comm_layout lay;
    lay.recv.slots = opt.msg_slots;
    lay.recv.msg_size = opt.msg_size;
    lay.send.slots = opt.msg_slots;
    lay.send.msg_size =
        opt.msg_size + static_cast<std::uint32_t>(sizeof(protocol::result_header));
    return lay;
}
} // namespace

backend_veo::backend_veo(aurora::veos::veos_system& sys, int ve_id, node_t node,
                         const runtime_options& opt)
    : sys_(sys),
      ve_id_(ve_id),
      node_(node),
      layout_(make_layout(opt)),
      vh_socket_(opt.vh_socket),
      idle_timeout_ns_(opt.target_idle_timeout_ns),
      send_gen_(opt.msg_slots, 0),
      result_gen_(opt.msg_slots, 0),
      met_("veo", node, "veo_poll") {
    attach();
}

void backend_veo::attach() {
    // Deployment per Fig. 4: create the VE process, load the application
    // library, communicate the buffer addresses via the C-API, run ham_main.
    // Construction failures are recoverable: the runtime marks the target
    // failed at attach time (or schedules another recovery attempt) and
    // continues with the remaining targets.
    proc_ = veo_proc_create(sys_, ve_id_, vh_socket_);
    if (proc_ == nullptr) {
        throw target_attach_error("veo_proc_create failed for VE " +
                                  std::to_string(ve_id_));
    }
    const std::uint64_t lib = veo_load_library(proc_, app_image_name);
    if (lib == 0) {
        veo_proc_destroy(proc_);
        proc_ = nullptr;
        throw target_attach_error(std::string("failed to load ") +
                                  app_image_name + " on VE " +
                                  std::to_string(ve_id_));
    }
    ctx_ = veo_context_open(proc_);

    // All communication buffers live in VE memory and are set up and managed
    // by the host (Sec. III-D) — flags start out zeroed (fresh memory).
    AURORA_CHECK(veo_alloc_mem(proc_, &comm_addr_, layout_.total_bytes()) == 0);

    const std::uint64_t sym_setup = veo_get_sym(proc_, lib, sym_setup_veo);
    AURORA_CHECK(sym_setup != 0);
    veo_args* args = veo_args_alloc();
    args->set_u64(0, comm_addr_);
    args->set_u64(1, layout_.recv.slots);
    args->set_u64(2, layout_.recv.msg_size);
    args->set_i64(3, node_);
    args->set_u64(4, ham::handler_registry::build(
                         host_image_options()).fingerprint());
    args->set_i64(5, idle_timeout_ns_);
    args->set_u64(6, epoch_);
    std::uint64_t ret = 0;
    const std::uint64_t req = veo_call_async(ctx_, sym_setup, args);
    AURORA_CHECK(veo_call_wait_result(ctx_, req, &ret) == VEO_COMMAND_OK);
    AURORA_CHECK_MSG(ret == 0,
                     "heterogeneous binaries have incompatible HAM type tables "
                     "(ABI mismatch, paper Sec. III-E)");
    veo_args_free(args);

    // Start the HAM-Offload runtime on the VE; it returns only after the
    // terminate message (Sec. III-C).
    const std::uint64_t sym_main = veo_get_sym(proc_, lib, sym_ham_main);
    AURORA_CHECK(sym_main != 0);
    main_req_ = veo_call_async(ctx_, sym_main, nullptr);
    AURORA_CHECK(main_req_ != VEO_REQUEST_ID_INVALID);
    quiesced_ = false;
    sends_since_attach_ = 0;
}

backend_veo::~backend_veo() = default;

io_status backend_veo::send_message(std::uint32_t slot, const void* msg,
                                    std::size_t len, protocol::msg_kind kind,
                                    bool retransmit) {
    AURORA_CHECK(slot < layout_.recv.slots);
    AURORA_CHECK_MSG(len <= layout_.recv.msg_size, "message exceeds slot capacity");
    AURORA_CHECK_MSG(kind == protocol::msg_kind::user ||
                         kind == protocol::msg_kind::batch ||
                         kind == protocol::msg_kind::terminate,
                     "the VEO backend has no DMA data path");
    // Fig. 5: write the message into the receive buffer on the VE, then
    // signal completion by setting the corresponding flag — two privileged-
    // DMA writes.
    AURORA_TRACE_SPAN("backend", "veo_send");
    if (!retransmit) {
        ++sends_since_attach_;
    }
    const backend_metrics::send_timer timer(met_, len);
    aurora::obs::flight_registry::ring_for(static_cast<std::uint16_t>(node_))
        .note(aurora::obs::stage::sent, 0, static_cast<std::uint16_t>(slot),
              epoch_, static_cast<std::uint32_t>(len));
    auto& inj = aurora::fault::injector::instance();
    if (inj.active()) {
        if (const auto spike = inj.delay_spike()) {
            sim::advance(spike);
        }
        if (inj.should_fail_dma_post()) {
            return io_status::transient;
        }
    }
    // A dropped message skips both DMA writes; the generation still advances
    // so a later retransmission carries the value the VE expects.
    const bool drop = inj.active() && inj.should_drop();
    if (!drop && len > 0) {
        AURORA_TRACE_SPAN("backend", "msg_copy");
        veo_write_mem(proc_, comm_addr_ + layout_.recv.buffer_offset(slot), msg,
                      len);
    }
    if (!retransmit) {
        send_gen_[slot] = protocol::next_gen(send_gen_[slot]);
    }
    protocol::flag_word flag;
    flag.kind = kind;
    flag.gen = send_gen_[slot];
    flag.result_slot_plus1 = static_cast<std::uint16_t>(slot + 1);
    flag.epoch = epoch_;
    flag.len = static_cast<std::uint32_t>(len);
    const std::uint64_t raw = protocol::encode_flag(flag);
    if (drop || (inj.active() && inj.should_lose_flag())) {
        return io_status::ok; // payload may have landed; the flag write is lost
    }
    {
        AURORA_TRACE_SPAN("backend", "flag_write");
        veo_write_mem(proc_, comm_addr_ + layout_.recv.flag_offset(slot), &raw,
                      sizeof(raw));
    }
    return io_status::ok;
}

std::uint64_t backend_veo::result_flag_addr(std::uint32_t slot) const {
    return comm_addr_ + layout_.send_base() + layout_.send.flag_offset(slot);
}

aurora::veos::dma_manager& backend_veo::dma() const {
    return proc_->sys->daemon(proc_->venode).dma();
}

sim::duration_ns backend_veo::probe_ns(std::uint32_t slot) const {
    const std::uint64_t raw = 0;
    return dma().read_cost(*proc_->proc, result_flag_addr(slot), &raw, sizeof(raw),
                           proc_->socket);
}

sim::time_ns backend_veo::result_due(std::uint32_t slot) const {
    const protocol::flag_word flag =
        protocol::decode_flag(proc_->proc->mem().load_u64(result_flag_addr(slot)));
    return flag.present() && flag.gen == protocol::next_gen(result_gen_[slot])
               ? 0
               : sim::never;
}

void backend_veo::count_skipped_probes(std::uint32_t slot, std::uint64_t n) {
    met_.count_polls(n);
    std::uint64_t raw = 0;
    dma().finish_read(*proc_->proc, result_flag_addr(slot), &raw, sizeof(raw), n);
}

bool backend_veo::test_result(std::uint32_t slot, std::vector<std::byte>& out,
                              probe_resume& resume) {
    AURORA_CHECK(slot < layout_.send.slots);
    met_.count_polls(1 + resume.skipped);
    const std::uint64_t reads = 1 + resume.skipped;
    resume.skipped = 0;
    backend_metrics::poll_timer timer(met_, resume);
    // Poll the result flag (one expensive veo_read_mem, split in its time
    // and its snapshot so that a parked wait can skip the time)…
    std::uint64_t raw = 0;
    if (resume.started < 0) {
        sim::advance(probe_ns(slot));
    }
    dma().finish_read(*proc_->proc, result_flag_addr(slot), &raw, sizeof(raw),
                      reads);
    const protocol::flag_word flag = protocol::decode_flag(raw);
    if (!flag.present() || flag.gen != protocol::next_gen(result_gen_[slot])) {
        return false;
    }
    if (flag.epoch != epoch_) {
        // A result of a previous incarnation (defence in depth — veo comm
        // memory is fresh per incarnation): clear the stale flag so the slot
        // polls clean, and never surface the payload.
        const std::uint64_t zero = 0;
        veo_write_mem(proc_, comm_addr_ + layout_.send_base() +
                                 layout_.send.flag_offset(slot),
                      &zero, sizeof(zero));
        heal::note_epoch_reject("veo", node_);
        return false;
    }
    result_gen_[slot] = flag.gen;
    // …then fetch the result message (a second veo_read_mem).
    AURORA_TRACE_SPAN("backend", "veo_result_fetch");
    out.resize(flag.len);
    if (flag.len > 0) {
        veo_read_mem(proc_, out.data(),
                     comm_addr_ + layout_.send_base() +
                         layout_.send.buffer_offset(slot),
                     flag.len);
    }
    timer.arrived(out.size());
    return true;
}

std::uint64_t backend_veo::allocate_bytes(std::uint64_t len) {
    std::uint64_t addr = 0;
    AURORA_CHECK(veo_alloc_mem(proc_, &addr, len) == 0);
    return addr;
}

void backend_veo::free_bytes(std::uint64_t addr) {
    AURORA_CHECK(veo_free_mem(proc_, addr) == 0);
}

void backend_veo::put_bytes(const void* src, std::uint64_t dst_addr,
                            std::uint64_t len) {
    AURORA_CHECK(veo_write_mem(proc_, dst_addr, src, len) == 0);
}

void backend_veo::get_bytes(std::uint64_t src_addr, void* dst, std::uint64_t len) {
    AURORA_CHECK(veo_read_mem(proc_, dst, src_addr, len) == 0);
}

node_descriptor backend_veo::descriptor() const {
    node_descriptor d;
    d.name = "VE" + std::to_string(ve_id_);
    d.device_type = "NEC VE Type 10B (VEO backend)";
    d.node = node_;
    d.ve_id = ve_id_;
    return d;
}

void backend_veo::shutdown() {
    if (proc_ == nullptr) {
        return;
    }
    // The terminate result was already collected; ham_main returns now.
    std::uint64_t ret = 0;
    AURORA_CHECK(veo_call_wait_result(ctx_, main_req_, &ret) == VEO_COMMAND_OK);
    veo_free_mem(proc_, comm_addr_);
    veo_proc_destroy(proc_);
    proc_ = nullptr;
}

void backend_veo::abandon() {
    if (proc_ == nullptr) {
        return;
    }
    // The runtime fenced this target (injector::kill_now), so ham_main exits
    // at the VE's next liveness check — reap it, then tear down without the
    // terminate handshake. After a quiesce() the reap already happened.
    if (!quiesced_) {
        std::uint64_t ret = 0;
        veo_call_wait_result(ctx_, main_req_, &ret);
    }
    veo_free_mem(proc_, comm_addr_);
    veo_proc_destroy(proc_);
    proc_ = nullptr;
    quiesced_ = false;
}

void backend_veo::quiesce() {
    if (proc_ == nullptr || quiesced_) {
        return;
    }
    // Reap ham_main but keep the process (and with it the communication
    // area's memory) so the final drain can still read delivered results
    // through veo_read_mem.
    std::uint64_t ret = 0;
    veo_call_wait_result(ctx_, main_req_, &ret);
    quiesced_ = true;
}

void backend_veo::respawn(std::uint8_t epoch) {
    AURORA_CHECK_MSG(quiesced_,
                     "respawn of a veo target that was never quiesced");
    // Tear down the dead incarnation completely — a fresh process gets fresh
    // (zeroed) communication memory — then rerun the Fig. 4 deployment.
    // proc_ may already be null if a previous re-attach attempt failed
    // part-way; a retry then starts straight from the deployment.
    if (proc_ != nullptr) {
        veo_free_mem(proc_, comm_addr_);
        veo_proc_destroy(proc_);
        proc_ = nullptr;
    }
    epoch_ = epoch;
    std::fill(send_gen_.begin(), send_gen_.end(), std::uint8_t{0});
    std::fill(result_gen_.begin(), result_gen_.end(), std::uint8_t{0});
    attach();
}

bool backend_veo::inject_stale_flag(std::uint32_t slot, std::uint8_t epoch) {
    // The VE channel polls one slot at a time, so the flag must land where
    // its round-robin cursor stands — the slot argument is advisory.
    slot = static_cast<std::uint32_t>(sends_since_attach_ % layout_.recv.slots);
    // Plant a recv flag shaped like a delayed retransmit from incarnation
    // `epoch`: the generation the VE channel expects next at this slot, so
    // only its epoch check can reject it.
    protocol::flag_word flag;
    flag.kind = protocol::msg_kind::user;
    flag.gen = protocol::next_gen(send_gen_[slot]);
    flag.result_slot_plus1 = static_cast<std::uint16_t>(slot + 1);
    flag.epoch = epoch;
    const std::uint64_t raw = protocol::encode_flag(flag);
    veo_write_mem(proc_, comm_addr_ + layout_.recv.flag_offset(slot), &raw,
                  sizeof(raw));
    return true;
}

} // namespace ham::offload
