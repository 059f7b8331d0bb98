#include "offload/backend_vedma.hpp"

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

constexpr int ham_shm_key = 0x48414D;         // "HAM"
constexpr int ham_staging_shm_key = 0x48414E; // "HAN"

} // namespace

backend_vedma::backend_vedma(aurora::veos::veos_system& sys, int ve_id, node_t node,
                             const runtime_options& opt,
                             aurora::obs::flight_ring& flight)
    : sys_(sys),
      ve_id_(ve_id),
      node_(node),
      opt_(opt),
      layout_(make_layout(opt)),
      shms_(sys.plat()),
      send_gen_(opt.msg_slots, 0),
      result_gen_(opt.msg_slots, 0),
      flight_(flight),
      met_("vedma", node, "vedma_poll") {
    AURORA_CHECK_MSG(opt.msg_size % 8 == 0,
                     "vedma backend requires 8-byte aligned message sizes");

    // Fig. 7: the VH sets up a SysV shared memory segment (huge pages) that
    // holds *all* communication buffers and flags.
    seg_ = &shms_.create(ham_shm_key, layout_.total_bytes(),
                         sys.plat().config().default_vh_page, opt.vh_socket);
    if (opt_.vedma_dma_data_path) {
        AURORA_CHECK_MSG(opt_.vedma_staging_chunk_bytes % 8 == 0 &&
                             opt_.vedma_staging_chunks > 0,
                         "bad VE-DMA staging geometry");
        staging_seg_ = &shms_.create(
            ham_staging_shm_key,
            opt_.vedma_staging_chunk_bytes * opt_.vedma_staging_chunks,
            sys.plat().config().default_vh_page, opt.vh_socket);
    }

    // Deployment still uses VEO (Fig. 4): process, library, setup, ham_main.
    // Construction failures are recoverable: the runtime marks the target
    // failed at attach time and continues with the remaining targets.
    try {
        attach();
    } catch (...) {
        destroy_segments();
        throw;
    }
}

void backend_vedma::attach() {
    proc_ = veo_proc_create(sys_, ve_id_, opt_.vh_socket);
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

    const std::uint64_t sym_setup = veo_get_sym(proc_, lib, sym_setup_vedma);
    AURORA_CHECK(sym_setup != 0);
    veo_args* args = veo_args_alloc();
    args->set_u64(0, reinterpret_cast<std::uint64_t>(&shms_));
    args->set_i64(1, ham_shm_key);
    args->set_u64(2, layout_.recv.slots);
    args->set_u64(3, layout_.recv.msg_size);
    args->set_i64(4, node_);
    args->set_u64(5, opt_.vedma_shm_small_results ? 1 : 0);
    args->set_i64(6, opt_.vedma_dma_data_path ? ham_staging_shm_key : 0);
    args->set_u64(7, opt_.vedma_staging_chunk_bytes);
    args->set_u64(8, host_image_registry().fingerprint());
    args->set_u64(9, epoch_);
    args->set_u64(10, supports_zero_copy() ? 1 : 0);
    args->set_i64(11, opt_.vh_socket);
    std::uint64_t ret = 0;
    const std::uint64_t req = veo_call_async(ctx_, sym_setup, args);
    AURORA_CHECK(veo_call_wait_result(ctx_, req, &ret) == VEO_COMMAND_OK);
    AURORA_CHECK_MSG(ret == 0,
                     "heterogeneous binaries have incompatible HAM type tables "
                     "(ABI mismatch, paper Sec. III-E)");
    veo_args_free(args);

    const std::uint64_t sym_main = veo_get_sym(proc_, lib, sym_ham_main);
    AURORA_CHECK(sym_main != 0);
    main_req_ = veo_call_async(ctx_, sym_main, nullptr);
    quiesced_ = false;
    sends_since_attach_ = 0;
}

void backend_vedma::destroy_segments() {
    if (seg_ != nullptr) {
        shms_.destroy(ham_shm_key);
        seg_ = nullptr;
    }
    if (staging_seg_ != nullptr) {
        shms_.destroy(ham_staging_shm_key);
        staging_seg_ = nullptr;
    }
}

backend_vedma::~backend_vedma() = default;

io_status backend_vedma::send_message(std::uint32_t slot, const void* msg,
                                      std::size_t len, protocol::msg_kind kind,
                                      bool retransmit) {
    const auto& cm = sys_.plat().costs();
    AURORA_CHECK(slot < layout_.recv.slots);
    AURORA_CHECK_MSG(len <= layout_.recv.msg_size, "message exceeds slot capacity");
    // All host-side operations are local memory accesses (Sec. IV-B): copy
    // the message into the shared segment, then publish the flag.
    AURORA_TRACE_SPAN("backend", "vedma_send");
    const backend_metrics::send_timer timer(met_, len);
    flight_.note(aurora::obs::stage::sent, 0, static_cast<std::uint16_t>(slot),
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
    // A dropped message skips both stores; the generation still advances so a
    // later retransmission carries the value the VE expects.
    const bool drop = inj.active() && inj.should_drop();
    if (!drop && len > 0) {
        AURORA_TRACE_SPAN("backend", "msg_copy");
        std::memcpy(region(layout_.recv.buffer_offset(slot)), msg, len);
        sim::advance(sim::transfer_ns(len, cm.vh_memcpy_gib));
    }
    if (!retransmit) {
        send_gen_[slot] = protocol::next_gen(send_gen_[slot]);
        ++sends_since_attach_;
    }
    protocol::flag_word flag;
    flag.kind = kind;
    flag.gen = send_gen_[slot];
    flag.result_slot_plus1 = static_cast<std::uint16_t>(slot + 1);
    flag.epoch = epoch_;
    flag.len = static_cast<std::uint32_t>(len);
    const std::uint64_t raw = protocol::encode_flag(flag);
    if (drop || (inj.active() && inj.should_lose_flag())) {
        return io_status::ok; // payload may have landed; the flag store is lost
    }
    {
        AURORA_TRACE_SPAN("backend", "flag_write");
        sim::advance(cm.local_poll_ns); // store + fence
        std::memcpy(region(layout_.recv.flag_offset(slot)), &raw, sizeof(raw));
    }
    return io_status::ok;
}

std::uint64_t backend_vedma::result_flag(std::uint32_t slot) const {
    std::uint64_t raw = 0;
    std::memcpy(&raw, region(layout_.send_base() + layout_.send.flag_offset(slot)),
                sizeof(raw));
    return raw;
}

sim::time_ns backend_vedma::result_due(std::uint32_t slot) const {
    const protocol::flag_word flag = protocol::decode_flag(result_flag(slot));
    return flag.present() && flag.gen == protocol::next_gen(result_gen_[slot])
               ? 0
               : sim::never;
}

bool backend_vedma::read_result(std::uint32_t slot, std::vector<std::byte>& out) {
    const auto& cm = sys_.plat().costs();
    AURORA_CHECK(slot < layout_.send.slots);
    backend_metrics::poll_timer timer(met_, sim::now() - probe_ns(slot));
    // "The VH is now the passive receiver who finds its message already in
    // its local memory as soon as the flag is set by the VE" (Sec. IV-B).
    const protocol::flag_word flag = protocol::decode_flag(result_flag(slot));
    if (!flag.present() || flag.gen != protocol::next_gen(result_gen_[slot])) {
        return false;
    }
    if (flag.epoch != epoch_) {
        // A result of a previous incarnation. Unlike the other backends this
        // is a real hazard here: the shm segment (and every flag in it)
        // survives the respawn. Zero the stale flag and never surface it.
        const std::uint64_t zero = 0;
        std::memcpy(region(layout_.send_base() + layout_.send.flag_offset(slot)),
                    &zero, sizeof(zero));
        heal::note_epoch_reject("vedma", node_);
        return false;
    }
    result_gen_[slot] = flag.gen;
    AURORA_TRACE_SPAN("backend", "vedma_result_fetch");
    out.resize(flag.len);
    if (flag.len > 0) {
        std::memcpy(out.data(),
                    region(layout_.send_base() + layout_.send.buffer_offset(slot)),
                    flag.len);
        sim::advance(sim::transfer_ns(flag.len, cm.vh_memcpy_gib));
    }
    timer.arrived(out.size());
    return true;
}

sim::duration_ns backend_vedma::probe_ns(std::uint32_t) const {
    return sys_.plat().costs().local_poll_ns;
}

void backend_vedma::count_skipped_probes(std::uint32_t, std::uint64_t n) {
    met_.count_polls(n);
}

std::uint64_t backend_vedma::allocate_bytes(std::uint64_t len) {
    std::uint64_t addr = 0;
    AURORA_CHECK(veo_alloc_mem(proc_, &addr, len) == 0);
    return addr;
}

void backend_vedma::free_bytes(std::uint64_t addr) {
    AURORA_CHECK(veo_free_mem(proc_, addr) == 0);
}

void backend_vedma::put_bytes(const void* src, std::uint64_t dst_addr,
                              std::uint64_t len) {
    AURORA_CHECK(veo_write_mem(proc_, dst_addr, src, len) == 0);
}

void backend_vedma::get_bytes(std::uint64_t src_addr, void* dst,
                              std::uint64_t len) {
    AURORA_CHECK(veo_read_mem(proc_, dst, src_addr, len) == 0);
}

node_descriptor backend_vedma::descriptor() const {
    node_descriptor d;
    d.name = "VE" + std::to_string(ve_id_);
    d.device_type = "NEC VE Type 10B (VE-DMA backend)";
    d.node = node_;
    d.ve_id = ve_id_;
    return d;
}

void backend_vedma::stage_put(std::uint32_t chunk, const void* src,
                              std::uint64_t len) {
    AURORA_CHECK(staging_seg_ != nullptr && chunk < opt_.vedma_staging_chunks);
    AURORA_CHECK(len <= opt_.vedma_staging_chunk_bytes);
    AURORA_TRACE_SPAN("backend", "stage_put");
    sim::advance(sim::transfer_ns(len, sys_.plat().costs().vh_memcpy_gib));
    std::memcpy(staging_seg_->addr + chunk * opt_.vedma_staging_chunk_bytes, src,
                len);
}

void backend_vedma::stage_get(std::uint32_t chunk, void* dst, std::uint64_t len) {
    AURORA_CHECK(staging_seg_ != nullptr && chunk < opt_.vedma_staging_chunks);
    AURORA_CHECK(len <= opt_.vedma_staging_chunk_bytes);
    AURORA_TRACE_SPAN("backend", "stage_get");
    sim::advance(sim::transfer_ns(len, sys_.plat().costs().vh_memcpy_gib));
    std::memcpy(dst, staging_seg_->addr + chunk * opt_.vedma_staging_chunk_bytes,
                len);
}

void backend_vedma::shutdown() {
    if (proc_ == nullptr) {
        return;
    }
    std::uint64_t ret = 0;
    AURORA_CHECK(veo_call_wait_result(ctx_, main_req_, &ret) == VEO_COMMAND_OK);
    veo_proc_destroy(proc_);
    proc_ = nullptr;
    destroy_segments();
}

void backend_vedma::abandon() {
    if (proc_ == nullptr && !quiesced_) {
        return;
    }
    // The runtime fenced this target (injector::kill_now), so ham_main exits
    // at the VE's next liveness check — its channel destructor unregisters the
    // ATB mapping before returning, after which the segments can go away.
    // After a quiesce() the reap already happened; only the segments remain.
    if (proc_ != nullptr) {
        std::uint64_t ret = 0;
        veo_call_wait_result(ctx_, main_req_, &ret);
        veo_proc_destroy(proc_);
        proc_ = nullptr;
    }
    destroy_segments();
    quiesced_ = false;
}

void backend_vedma::quiesce() {
    if (quiesced_) {
        return;
    }
    // Reap ham_main and drop the VE process, but keep the shared-memory
    // segments: every delivered result lives in VH-local memory (Sec. IV-B),
    // so the final drain keeps working without any process at all.
    if (proc_ != nullptr) {
        std::uint64_t ret = 0;
        veo_call_wait_result(ctx_, main_req_, &ret);
        veo_proc_destroy(proc_);
        proc_ = nullptr;
    }
    quiesced_ = true;
}

void backend_vedma::respawn(std::uint8_t epoch) {
    AURORA_CHECK_MSG(proc_ == nullptr && quiesced_,
                     "respawn of a vedma target that was never quiesced");
    epoch_ = epoch;
    // The segments are deliberately NOT cleared: the new incarnation attaches
    // the same shm, where flags of the dead incarnation still sit. Both sides
    // reject them by epoch — that rejection path is load-bearing here.
    std::fill(send_gen_.begin(), send_gen_.end(), std::uint8_t{0});
    std::fill(result_gen_.begin(), result_gen_.end(), std::uint8_t{0});
    attach();
}

bool backend_vedma::inject_stale_flag(std::uint32_t slot, std::uint8_t epoch) {
    // The VE channel polls one slot at a time, so the flag must land where
    // its round-robin cursor stands — the slot argument is advisory.
    slot = static_cast<std::uint32_t>(sends_since_attach_ % layout_.recv.slots);
    // Plant a recv flag shaped like a leftover of incarnation `epoch` in the
    // shared segment: the generation the VE channel expects next, so only
    // its epoch check can reject it.
    protocol::flag_word flag;
    flag.kind = protocol::msg_kind::user;
    flag.gen = protocol::next_gen(send_gen_[slot]);
    flag.result_slot_plus1 = static_cast<std::uint16_t>(slot + 1);
    flag.epoch = epoch;
    const std::uint64_t raw = protocol::encode_flag(flag);
    std::memcpy(region(layout_.recv.flag_offset(slot)), &raw, sizeof(raw));
    return true;
}

} // namespace ham::offload
