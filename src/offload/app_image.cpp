#include "offload/app_image.hpp"

#include <cstring>
#include <variant>

#include "fault/fault.hpp"
#include "mem/reg_cache.hpp"
#include "mem/sg.hpp"
#include "offload/heal.hpp"
#include "offload/protocol.hpp"
#include "offload/target_loop.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "vedma/dmaatb.hpp"
#include "vedma/lhm_shm.hpp"
#include "vedma/sysv_shm.hpp"
#include "vedma/userdma.hpp"
#include "veos/ve_process.hpp"

namespace ham::offload {

namespace {

constexpr std::uint64_t round_up8(std::uint64_t v) {
    return (v + 7) & ~std::uint64_t{7};
}

/// With small SHM results on (vedma_shm_small_results), results up to this
/// size go through SHM stores instead of user DMA.
constexpr std::size_t shm_result_threshold = 256;

// --- per-process configuration stored by the setup C-API ---------------------

struct veo_target_cfg {
    std::uint64_t comm_addr = 0;
    protocol::comm_layout layout{};
    node_t node = 0;
    std::uint8_t epoch = 0; ///< incarnation (aurora::heal)
};

struct vedma_target_cfg {
    const aurora::vedma::shm_registry* shms = nullptr;
    int shm_key = 0;
    protocol::comm_layout layout{};
    node_t node = 0;
    bool shm_small_results = false;
    int staging_shm_key = 0; ///< 0 = DMA data path disabled
    std::uint64_t staging_chunk_bytes = 0;
    std::uint8_t epoch = 0; ///< incarnation (aurora::heal)
    bool zero_copy = false; ///< accept zero-copy data_msg shapes (aurora::mem)
    int vh_socket = 0;      ///< socket of the host's user buffers
};

using target_cfg = std::variant<veo_target_cfg, vedma_target_cfg>;

/// When an idle VE's poll loop would next act, for sim::poll: now if the
/// flag word `raw` carries the next generation (of this epoch, or a stale
/// one the loop must clear), else at its scheduled death.
sim::time_ns ve_poll_due(std::uint64_t raw, std::uint8_t gen, node_t node) {
    const protocol::flag_word flag = protocol::decode_flag(raw);
    if (flag.present() && flag.gen == protocol::next_gen(gen)) {
        return 0;
    }
    return aurora::fault::injector::instance().kill_due(int(node));
}

// --- target memory over the VE process's simulated HBM2 ----------------------

class ve_target_memory final : public target_memory {
public:
    explicit ve_target_memory(aurora::veos::ve_process& proc) : proc_(proc) {}
    void read(std::uint64_t addr, void* dst, std::uint64_t len) override {
        proc_.mem().read(addr, dst, len);
    }
    void write(std::uint64_t addr, const void* src, std::uint64_t len) override {
        proc_.mem().write(addr, src, len);
    }

private:
    aurora::veos::ve_process& proc_;
};

// --- VE side of the VEO protocol (Fig. 5) ------------------------------------

class veo_ve_channel final : public target_channel {
public:
    veo_ve_channel(aurora::veos::ve_process& proc, const veo_target_cfg& cfg)
        : proc_(proc),
          cfg_(cfg),
          recv_gen_(cfg.layout.recv.slots, 0),
          send_gen_(cfg.layout.send.slots, 0) {}

    protocol::flag_word recv_next(std::vector<std::byte>& buf) override {
        const auto& cm = proc_.plat().costs();
        const auto& lay = cfg_.layout;
        protocol::flag_word flag;
        // "Every time the runtime on the VE runs idle ... it polls the
        // notification flag of the next receive buffer" (Sec. III-D). Local
        // memory probes — the cheap side of this protocol.
        auto& inj = aurora::fault::injector::instance();
        const std::uint64_t flag_addr =
            cfg_.comm_addr + lay.recv_base() + lay.recv.flag_offset(next_);
        const auto due = [&](std::size_t) {
            return ve_poll_due(proc_.mem().load_u64(flag_addr), recv_gen_[next_],
                               cfg_.node);
        };
        for (;;) {
            inj.check_target_alive(int(cfg_.node));
            // The probes that find nothing run parked (sim::poll).
            sim::poll({&cm.local_poll_ns, 1}, 0, due);
            flag = protocol::decode_flag(proc_.mem().load_u64(flag_addr));
            if (flag.present() && flag.gen == protocol::next_gen(recv_gen_[next_])) {
                if (flag.epoch == cfg_.epoch) {
                    break;
                }
                // A message of a previous incarnation (defence in depth —
                // this incarnation's memory starts zeroed): clear the stale
                // flag so the slot polls clean, never execute the message.
                proc_.mem().store_u64(flag_addr, 0);
                heal::note_epoch_reject("veo", cfg_.node);
            }
        }
        recv_gen_[next_] = flag.gen;
        buf.resize(flag.len);
        if (flag.len > 0) {
            proc_.mem().read(cfg_.comm_addr + lay.recv_base() +
                                 lay.recv.buffer_offset(next_),
                             buf.data(), flag.len);
            sim::advance(sim::transfer_ns(flag.len, cm.ve_memcpy_gib));
        }
        next_ = (next_ + 1) % lay.recv.slots;
        return flag;
    }

    void send_result(std::uint32_t result_slot, const void* bytes,
                     std::size_t len) override {
        const auto& cm = proc_.plat().costs();
        const auto& lay = cfg_.layout;
        AURORA_CHECK(result_slot < lay.send.slots);
        AURORA_CHECK(len <= lay.send.msg_size);
        // Result message into the send buffer, then the flag (both local).
        proc_.mem().write(cfg_.comm_addr + lay.send_base() +
                              lay.send.buffer_offset(result_slot),
                          bytes, len);
        sim::advance(sim::transfer_ns(len, cm.ve_memcpy_gib) + cm.local_poll_ns);
        send_gen_[result_slot] = protocol::next_gen(send_gen_[result_slot]);
        protocol::flag_word flag;
        flag.kind = protocol::msg_kind::user;
        flag.gen = send_gen_[result_slot];
        flag.result_slot_plus1 = static_cast<std::uint16_t>(result_slot + 1);
        flag.epoch = cfg_.epoch;
        flag.len = static_cast<std::uint32_t>(len);
        proc_.mem().store_u64(cfg_.comm_addr + lay.send_base() +
                                  lay.send.flag_offset(result_slot),
                              protocol::encode_flag(flag));
    }

private:
    aurora::veos::ve_process& proc_;
    veo_target_cfg cfg_;
    std::uint32_t next_ = 0;
    std::vector<std::uint8_t> recv_gen_;
    std::vector<std::uint8_t> send_gen_;
};

// --- VE side of the DMA protocol (Fig. 8) -------------------------------------

/// Adapts the channel's DMAATB to the aurora::mem registration cache: VH
/// entries map a host user buffer (at the host's socket), VE entries map an
/// arena region. Each install pays dmaatb_register_ns — the cost the cache
/// exists to amortise.
class dmaatb_registrar final : public aurora::mem::registrar {
public:
    dmaatb_registrar(aurora::vedma::dmaatb& atb, int vh_socket)
        : atb_(atb), vh_socket_(vh_socket) {}

    std::uint64_t do_register(std::uint64_t space, std::uint64_t addr,
                              std::uint64_t len) override {
        if (space == aurora::mem::reg_cache::space_vh) {
            return atb_.register_vh(reinterpret_cast<std::byte*>(addr), len,
                                    vh_socket_);
        }
        return atb_.register_ve(addr, len);
    }
    void do_unregister(std::uint64_t handle) override { atb_.unregister(handle); }

private:
    aurora::vedma::dmaatb& atb_;
    int vh_socket_;
};

/// Registration-cache entry budget per channel: well under dmaatb::max_entries
/// so the channel's fixed comm/staging registrations (and any second channel
/// on the same card) always fit.
constexpr std::size_t ve_reg_cache_capacity = 64;

class vedma_ve_channel final : public target_channel {
public:
    vedma_ve_channel(aurora::veos::ve_process& proc, const vedma_target_cfg& cfg)
        : proc_(proc),
          cfg_(cfg),
          atb_(proc),
          dma_(atb_),
          registrar_(atb_, cfg.vh_socket),
          cache_(registrar_, ve_reg_cache_capacity,
                 "ve-node" + std::to_string(cfg.node)),
          recv_gen_(cfg.layout.recv.slots, 0),
          send_gen_(cfg.layout.send.slots, 0) {
        // The "rather complex setup process" of Sec. IV-A: attach the host's
        // SysV segment, register it in the DMAATB, and register local staging
        // memory so the user DMA engine can reach both ends.
        AURORA_CHECK(cfg_.shms != nullptr);
        comm_vehva_ = atb_.attach_shm(*cfg_.shms, cfg_.shm_key);

        const std::uint64_t stage_bytes =
            round_up8(cfg_.layout.recv.msg_size) +
            round_up8(sizeof(protocol::result_header) + cfg_.layout.send.msg_size);
        stage_vaddr_ = proc_.ve_alloc(stage_bytes);
        stage_vehva_ = atb_.register_ve(stage_vaddr_, stage_bytes);
        stage_result_off_ = round_up8(cfg_.layout.recv.msg_size);

        // Optional bulk-data path: attach the host staging segment and set up
        // a VE-side staging chunk for user-DMA data movement.
        if (cfg_.staging_shm_key != 0) {
            data_host_vehva_ = atb_.attach_shm(*cfg_.shms, cfg_.staging_shm_key);
            data_stage_vaddr_ = proc_.ve_alloc(cfg_.staging_chunk_bytes);
            data_stage_vehva_ =
                atb_.register_ve(data_stage_vaddr_, cfg_.staging_chunk_bytes);
        }
    }

    ~vedma_ve_channel() override {
        // Cached data-path registrations go first; the fixed channel windows
        // below never enter the cache.
        cache_.clear();
        if (cfg_.staging_shm_key != 0) {
            atb_.unregister(data_stage_vehva_);
            atb_.unregister(data_host_vehva_);
            proc_.ve_free(data_stage_vaddr_);
        }
        atb_.unregister(stage_vehva_);
        atb_.unregister(comm_vehva_);
        proc_.ve_free(stage_vaddr_);
    }

    protocol::flag_word recv_next(std::vector<std::byte>& buf) override {
        const auto& lay = cfg_.layout;
        for (;;) {
            protocol::flag_word flag;
            // "The VE now needs to actively fetch its messages" (Sec. IV-B):
            // poll the flag in *host* memory via LHM — one PCIe round trip
            // each.
            auto& inj = aurora::fault::injector::instance();
            const std::uint64_t flag_vehva =
                comm_vehva_ + lay.recv_base() + lay.recv.flag_offset(next_);
            const aurora::vedma::lhm_word word =
                aurora::vedma::lhm_resolve64(atb_, flag_vehva);
            const auto due = [&](std::size_t) {
                return ve_poll_due(word.value(), recv_gen_[next_], cfg_.node);
            };
            for (;;) {
                inj.check_target_alive(int(cfg_.node));
                // One LHM load per probe; the ones that find nothing run
                // parked (sim::poll).
                sim::poll({&word.load_ns, 1}, 0, due);
                flag = protocol::decode_flag(word.value());
                if (flag.present() &&
                    flag.gen == protocol::next_gen(recv_gen_[next_])) {
                    if (flag.epoch == cfg_.epoch) {
                        break;
                    }
                    // A flag of a previous incarnation — a real hazard here:
                    // the shm segment survives respawns, so leftovers of the
                    // dead incarnation sit exactly where this one polls. Zero
                    // the stale flag in host memory and keep polling.
                    aurora::vedma::shm_store64(atb_, flag_vehva, 0);
                    heal::note_epoch_reject("vedma", cfg_.node);
                }
            }
            recv_gen_[next_] = flag.gen;
            buf.resize(flag.len);
            if (flag.len > 0) {
                // The flag carried the length: fetch the exact message via DMA.
                dma_.dma_sync(stage_vehva_,
                              comm_vehva_ + lay.recv_base() +
                                  lay.recv.buffer_offset(next_),
                              round_up8(flag.len));
                proc_.mem().read(stage_vaddr_, buf.data(), flag.len);
            }
            const std::uint32_t slot = next_;
            next_ = (next_ + 1) % lay.recv.slots;

            // Bulk-data control messages are handled inside the channel; the
            // message loop only ever sees user/terminate messages.
            if (flag.kind == protocol::msg_kind::data_put ||
                flag.kind == protocol::msg_kind::data_get) {
                handle_data(flag, buf, slot);
                continue;
            }
            return flag;
        }
    }

    void send_result(std::uint32_t result_slot, const void* bytes,
                     std::size_t len) override {
        const auto& lay = cfg_.layout;
        AURORA_CHECK(result_slot < lay.send.slots);
        AURORA_CHECK(len <= lay.send.msg_size + sizeof(protocol::result_header));
        const std::uint64_t dst =
            comm_vehva_ + lay.send_base() + lay.send.buffer_offset(result_slot);

        if (cfg_.shm_small_results && len <= shm_result_threshold) {
            // Extension (Sec. V-B): small VE->VH payloads are faster through
            // SHM posted stores than through a DMA transfer.
            alignas(8) std::byte word_buf[8];
            const std::uint64_t whole = len / 8 * 8;
            aurora::vedma::shm_store(atb_, dst, bytes, whole);
            if (len % 8 != 0) {
                std::memset(word_buf, 0, sizeof(word_buf));
                std::memcpy(word_buf, static_cast<const std::byte*>(bytes) + whole,
                            len % 8);
                aurora::vedma::shm_store64(
                    atb_, dst + whole,
                    *reinterpret_cast<const std::uint64_t*>(word_buf));
            }
        } else {
            proc_.mem().write(stage_vaddr_ + stage_result_off_, bytes, len);
            dma_.dma_sync(dst, stage_vehva_ + stage_result_off_, round_up8(len));
        }

        send_gen_[result_slot] = protocol::next_gen(send_gen_[result_slot]);
        protocol::flag_word flag;
        flag.kind = protocol::msg_kind::user;
        flag.gen = send_gen_[result_slot];
        flag.result_slot_plus1 = static_cast<std::uint16_t>(result_slot + 1);
        flag.epoch = cfg_.epoch;
        flag.len = static_cast<std::uint32_t>(len);
        // Notify through a single SHM word store.
        aurora::vedma::shm_store64(
            atb_, comm_vehva_ + lay.send_base() + lay.send.flag_offset(result_slot),
            protocol::encode_flag(flag));
    }

private:
    /// Execute one data_put/data_get control message (extension): move a
    /// staged chunk with the user DMA engine and acknowledge through the
    /// regular result path.
    void handle_data(const protocol::flag_word& flag,
                     const std::vector<std::byte>& buf, std::uint32_t slot) {
        AURORA_CHECK_MSG(cfg_.staging_shm_key != 0,
                         "data message without a configured staging path");
        AURORA_CHECK(buf.size() >= sizeof(protocol::data_msg));
        protocol::data_msg m;
        std::memcpy(&m, buf.data(), sizeof(m));
        if (m.host_base != 0) {
            handle_data_zero_copy(flag, m, slot);
            return;
        }
        AURORA_CHECK(m.len <= cfg_.staging_chunk_bytes);
        const auto& cm = proc_.plat().costs();

        if (flag.kind == protocol::msg_kind::data_put) {
            // Host staging -> VE staging (user DMA) -> user buffer (HBM2).
            dma_.dma_sync(data_stage_vehva_, data_host_vehva_ + m.staging_off,
                          round_up8(m.len));
            std::vector<std::byte> tmp(m.len);
            proc_.mem().read(data_stage_vaddr_, tmp.data(), m.len);
            proc_.mem().write(m.target_addr, tmp.data(), m.len);
            sim::advance(sim::transfer_ns(m.len, cm.ve_memcpy_gib));
        } else {
            // User buffer -> VE staging -> host staging (user DMA).
            std::vector<std::byte> tmp(m.len);
            proc_.mem().read(m.target_addr, tmp.data(), m.len);
            proc_.mem().write(data_stage_vaddr_, tmp.data(), m.len);
            sim::advance(sim::transfer_ns(m.len, cm.ve_memcpy_gib));
            dma_.dma_sync(data_host_vehva_ + m.staging_off, data_stage_vehva_,
                          round_up8(m.len));
        }
        const protocol::result_header ack{};
        send_result(slot, &ack, sizeof(ack));
    }

    /// Zero-copy shape (aurora::mem): translate the host user buffer and the
    /// VE arena region through the registration cache, then drive one chained
    /// user-DMA burst between them — no staging copy on either side. The
    /// scatter/gather plan splits the transfer into engine descriptors of at
    /// most staging_chunk_bytes each; the uniform run goes out as a single
    /// chained post, a short final descriptor rides alongside it.
    void handle_data_zero_copy(const protocol::flag_word& flag,
                               const protocol::data_msg& m, std::uint32_t slot) {
        AURORA_CHECK_MSG(cfg_.zero_copy,
                         "zero-copy data message but the channel was set up "
                         "without it");
        AURORA_CHECK(m.len > 0 && m.len % 8 == 0 && m.host_base % 8 == 0);
        AURORA_CHECK(m.host_len >= m.len && m.region_len > 0);
        AURORA_CHECK_MSG(m.target_addr >= m.region_base &&
                             m.target_addr + m.len <=
                                 m.region_base + m.region_len,
                         "zero-copy transfer leaves its arena region");

        const std::uint64_t host_vehva = cache_.lookup(
            aurora::mem::reg_cache::space_vh, m.host_base, m.host_len);
        const std::uint64_t region_vehva = cache_.lookup(
            aurora::mem::reg_cache::space_ve, m.region_base, m.region_len);
        const std::uint64_t ve_vehva =
            region_vehva + (m.target_addr - m.region_base);

        aurora::mem::sg_list sg(cfg_.staging_chunk_bytes);
        if (flag.kind == protocol::msg_kind::data_put) {
            sg.add(host_vehva, ve_vehva, m.len);
        } else {
            sg.add(ve_vehva, host_vehva, m.len);
        }
        const auto& es = sg.entries();
        // All descriptors but possibly the last share one length; hand that
        // uniform run to the engine as a single chained (strided) post.
        const std::uint64_t desc = es.front().len;
        std::size_t uniform = es.size();
        if (es.size() > 1 && es.back().len != desc) {
            --uniform;
        }
        aurora::vedma::ve_dma_handle chain{};
        aurora::vedma::ve_dma_handle tail{};
        if (uniform > 0) {
            AURORA_CHECK(dma_.dma_post_2d(es.front().dst, desc, es.front().src,
                                          desc, desc, uniform, chain) == 0);
        }
        if (uniform < es.size()) {
            const aurora::mem::sg_entry& last = es.back();
            AURORA_CHECK(dma_.dma_post(last.dst, last.src, last.len, tail) == 0);
        }
        if (chain.in_flight) {
            dma_.dma_wait(chain);
        }
        if (tail.in_flight) {
            dma_.dma_wait(tail);
        }

        const protocol::result_header ack{};
        send_result(slot, &ack, sizeof(ack));
    }

    aurora::veos::ve_process& proc_;
    vedma_target_cfg cfg_;
    aurora::vedma::dmaatb atb_;
    aurora::vedma::user_dma_engine dma_;
    /// Zero-copy data path (aurora::mem): registration cache over the DMAATB.
    /// Declared after atb_ so its destructor (which unregisters) runs first.
    dmaatb_registrar registrar_;
    aurora::mem::reg_cache cache_;
    std::uint64_t comm_vehva_ = 0;
    std::uint64_t stage_vaddr_ = 0;
    std::uint64_t stage_vehva_ = 0;
    std::uint64_t stage_result_off_ = 0;
    std::uint64_t data_host_vehva_ = 0;
    std::uint64_t data_stage_vaddr_ = 0;
    std::uint64_t data_stage_vehva_ = 0;
    std::uint32_t next_ = 0;
    std::vector<std::uint8_t> recv_gen_;
    std::vector<std::uint8_t> send_gen_;
};

// --- the C-API and ham_main ----------------------------------------------------

protocol::comm_layout layout_from(std::uint64_t slots, std::uint64_t msg_size) {
    protocol::comm_layout lay;
    lay.recv.slots = static_cast<std::uint32_t>(slots);
    lay.recv.msg_size = static_cast<std::uint32_t>(msg_size);
    lay.send.slots = static_cast<std::uint32_t>(slots);
    // Result slots carry [result_header][payload].
    lay.send.msg_size =
        static_cast<std::uint32_t>(msg_size + sizeof(protocol::result_header));
    return lay;
}

/// ABI guard (Sec. III-E): compare the host binary's type-table fingerprint
/// against this image's. 0 = compatible, 1 = mismatch.
std::uint64_t check_abi(std::uint64_t host_fingerprint) {
    return ve_image_registry().fingerprint() == host_fingerprint ? 0 : 1;
}

std::uint64_t c_api_setup_veo(aurora::veos::ve_call_context& ctx) {
    veo_target_cfg cfg;
    cfg.comm_addr = ctx.arg_u64(0);
    cfg.layout = layout_from(ctx.arg_u64(1), ctx.arg_u64(2));
    cfg.node = static_cast<node_t>(ctx.arg_i64(3));
    if (ctx.arg_count() > 4 && check_abi(ctx.arg_u64(4)) != 0) {
        return 1;
    }
    if (ctx.arg_count() > 5) {
        cfg.epoch = static_cast<std::uint8_t>(ctx.arg_u64(5));
    }
    ctx.proc().user_state() = target_cfg(cfg);
    return 0;
}

std::uint64_t c_api_setup_vedma(aurora::veos::ve_call_context& ctx) {
    vedma_target_cfg cfg;
    // Simulation glue: the registry pointer stands in for the kernel's SysV
    // namespace the real shmget/shmat would consult.
    cfg.shms =
        reinterpret_cast<const aurora::vedma::shm_registry*>(ctx.arg_u64(0));
    cfg.shm_key = static_cast<int>(ctx.arg_i64(1));
    cfg.layout = layout_from(ctx.arg_u64(2), ctx.arg_u64(3));
    cfg.node = static_cast<node_t>(ctx.arg_i64(4));
    cfg.shm_small_results = ctx.arg_u64(5) != 0;
    if (ctx.arg_count() > 6) {
        cfg.staging_shm_key = static_cast<int>(ctx.arg_i64(6));
        cfg.staging_chunk_bytes = ctx.arg_u64(7);
    }
    if (ctx.arg_count() > 8 && check_abi(ctx.arg_u64(8)) != 0) {
        return 1;
    }
    if (ctx.arg_count() > 9) {
        cfg.epoch = static_cast<std::uint8_t>(ctx.arg_u64(9));
    }
    if (ctx.arg_count() > 10) {
        cfg.zero_copy = ctx.arg_u64(10) != 0;
    }
    if (ctx.arg_count() > 11) {
        cfg.vh_socket = static_cast<int>(ctx.arg_i64(11));
    }
    ctx.proc().user_state() = target_cfg(cfg);
    return 0;
}

std::uint64_t c_api_ham_main(aurora::veos::ve_call_context& ctx) {
    aurora::veos::ve_process& proc = ctx.proc();
    auto* cfg = std::any_cast<target_cfg>(&proc.user_state());
    AURORA_CHECK_MSG(cfg != nullptr,
                     "ham_main called before the communication setup C-API");

    // The VE binary's own translation tables (Fig. 6).
    const ham::handler_registry& registry = ve_image_registry();

    ve_target_memory memory(proc);
    const node_t node = std::holds_alternative<veo_target_cfg>(*cfg)
                            ? std::get<veo_target_cfg>(*cfg).node
                            : std::get<vedma_target_cfg>(*cfg).node;
    target_context tctx(node, target_context::device::ve, &memory,
                        &proc.plat().costs());

    target_loop_config loop_cfg;
    loop_cfg.registry = &registry;
    loop_cfg.context = &tctx;
    loop_cfg.costs = &proc.plat().costs();

    // A simulated VE death (aurora::fault) unwinds the loop here; the channel
    // destructors still run, so DMAATB registrations are released before the
    // host tears the shared segments down. ham_main returning 2 tells the
    // host-side reaper the process died rather than terminated cleanly.
    try {
        if (const auto* veo_cfg = std::get_if<veo_target_cfg>(cfg)) {
            loop_cfg.msg_size = veo_cfg->layout.recv.msg_size;
            veo_ve_channel channel(proc, *veo_cfg);
            run_target_loop(loop_cfg, channel);
        } else {
            const auto& dma_cfg = std::get<vedma_target_cfg>(*cfg);
            loop_cfg.msg_size = dma_cfg.layout.recv.msg_size;
            vedma_ve_channel channel(proc, dma_cfg);
            run_target_loop(loop_cfg, channel);
        }
    } catch (const aurora::fault::target_killed&) {
        return 2;
    }
    return 0;
}

} // namespace

const aurora::veos::program_image& ham_app_image() {
    static const aurora::veos::program_image image = [] {
        aurora::veos::program_image img(app_image_name);
        img.add_symbol(sym_setup_veo, c_api_setup_veo);
        img.add_symbol(sym_setup_vedma, c_api_setup_vedma);
        img.add_symbol(sym_ham_main, c_api_ham_main);
        return img;
    }();
    return image;
}

ham::handler_registry::options host_image_options() {
    // Conventional x86 text-segment base; catalog order (GCC layout).
    return {.address_base = 0x400000, .layout_seed = 0};
}

ham::handler_registry::options ve_image_options() {
    // A distinct synthetic code base and a shuffled layout stand in for the
    // NCC-built VE binary: identical type names, different local addresses.
    return {.address_base = 0x7E0000000000, .layout_seed = 0x5EEDABCD1234ULL};
}

ham::handler_registry::options queue_target_image_options() {
    return {.address_base = 0x5B0000000000, .layout_seed = 0x10053ACCULL};
}

const ham::handler_registry& host_image_registry() {
    static const ham::handler_registry reg =
        ham::handler_registry::build(host_image_options());
    return reg;
}

const ham::handler_registry& ve_image_registry() {
    static const ham::handler_registry reg =
        ham::handler_registry::build(ve_image_options());
    return reg;
}

const ham::handler_registry& queue_target_image_registry() {
    static const ham::handler_registry reg =
        ham::handler_registry::build(queue_target_image_options());
    return reg;
}

} // namespace ham::offload
