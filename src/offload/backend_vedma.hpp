// VE-DMA communication backend (paper Sec. IV-B, Fig. 8).
//
// The communication memory lives in a SysV shared-memory segment on the VH,
// "thus rendering all the operations on the host side local memory accesses".
// The VE drives every transfer: it polls the message flags via LHM, fetches
// messages with the user DMA engine, writes results back via DMA (optionally
// SHM stores for small payloads — the Sec. V-B observation, available as an
// extension), and raises result flags with single SHM word stores.
//
// Deployment and bulk data exchange (put/get/allocate) still go through the
// VEO API, exactly as the paper states ("Starting the application,
// initialisation and data exchange are still performed through the VEO API").
#pragma once

#include <cstdint>
#include <vector>

#include "offload/backend.hpp"
#include "offload/options.hpp"
#include "offload/protocol.hpp"
#include "vedma/sysv_shm.hpp"
#include "veo/veo_api.hpp"

namespace ham::offload {

class backend_vedma final : public backend {
public:
    backend_vedma(aurora::veos::veos_system& sys, int ve_id, node_t node,
                  const runtime_options& opt);
    ~backend_vedma() override;

    [[nodiscard]] std::uint32_t slot_count() const override {
        return layout_.recv.slots;
    }
    [[nodiscard]] io_status send_message(std::uint32_t slot, const void* msg,
                                         std::size_t len, protocol::msg_kind kind,
                                         bool retransmit) override;
    [[nodiscard]] sim::duration_ns probe_ns(std::uint32_t slot) const override;
    [[nodiscard]] sim::time_ns result_due(std::uint32_t slot) const override;
    void count_skipped_probes(std::uint32_t slot, std::uint64_t n) override;

    [[nodiscard]] std::uint64_t allocate_bytes(std::uint64_t len) override;
    void free_bytes(std::uint64_t addr) override;
    void put_bytes(const void* src, std::uint64_t dst_addr,
                   std::uint64_t len) override;
    void get_bytes(std::uint64_t src_addr, void* dst, std::uint64_t len) override;

    [[nodiscard]] node_descriptor descriptor() const override;
    void shutdown() override;
    void abandon() override;
    void quiesce() override;
    void respawn(std::uint8_t epoch) override;
    [[nodiscard]] bool inject_stale_flag(std::uint32_t slot,
                                         std::uint8_t epoch) override;

    // --- VE-DMA bulk-data path (extension; see options.hpp) ------------------
    [[nodiscard]] bool has_dma_data_path() const override {
        return opt_.vedma_dma_data_path;
    }
    [[nodiscard]] std::uint32_t staging_chunk_count() const override {
        return opt_.vedma_staging_chunks;
    }
    [[nodiscard]] std::uint64_t staging_chunk_bytes() const override {
        return opt_.vedma_staging_chunk_bytes;
    }
    void stage_put(std::uint32_t chunk, const void* src, std::uint64_t len) override;
    void stage_get(std::uint32_t chunk, void* dst, std::uint64_t len) override;
    [[nodiscard]] bool supports_zero_copy() const override {
        return opt_.vedma_dma_data_path && opt_.vedma_zero_copy;
    }

private:
    bool read_result(std::uint32_t slot, std::vector<std::byte>& out) override;
    /// Raw result flag word of `slot`, read without the clock.
    [[nodiscard]] std::uint64_t result_flag(std::uint32_t slot) const;
    [[nodiscard]] std::byte* region(std::uint64_t offset) const {
        return seg_->addr + offset;
    }

    /// VEO part of the deployment for the current epoch_ incarnation:
    /// process, library, setup C-API call, async ham_main. The shared-memory
    /// segments are NOT created here — they are created once by the
    /// constructor and survive respawns (Sec. IV-B: they belong to the VH).
    void attach();
    void destroy_segments();

    aurora::veos::veos_system& sys_;
    int ve_id_;
    node_t node_;
    runtime_options opt_;
    protocol::comm_layout layout_;
    aurora::vedma::shm_registry shms_;
    const aurora::vedma::shm_segment* seg_ = nullptr;
    const aurora::vedma::shm_segment* staging_seg_ = nullptr;
    aurora::veo::veo_proc_handle* proc_ = nullptr;
    aurora::veo::veo_thr_ctxt* ctx_ = nullptr;
    std::uint64_t main_req_ = 0;
    bool quiesced_ = false; ///< ham_main reaped, segments kept for the drain
    std::vector<std::uint8_t> send_gen_;
    std::vector<std::uint8_t> result_gen_;
    /// Current incarnation (aurora::heal). The shm segment is reused across
    /// incarnations, so stale flags of a dead incarnation genuinely persist
    /// in it — the epoch stamped into every flag is what rejects them.
    std::uint8_t epoch_ = 0;
    /// First-transmission messages since the last attach — the VE channel's
    /// poll cursor, for the inject_stale_flag test seam (see backend_veo).
    std::uint64_t sends_since_attach_ = 0;
    backend_metrics met_;
};

} // namespace ham::offload
