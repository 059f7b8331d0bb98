// VEO communication backend (paper Sec. III-D, Fig. 5).
//
// One-sided protocol driven by the VH: both communication regions (receive
// message buffers + flags, send/result buffers + flags) live in VE memory.
// The host writes offload messages and notification flags through
// veo_write_mem, and polls result flags / fetches result messages through
// veo_read_mem — every step paying the privileged-DMA cost that motivates
// Sec. IV. The VE side polls its local flags between message executions.
//
// Deployment follows Fig. 4: the host creates the VE process via VEO, loads
// the application library, pushes the communication parameters through a
// C-API call (ham_comm_setup_veo) and starts ham_main asynchronously.
#pragma once

#include <cstdint>
#include <vector>

#include "offload/backend.hpp"
#include "offload/options.hpp"
#include "offload/protocol.hpp"
#include "veo/veo_api.hpp"

namespace ham::offload {

class backend_veo final : public backend {
public:
    /// Notes its wire sends in `flight`, the target's black box.
    backend_veo(aurora::veos::veos_system& sys, int ve_id, node_t node,
                const runtime_options& opt, aurora::obs::flight_ring& flight);
    ~backend_veo() override;

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

private:
    bool read_result(std::uint32_t slot, std::vector<std::byte>& out) override;
    /// Fig. 4 deployment for the current epoch_ incarnation: VE process,
    /// library, communication area, setup C-API call, async ham_main.
    void attach();
    [[nodiscard]] std::uint64_t result_flag_addr(std::uint32_t slot) const;
    /// The privileged DMA manager behind veo_read_mem for this process.
    [[nodiscard]] aurora::veos::dma_manager& dma() const;

    aurora::veos::veos_system& sys_;
    int ve_id_;
    node_t node_;
    protocol::comm_layout layout_;
    int vh_socket_;
    aurora::obs::flight_ring& flight_;
    aurora::veo::veo_proc_handle* proc_ = nullptr;
    aurora::veo::veo_thr_ctxt* ctx_ = nullptr;
    std::uint64_t comm_addr_ = 0; ///< base of the communication area (VE memory)
    std::uint64_t main_req_ = 0;  ///< outstanding ham_main request
    bool quiesced_ = false; ///< ham_main reaped, memory kept for the drain
    std::vector<std::uint8_t> send_gen_;   ///< per recv-slot message generation
    std::vector<std::uint8_t> result_gen_; ///< per send-slot expected result gen
    /// Current incarnation (aurora::heal), stamped into every flag.
    std::uint8_t epoch_ = 0;
    /// First-transmission messages since the last attach. Tracks the VE
    /// channel's round-robin poll cursor (they advance in lockstep once all
    /// results are harvested) for the inject_stale_flag test seam.
    std::uint64_t sends_since_attach_ = 0;
    backend_metrics met_;
};

} // namespace ham::offload
