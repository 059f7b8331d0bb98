// The VEOS privileged DMA manager (paper Sec. I-B / III-D).
//
// veo_read_mem()/veo_write_mem() transfers run through this component: the
// request traverses the pseudo-process, the VEOS daemon and the kernel
// modules, and every covered page is translated from virtual to absolute
// (physical) addresses. Two manager generations are modeled:
//   * classic            — translation happens on the fly, serialised with
//                          the transfer;
//   * improved_4dma      — VEOS 1.3.2-4dma: bulk translations overlap
//                          descriptor generation and the DMA transfer.
// Huge pages on the VH side slash the per-page translation volume, which is
// why the paper needs >= 2 MiB pages to reach peak bandwidth.
#pragma once

#include <cstdint>

#include "sim/cost_model.hpp"
#include "sim/platform.hpp"
#include "veos/ve_process.hpp"

namespace aurora::veos {

class dma_manager {
public:
    dma_manager(sim::platform& plat, int ve_id, sim::dma_manager_mode mode)
        : plat_(plat), ve_id_(ve_id), mode_(mode) {}

    [[nodiscard]] sim::dma_manager_mode mode() const noexcept { return mode_; }

    /// Modeled duration of one privileged-DMA transfer of `n` bytes.
    /// `to_ve` selects direction (write vs read), `vh_pages`/`ve_pages` the
    /// page sizes backing the two buffers, `socket` the VH socket issuing it.
    [[nodiscard]] sim::duration_ns transfer_cost(std::uint64_t n, bool to_ve,
                                                 sim::page_size vh_pages,
                                                 sim::page_size ve_pages,
                                                 int socket) const;

    /// Timed veo_write_mem body: copies `n` bytes from VH memory at `src`
    /// into VE virtual address `ve_dst` of `proc`. Must run on a VH process.
    void write_to_ve(ve_process& proc, std::uint64_t ve_dst, const void* src,
                     std::uint64_t n, int socket);

    /// Timed veo_read_mem body: VE virtual `ve_src` -> VH memory at `dst`.
    /// read_cost() and then finish_read().
    void read_from_ve(ve_process& proc, std::uint64_t ve_src, void* dst,
                      std::uint64_t n, int socket);
    /// The time read_from_ve() spends before its snapshot.
    [[nodiscard]] sim::duration_ns read_cost(ve_process& proc, std::uint64_t ve_src,
                                             const void* dst, std::uint64_t n,
                                             int socket) const;
    /// The rest of read_from_ve(), once its time passed: the snapshot, and
    /// `reads` transfers of `n` bytes in the statistics (a poll that parked
    /// between reads books the ones it skipped here too).
    void finish_read(ve_process& proc, std::uint64_t ve_src, void* dst,
                     std::uint64_t n, std::uint64_t reads = 1);

    /// Transfers performed so far (for tests/statistics).
    [[nodiscard]] std::uint64_t transfer_count() const noexcept { return transfers_; }
    [[nodiscard]] std::uint64_t bytes_moved() const noexcept { return bytes_; }

private:
    [[nodiscard]] sim::page_size ve_page_size_of(ve_process& proc,
                                                 std::uint64_t ve_addr) const;

    sim::platform& plat_;
    int ve_id_;
    sim::dma_manager_mode mode_;
    std::uint64_t transfers_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace aurora::veos
