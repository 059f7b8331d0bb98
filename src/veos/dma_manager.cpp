#include "veos/dma_manager.hpp"

#include <algorithm>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace aurora::veos {

sim::duration_ns dma_manager::transfer_cost(std::uint64_t n, bool to_ve,
                                            sim::page_size vh_pages,
                                            sim::page_size ve_pages,
                                            int socket) const {
    const auto& cm = plat_.costs();
    const auto& topo = plat_.topology();

    const sim::duration_ns base = to_ve ? cm.veo_write_base_ns : cm.veo_read_base_ns;
    // Writes are posted (one way); reads need the request out and data back.
    const sim::duration_ns wire = to_ve ? topo.one_way_latency(cm, socket, ve_id_)
                                        : topo.round_trip_latency(cm, socket, ve_id_);

    // Virtual->physical translation of every covered page, on both sides —
    // privileged DMA descriptors require absolute addresses (Sec. III-D).
    const sim::duration_ns translation =
        sim::duration_ns(sim::pages_for(n, vh_pages)) *
            sim::veos_translate_page_ns(cm, vh_pages) +
        sim::duration_ns(sim::pages_for(n, ve_pages)) *
            sim::veos_translate_page_ns(cm, ve_pages);

    const double link = to_ve ? cm.veo_write_link_gib : cm.veo_read_link_gib;
    const sim::duration_ns wire_time = sim::transfer_ns(n, link);

    switch (mode_) {
        case sim::dma_manager_mode::classic:
            // Translation happens on the fly, serialised with the transfer.
            return base + wire + translation + wire_time;
        case sim::dma_manager_mode::improved_4dma:
            // Bulk translation overlaps descriptor generation and transfer.
            return base + wire + cm.veos_4dma_pipeline_fill_ns +
                   std::max(translation, wire_time);
    }
    aurora::unreachable();
}

sim::page_size dma_manager::ve_page_size_of(ve_process& proc,
                                            std::uint64_t ve_addr) const {
    const sim::vm_mapping* m = proc.aspace().find(ve_addr);
    AURORA_CHECK_MSG(m != nullptr, "privileged DMA to unmapped VE address 0x"
                                       << std::hex << ve_addr);
    return m->pages;
}

void dma_manager::write_to_ve(ve_process& proc, std::uint64_t ve_dst, const void* src,
                              std::uint64_t n, int socket) {
    AURORA_CHECK(sim::in_simulation());
    if (n == 0) {
        return;
    }
    const sim::page_size vh_ps = plat_.vh_pages().lookup(src);
    const sim::page_size ve_ps = ve_page_size_of(proc, ve_dst);
    sim::advance(transfer_cost(n, /*to_ve=*/true, vh_ps, ve_ps, socket));
    // Data becomes visible at transfer completion.
    proc.mem().write(ve_dst, src, n);
    ++transfers_;
    bytes_ += n;
}

void dma_manager::read_from_ve(ve_process& proc, std::uint64_t ve_src, void* dst,
                               std::uint64_t n, int socket) {
    AURORA_CHECK(sim::in_simulation());
    if (n == 0) {
        return;
    }
    // The DMA engine samples VE memory while the request is in flight; we
    // model the snapshot at completion time (after the advance), which keeps
    // producer/consumer protocols conservative: a reader never observes a
    // flag *earlier* than the real hardware could.
    sim::advance(read_cost(proc, ve_src, dst, n, socket));
    finish_read(proc, ve_src, dst, n);
}

sim::duration_ns dma_manager::read_cost(ve_process& proc, std::uint64_t ve_src,
                                        const void* dst, std::uint64_t n,
                                        int socket) const {
    const sim::page_size vh_ps = plat_.vh_pages().lookup(dst);
    const sim::page_size ve_ps = ve_page_size_of(proc, ve_src);
    return transfer_cost(n, /*to_ve=*/false, vh_ps, ve_ps, socket);
}

void dma_manager::finish_read(ve_process& proc, std::uint64_t ve_src, void* dst,
                              std::uint64_t n, std::uint64_t reads) {
    proc.mem().read(ve_src, dst, n);
    transfers_ += reads;
    bytes_ += reads * n;
}

} // namespace aurora::veos
