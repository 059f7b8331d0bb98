#include "vedma/userdma.hpp"

#include <cstring>
#include <memory>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace aurora::vedma {

namespace {
void check_on_ve(veos::ve_process& proc) {
    AURORA_CHECK_MSG(sim::in_simulation() && proc.sim_process() == &sim::self(),
                     "user DMA is VE-initiated: call from the VE process");
}
} // namespace

sim::duration_ns user_dma_engine::transfer_time(std::uint64_t len, bool to_vh,
                                                int vh_socket) const {
    const auto& plat = atb_.proc().plat();
    const auto& cm = plat.costs();
    const double rate = to_vh ? cm.ve_dma_write_gib : cm.ve_dma_read_gib;
    sim::duration_ns t = cm.ve_dma_latency_ns + sim::transfer_ns(len, rate);
    if (plat.topology().crosses_upi(vh_socket, atb_.proc().ve_id())) {
        // The engine's request/first-byte path crosses the socket interconnect.
        t += 2 * cm.upi_one_way_ns;
    }
    return t;
}

void user_dma_engine::copy_bytes(const dma_resolution& dst, const dma_resolution& src,
                                 std::uint64_t len) {
    auto& hbm = atb_.proc().plat().ve(atb_.proc().ve_id()).hbm();
    if (src.k == dma_resolution::kind::vh && dst.k == dma_resolution::kind::ve) {
        hbm.write(dst.ve_paddr, src.vh_ptr, len);
    } else if (src.k == dma_resolution::kind::ve && dst.k == dma_resolution::kind::vh) {
        hbm.read(src.ve_paddr, dst.vh_ptr, len);
    } else if (src.k == dma_resolution::kind::ve && dst.k == dma_resolution::kind::ve) {
        // Local HBM-to-HBM copy through a bounce buffer.
        auto tmp = std::make_unique<std::byte[]>(len);
        hbm.read(src.ve_paddr, tmp.get(), len);
        hbm.write(dst.ve_paddr, tmp.get(), len);
    } else {
        std::memmove(dst.vh_ptr, src.vh_ptr, len); // VH->VH (degenerate)
    }
}

int user_dma_engine::dma_post(std::uint64_t dst_vehva, std::uint64_t src_vehva,
                              std::uint64_t len, ve_dma_handle& h) {
    check_on_ve(atb_.proc());
    AURORA_CHECK_MSG(!h.in_flight, "ve_dma_handle reused while in flight");
    if (len == 0) {
        h.in_flight = true;
        h.complete_at = sim::now();
        return 0;
    }
    const dma_resolution src = atb_.resolve(src_vehva, len);
    const dma_resolution dst = atb_.resolve(dst_vehva, len);

    const auto& cm = atb_.proc().plat().costs();
    sim::advance(cm.ve_dma_post_ns); // descriptor build + doorbell

    sim::duration_ns dur = 0;
    if (dst.k == dma_resolution::kind::vh) {
        dur = transfer_time(len, /*to_vh=*/true, dst.vh_socket);
    } else if (src.k == dma_resolution::kind::vh) {
        dur = transfer_time(len, /*to_vh=*/false, src.vh_socket);
    } else {
        dur = cm.ve_dma_latency_ns + sim::transfer_ns(len, cm.ve_memcpy_gib);
    }

    // Functionally the data lands now; the completion time gates everything
    // the protocol hangs off the transfer (flags are only raised after
    // dma_wait/dma_poll report completion, so no consumer can observe the
    // payload "too early" through a correctly written protocol).
    copy_bytes(dst, src, len);
    h.in_flight = true;
    h.complete_at = sim::now() + dur;
    ++transfers_;
    bytes_ += len;
    return 0;
}

int user_dma_engine::dma_poll(ve_dma_handle& h) {
    check_on_ve(atb_.proc());
    AURORA_CHECK_MSG(h.in_flight, "poll of an idle ve_dma_handle");
    sim::advance(atb_.proc().plat().costs().ve_dma_poll_ns);
    if (sim::now() >= h.complete_at) {
        h.in_flight = false;
        return 0;
    }
    return 1;
}

void user_dma_engine::dma_wait(ve_dma_handle& h) {
    check_on_ve(atb_.proc());
    AURORA_CHECK_MSG(h.in_flight, "wait on an idle ve_dma_handle");
    sim::sleep_until(h.complete_at);
    h.in_flight = false;
}

void user_dma_engine::dma_sync(std::uint64_t dst_vehva, std::uint64_t src_vehva,
                               std::uint64_t len) {
    ve_dma_handle h;
    AURORA_CHECK(dma_post(dst_vehva, src_vehva, len, h) == 0);
    dma_wait(h);
}

int user_dma_engine::dma_post_2d(std::uint64_t dst_vehva, std::uint64_t dst_stride,
                                 std::uint64_t src_vehva, std::uint64_t src_stride,
                                 std::uint64_t block_len, std::uint64_t count,
                                 ve_dma_handle& h) {
    check_on_ve(atb_.proc());
    AURORA_CHECK_MSG(!h.in_flight, "ve_dma_handle reused while in flight");
    AURORA_CHECK_MSG(block_len <= src_stride || count <= 1,
                     "strided DMA source blocks overlap");
    AURORA_CHECK_MSG(block_len <= dst_stride || count <= 1,
                     "strided DMA destination blocks overlap");
    if (block_len == 0 || count == 0) {
        h.in_flight = true;
        h.complete_at = sim::now();
        return 0;
    }

    const auto& cm = atb_.proc().plat().costs();
    sim::advance(cm.ve_dma_post_ns); // first descriptor + doorbell

    // Resolve/copy every block; directionality comes from the first block.
    sim::duration_ns wire = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const dma_resolution src =
            atb_.resolve(src_vehva + i * src_stride, block_len);
        const dma_resolution dst =
            atb_.resolve(dst_vehva + i * dst_stride, block_len);
        if (i == 0) {
            if (dst.k == dma_resolution::kind::vh) {
                wire = transfer_time(block_len * count, /*to_vh=*/true,
                                     dst.vh_socket);
            } else if (src.k == dma_resolution::kind::vh) {
                wire = transfer_time(block_len * count, /*to_vh=*/false,
                                     src.vh_socket);
            } else {
                wire = cm.ve_dma_latency_ns +
                       sim::transfer_ns(block_len * count, cm.ve_memcpy_gib);
            }
        }
        copy_bytes(dst, src, block_len);
    }

    h.in_flight = true;
    h.complete_at = sim::now() + wire +
                    sim::duration_ns(count > 0 ? count - 1 : 0) *
                        cm.ve_dma_desc_chain_ns;
    ++transfers_;
    bytes_ += block_len * count;
    return 0;
}

void user_dma_engine::dma_sync_2d(std::uint64_t dst_vehva, std::uint64_t dst_stride,
                                  std::uint64_t src_vehva, std::uint64_t src_stride,
                                  std::uint64_t block_len, std::uint64_t count) {
    ve_dma_handle h;
    AURORA_CHECK(dma_post_2d(dst_vehva, dst_stride, src_vehva, src_stride,
                             block_len, count, h) == 0);
    dma_wait(h);
}

} // namespace aurora::vedma
