// Vector Host memory with page-size attribution.
//
// VH buffers live in real process memory (the simulation does not virtualise
// the host address space), but the VEOS privileged DMA manager's translation
// cost depends on the *page size* backing the VH buffer ("when huge pages are
// employed on the VH side", paper Sec. III-D). The registry records which page
// size backs which buffer; unregistered memory defaults to 4 KiB pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>

#include "sim/cost_model.hpp"

namespace aurora::sim {

/// Tracks [ptr, ptr+len) -> page_size attributions for host memory.
class vh_page_registry {
public:
    /// Attribute a buffer to a page size (e.g. a hugetlbfs allocation).
    void register_range(const void* ptr, std::uint64_t len, page_size ps);

    /// Remove an attribution (exact start pointer).
    void unregister_range(const void* ptr);

    /// Page size backing `ptr` (4 KiB when not registered).
    [[nodiscard]] page_size lookup(const void* ptr) const;

    [[nodiscard]] std::size_t registered_count() const noexcept {
        return ranges_.size();
    }

private:
    struct range {
        std::uint64_t len;
        page_size ps;
    };
    std::map<std::uintptr_t, range> ranges_;
};

/// An allocation of at least this size is an anonymous private mapping, not
/// a heap block: the kernel zero-fills each of its pages on first touch, as
/// it does for shmget memory, so a large segment (data_path's 8 MiB staging
/// segment, of which a 4 KiB transfer touches one page) costs only the pages
/// a run touches. One 2 MiB huge page is the smallest segment the paper's
/// DMA set-up maps. Below it (a vedma target's ~64 KiB comm segment) zeroing
/// a block of warm heap once is cheaper than faulting in fresh pages.
inline constexpr std::uint64_t vh_mapped_min_bytes = page_bytes(page_size::huge_2m);

/// RAII host allocation registered with a page size, modelling an allocation
/// from hugetlbfs (or plain malloc for 4 KiB pages). Reads zero until
/// written.
class vh_allocation {
public:
    vh_allocation(vh_page_registry& registry, std::uint64_t bytes, page_size ps);
    vh_allocation(vh_allocation&&) = delete;
    vh_allocation& operator=(vh_allocation&&) = delete;
    ~vh_allocation();

    [[nodiscard]] std::byte* data() noexcept { return data_; }
    [[nodiscard]] const std::byte* data() const noexcept { return data_; }
    [[nodiscard]] std::uint64_t size() const noexcept { return bytes_; }
    [[nodiscard]] page_size pages() const noexcept { return ps_; }

private:
    vh_page_registry& registry_;
    std::unique_ptr<std::byte[]> heap_; ///< below vh_mapped_min_bytes
    std::byte* data_ = nullptr;         ///< heap_ or the mapping
    std::uint64_t bytes_;
    page_size ps_;
};

} // namespace aurora::sim
