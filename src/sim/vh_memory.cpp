#include "sim/vh_memory.hpp"

#include <sys/mman.h>

#include "util/check.hpp"

namespace aurora::sim {

void vh_page_registry::register_range(const void* ptr, std::uint64_t len,
                                      page_size ps) {
    AURORA_CHECK(ptr != nullptr && len > 0);
    const auto start = reinterpret_cast<std::uintptr_t>(ptr);
    auto next = ranges_.lower_bound(start);
    if (next != ranges_.end()) {
        AURORA_CHECK_MSG(start + len <= next->first, "overlapping VH registration");
    }
    if (next != ranges_.begin()) {
        auto prev = std::prev(next);
        AURORA_CHECK_MSG(prev->first + prev->second.len <= start,
                         "overlapping VH registration");
    }
    ranges_.emplace(start, range{len, ps});
}

void vh_page_registry::unregister_range(const void* ptr) {
    const auto start = reinterpret_cast<std::uintptr_t>(ptr);
    auto it = ranges_.find(start);
    AURORA_CHECK_MSG(it != ranges_.end(), "unregister of unknown VH range");
    ranges_.erase(it);
}

page_size vh_page_registry::lookup(const void* ptr) const {
    const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
    auto it = ranges_.upper_bound(addr);
    if (it == ranges_.begin()) {
        return page_size::small_4k;
    }
    --it;
    if (addr < it->first + it->second.len) {
        return it->second.ps;
    }
    return page_size::small_4k;
}

vh_allocation::vh_allocation(vh_page_registry& registry, std::uint64_t bytes,
                             page_size ps)
    : registry_(registry), bytes_(bytes), ps_(ps) {
    if (bytes_ >= vh_mapped_min_bytes) {
        void* const map = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        AURORA_CHECK_MSG(map != MAP_FAILED,
                         "cannot map a VH allocation of " << bytes_ << " bytes");
        data_ = static_cast<std::byte*>(map);
    } else {
        heap_ = std::make_unique<std::byte[]>(bytes_); // value-initialised
        data_ = heap_.get();
    }
    registry_.register_range(data_, bytes_, ps_);
}

vh_allocation::~vh_allocation() {
    registry_.unregister_range(data_);
    if (heap_ == nullptr) {
        munmap(data_, bytes_);
    }
}

} // namespace aurora::sim
