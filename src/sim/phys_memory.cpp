#include "sim/phys_memory.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace aurora::sim {

phys_memory::phys_memory(std::string name, std::uint64_t size)
    : name_(std::move(name)), size_(size) {
    AURORA_CHECK(size > 0);
}

void phys_memory::check_range(std::uint64_t addr, std::uint64_t n) const {
    AURORA_CHECK_MSG(addr <= size_ && n <= size_ - addr,
                     name_ << ": access [" << addr << ", " << addr + n
                           << ") out of bounds (size " << size_ << ")");
}

std::byte* phys_memory::chunk_for_write(std::uint64_t chunk_index) {
    auto& slot = chunks_[chunk_index];
    if (slot == nullptr) {
        slot = std::make_unique<std::byte[]>(chunk_size); // zeroed
    }
    return slot.get();
}

const std::byte* phys_memory::chunk_for_read(std::uint64_t chunk_index) const {
    auto it = chunks_.find(chunk_index);
    return it == chunks_.end() ? nullptr : it->second.get();
}

void phys_memory::read(std::uint64_t addr, void* dst, std::uint64_t n) const {
    check_range(addr, n);
    auto* out = static_cast<std::byte*>(dst);
    while (n > 0) {
        const std::uint64_t ci = addr / chunk_size;
        const std::uint64_t off = addr % chunk_size;
        const std::uint64_t take = std::min<std::uint64_t>(n, chunk_size - off);
        if (const std::byte* chunk = chunk_for_read(ci); chunk != nullptr) {
            std::memcpy(out, chunk + off, take);
        } else {
            std::memset(out, 0, take);
        }
        out += take;
        addr += take;
        n -= take;
    }
}

void phys_memory::write(std::uint64_t addr, const void* src, std::uint64_t n) {
    check_range(addr, n);
    const auto* in = static_cast<const std::byte*>(src);
    while (n > 0) {
        const std::uint64_t ci = addr / chunk_size;
        const std::uint64_t off = addr % chunk_size;
        const std::uint64_t take = std::min<std::uint64_t>(n, chunk_size - off);
        std::memcpy(chunk_for_write(ci) + off, in, take);
        in += take;
        addr += take;
        n -= take;
    }
}

void phys_memory::fill_zero(std::uint64_t addr, std::uint64_t n) {
    check_range(addr, n);
    while (n > 0) {
        const std::uint64_t ci = addr / chunk_size;
        const std::uint64_t off = addr % chunk_size;
        const std::uint64_t take = std::min<std::uint64_t>(n, chunk_size - off);
        // Only touch chunks that exist; untouched chunks already read as zero.
        if (auto it = chunks_.find(ci); it != chunks_.end()) {
            std::memset(it->second.get() + off, 0, take);
        }
        addr += take;
        n -= take;
    }
}

std::uint64_t phys_memory::load_u64(std::uint64_t addr) const {
    std::uint64_t v = 0;
    read(addr, &v, sizeof(v));
    return v;
}

void phys_memory::store_u64(std::uint64_t addr, std::uint64_t value) {
    write(addr, &value, sizeof(value));
}

} // namespace aurora::sim
