// Replacement global operator new/delete that counts allocations.
//
// Storage comes from malloc/aligned_alloc, so every delete form maps to
// free(). The counters are a relaxed atomic (process) and a thread_local
// (per thread); neither allocates.
#include "support/alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_process_allocs{0};
thread_local std::uint64_t t_thread_allocs = 0;

void note_alloc() noexcept {
    g_process_allocs.fetch_add(1, std::memory_order_relaxed);
    ++t_thread_allocs;
}

void* counted_alloc(std::size_t n) {
    note_alloc();
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        return p;
    }
    throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
    note_alloc();
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (n == 0 ? a : (n + a - 1) / a * a);
    if (void* p = std::aligned_alloc(a, rounded)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

namespace aurora_bench::alloc {

std::uint64_t this_thread() noexcept { return t_thread_allocs; }

std::uint64_t process() noexcept {
    return g_process_allocs.load(std::memory_order_relaxed);
}

} // namespace aurora_bench::alloc

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t n, std::align_val_t al) {
    return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
    return counted_alloc_aligned(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
    try {
        return counted_alloc_aligned(n, al);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
    try {
        return counted_alloc_aligned(n, al);
    } catch (...) {
        return nullptr;
    }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
    std::free(p);
}
