// Allocation counting for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete family; every
// allocation bumps a process-wide counter and one owned by the allocating
// thread. The benchmark's client runs on the simulated VH thread, so the
// VH/VE split of allocations per request is this_thread() versus the rest.
#pragma once

#include <cstdint>

namespace aurora_bench::alloc {

/// Allocations (operator new calls of any form) made by the calling thread.
[[nodiscard]] std::uint64_t this_thread() noexcept;

/// Allocations made by every thread of the process.
[[nodiscard]] std::uint64_t process() noexcept;

} // namespace aurora_bench::alloc
