#include "util/context_local.hpp"

#include <atomic>

#include "util/check.hpp"

namespace aurora::detail {

std::size_t allocate_context_slot() {
    static std::atomic<std::size_t> next{0};
    const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
    AURORA_CHECK_MSG(index < context_slots::capacity,
                     "more than " << context_slots::capacity
                                  << " context_local variables");
    return index;
}

} // namespace aurora::detail
