#include "sim/vh_memory.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/units.hpp"

namespace aurora::sim {
namespace {

TEST(VhPageRegistry, DefaultIsSmallPages) {
    vh_page_registry reg;
    int x = 0;
    EXPECT_EQ(reg.lookup(&x), page_size::small_4k);
}

TEST(VhPageRegistry, RegisteredRangeFound) {
    vh_page_registry reg;
    std::vector<std::byte> buf(4096);
    reg.register_range(buf.data(), buf.size(), page_size::huge_2m);
    EXPECT_EQ(reg.lookup(buf.data()), page_size::huge_2m);
    EXPECT_EQ(reg.lookup(buf.data() + 100), page_size::huge_2m);
    EXPECT_EQ(reg.lookup(buf.data() + 4095), page_size::huge_2m);
    EXPECT_EQ(reg.lookup(buf.data() + 4096), page_size::small_4k);
}

TEST(VhPageRegistry, UnregisterRestoresDefault) {
    vh_page_registry reg;
    std::vector<std::byte> buf(64);
    reg.register_range(buf.data(), buf.size(), page_size::huge_64m);
    reg.unregister_range(buf.data());
    EXPECT_EQ(reg.lookup(buf.data()), page_size::small_4k);
    EXPECT_THROW(reg.unregister_range(buf.data()), aurora::check_error);
}

TEST(VhPageRegistry, OverlapRejected) {
    vh_page_registry reg;
    std::vector<std::byte> buf(256);
    reg.register_range(buf.data(), 128, page_size::huge_2m);
    EXPECT_THROW(reg.register_range(buf.data() + 64, 64, page_size::huge_2m),
                 aurora::check_error);
}

TEST(VhPageRegistry, AdjacentRangesOk) {
    vh_page_registry reg;
    std::vector<std::byte> buf(256);
    reg.register_range(buf.data(), 128, page_size::huge_2m);
    EXPECT_NO_THROW(reg.register_range(buf.data() + 128, 128, page_size::small_4k));
    EXPECT_EQ(reg.lookup(buf.data() + 127), page_size::huge_2m);
    EXPECT_EQ(reg.lookup(buf.data() + 128), page_size::small_4k);
    EXPECT_EQ(reg.registered_count(), 2u);
}

TEST(VhPageRegistry, NullPointerRejected) {
    vh_page_registry reg;
    EXPECT_THROW(reg.register_range(nullptr, 64, page_size::huge_2m),
                 aurora::check_error);
}

TEST(VhAllocation, RegistersAndUnregistersItself) {
    // A heap block below vh_mapped_min_bytes, a mapping from it on.
    for (const std::uint64_t bytes : {std::uint64_t{1024}, vh_mapped_min_bytes,
                                      3 * vh_mapped_min_bytes + 100}) {
        vh_page_registry reg;
        {
            vh_allocation a(reg, bytes, page_size::huge_2m);
            EXPECT_EQ(reg.lookup(a.data()), page_size::huge_2m);
            EXPECT_EQ(reg.lookup(a.data() + bytes - 1), page_size::huge_2m);
            EXPECT_EQ(a.size(), bytes);
            EXPECT_EQ(a.pages(), page_size::huge_2m);
            EXPECT_EQ(reg.registered_count(), 1u);
            // Memory is zero-initialised: the first and last byte of every
            // 4 KiB page read zero.
            for (std::uint64_t page = 0; page < bytes; page += 4 * KiB) {
                const std::uint64_t last = std::min(page + 4 * KiB, bytes) - 1;
                EXPECT_EQ(std::to_integer<int>(a.data()[page]), 0) << bytes;
                EXPECT_EQ(std::to_integer<int>(a.data()[last]), 0) << bytes;
            }
        }
        EXPECT_EQ(reg.registered_count(), 0u);
    }
}

} // namespace
} // namespace aurora::sim
