// aurora::mem — sg_list split/coalesce behaviour (the descriptor shape the
// VE channel turns into one dma_post_2d chain plus an optional tail post).
#include "mem/sg.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace aurora::mem {
namespace {

TEST(SgList, UnlimitedDescriptorIsASingleEntry) {
    sg_list sg(0);
    sg.add(0x1000, 0x9000, 1 << 20);
    ASSERT_EQ(sg.size(), 1u);
    EXPECT_EQ(sg.entries()[0].src, 0x1000u);
    EXPECT_EQ(sg.entries()[0].dst, 0x9000u);
    EXPECT_EQ(sg.entries()[0].len, std::uint64_t{1} << 20);
}

TEST(SgList, SplitsIntoUniformPrefixPlusTail) {
    // 10 KiB at a 4 KiB descriptor cap: [4K, 4K, 2K]. The VE channel relies
    // on exactly this shape — uniform prefix as one dma_post_2d chain, short
    // tail as one extra post.
    sg_list sg(4096);
    sg.add(0x1000, 0x9000, 10 * 1024);
    ASSERT_EQ(sg.size(), 3u);
    const auto& e = sg.entries();
    EXPECT_EQ(e[0].len, 4096u);
    EXPECT_EQ(e[1].len, 4096u);
    EXPECT_EQ(e[2].len, 2048u);
    // Addresses advance in lockstep on both ends.
    EXPECT_EQ(e[1].src, e[0].src + 4096);
    EXPECT_EQ(e[1].dst, e[0].dst + 4096);
    EXPECT_EQ(e[2].src, e[1].src + 4096);
    EXPECT_EQ(sg.total_bytes(), 10u * 1024);
}

TEST(SgList, ExactMultipleHasNoTail) {
    sg_list sg(4096);
    sg.add(0x0, 0x100000, 3 * 4096);
    ASSERT_EQ(sg.size(), 3u);
    for (const sg_entry& e : sg.entries()) {
        EXPECT_EQ(e.len, 4096u);
    }
}

TEST(SgList, CoalescesContiguousAdds) {
    sg_list sg(0);
    sg.add(0x1000, 0x9000, 256);
    sg.add(0x1100, 0x9100, 256); // contiguous on both ends: merges
    ASSERT_EQ(sg.size(), 1u);
    EXPECT_EQ(sg.entries()[0].len, 512u);

    sg.add(0x5000, 0x9200, 256); // src gap: new entry even though dst chains
    EXPECT_EQ(sg.size(), 2u);
    sg.add(0x5100, 0xF000, 256); // dst gap: new entry even though src chains
    EXPECT_EQ(sg.size(), 3u);
}

TEST(SgList, CoalesceRespectsTheDescriptorCap) {
    sg_list sg(4096);
    sg.add(0x1000, 0x9000, 4096);
    sg.add(0x2000, 0xA000, 4096); // contiguous but a merge would exceed cap
    ASSERT_EQ(sg.size(), 2u);
    EXPECT_EQ(sg.entries()[0].len, 4096u);
    EXPECT_EQ(sg.entries()[1].len, 4096u);
}

TEST(SgList, ClearEmptiesThePlan) {
    sg_list sg(4096);
    sg.add(0x1000, 0x9000, 8192);
    EXPECT_FALSE(sg.empty());
    sg.clear();
    EXPECT_TRUE(sg.empty());
    EXPECT_EQ(sg.total_bytes(), 0u);
}

} // namespace
} // namespace aurora::mem
