#include "vedma/sysv_shm.hpp"

#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "support/sim_fixture.hpp"
#include "util/units.hpp"

namespace aurora::vedma {
namespace {

using testing::aurora_fixture;

TEST(SysvShm, CreateFindDestroy) {
    aurora_fixture fx;
    shm_registry shms(fx.plat);
    fx.run([&] {
        const shm_segment& seg =
            shms.create(0x1234, 4096, sim::page_size::huge_2m, 0);
        EXPECT_EQ(seg.key, 0x1234);
        EXPECT_EQ(seg.len, 4096u);
        EXPECT_NE(seg.addr, nullptr);
        EXPECT_EQ(shms.find(0x1234), &seg);
        EXPECT_EQ(shms.find(0x9999), nullptr);
        shms.destroy(0x1234);
        EXPECT_EQ(shms.find(0x1234), nullptr);
        EXPECT_THROW(shms.destroy(0x1234), check_error);
    });
}

TEST(SysvShm, DuplicateKeyRejected) {
    aurora_fixture fx;
    shm_registry shms(fx.plat);
    fx.run([&] {
        shms.create(1, 64, sim::page_size::huge_2m, 0);
        EXPECT_THROW(shms.create(1, 64, sim::page_size::huge_2m, 0), check_error);
    });
}

TEST(SysvShm, SegmentRegisteredWithPageSize) {
    aurora_fixture fx;
    shm_registry shms(fx.plat);
    fx.run([&] {
        const shm_segment& seg =
            shms.create(7, 1 * MiB, sim::page_size::huge_2m, 0);
        EXPECT_EQ(fx.plat.vh_pages().lookup(seg.addr), sim::page_size::huge_2m);
        EXPECT_EQ(fx.plat.vh_pages().lookup(seg.addr + seg.len - 1),
                  sim::page_size::huge_2m);
    });
}

TEST(SysvShm, MemoryZeroInitialised) {
    aurora_fixture fx;
    shm_registry shms(fx.plat);
    fx.run([&] {
        const shm_segment& seg = shms.create(2, 256, sim::page_size::huge_2m, 0);
        for (std::uint64_t i = 0; i < seg.len; ++i) {
            EXPECT_EQ(std::to_integer<int>(seg.addr[i]), 0);
        }
    });
}

TEST(SysvShm, RecreatedSegmentReadsZero) {
    // A segment written all over and destroyed leaves nothing behind in the
    // next one of its size, a heap block (256 B) or a mapping (8 MiB).
    aurora_fixture fx;
    shm_registry shms(fx.plat);
    fx.run([&] {
        for (const std::uint64_t len : {std::uint64_t{256}, 8 * MiB}) {
            const shm_segment& old =
                shms.create(9, len, sim::page_size::huge_2m, 0);
            std::memset(old.addr, 0xA5, len);
            shms.destroy(9);
            const shm_segment& seg =
                shms.create(9, len, sim::page_size::huge_2m, 0);
            for (std::uint64_t page = 0; page < len; page += 4 * KiB) {
                const std::uint64_t last = std::min(page + 4 * KiB, len) - 1;
                EXPECT_EQ(std::to_integer<int>(seg.addr[page]), 0) << len;
                EXPECT_EQ(std::to_integer<int>(seg.addr[last]), 0) << len;
            }
            shms.destroy(9);
        }
    });
}

TEST(SysvShm, SetupChargesTime) {
    aurora_fixture fx;
    shm_registry shms(fx.plat);
    fx.run([&] {
        const sim::time_ns before = sim::now();
        shms.create(3, 4096, sim::page_size::huge_2m, 0);
        EXPECT_EQ(sim::now() - before, fx.plat.costs().sysv_shm_setup_ns);
    });
}

TEST(SysvShm, InvalidParametersRejected) {
    aurora_fixture fx;
    shm_registry shms(fx.plat);
    fx.run([&] {
        EXPECT_THROW(shms.create(4, 0, sim::page_size::huge_2m, 0), check_error);
        EXPECT_THROW(shms.create(5, 64, sim::page_size::huge_2m, 7), check_error);
    });
}

} // namespace
} // namespace aurora::vedma
