#include "util/units.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace aurora {
namespace {

TEST(Units, BinaryConstants) {
    EXPECT_EQ(KiB, 1024u);
    EXPECT_EQ(MiB, 1024u * 1024u);
    EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
}

TEST(Units, DecimalConstants) {
    EXPECT_EQ(KB, 1000u);
    EXPECT_EQ(GB, 1000u * 1000u * 1000u);
}

TEST(Units, FormatBytesExact) {
    EXPECT_EQ(format_bytes(0), "0 B");
    EXPECT_EQ(format_bytes(8), "8 B");
    EXPECT_EQ(format_bytes(1024), "1 KiB");
    EXPECT_EQ(format_bytes(4 * KiB), "4 KiB");
    EXPECT_EQ(format_bytes(2 * MiB), "2 MiB");
    EXPECT_EQ(format_bytes(256 * MiB), "256 MiB");
    EXPECT_EQ(format_bytes(48 * GiB), "48 GiB");
}

TEST(Units, FormatBytesFractional) {
    EXPECT_EQ(format_bytes(1536), "1.50 KiB");
    EXPECT_EQ(format_bytes(KiB + 1), "1.00 KiB");
}

TEST(Units, FormatNs) {
    EXPECT_EQ(format_ns(0), "0 ns");
    EXPECT_EQ(format_ns(999), "999 ns");
    EXPECT_EQ(format_ns(6100), "6.10 us");
    EXPECT_EQ(format_ns(80000), "80 us");
    EXPECT_EQ(format_ns(432000), "432 us");
    EXPECT_EQ(format_ns(1500000), "1.50 ms");
    EXPECT_EQ(format_ns(2000000000), "2 s");
}

TEST(Units, FormatNsNegative) {
    EXPECT_EQ(format_ns(-6100), "-6.10 us");
    EXPECT_EQ(format_ns(-1), "-1 ns");
    EXPECT_EQ(format_ns(-999), "-999 ns");
    EXPECT_EQ(format_ns(-1500000), "-1.50 ms");
    EXPECT_EQ(format_ns(-2000000000), "-2 s");
}

TEST(Units, FormatNsExtremes) {
    // -INT64_MIN does not fit in an int64_t; the magnitude must still print.
    EXPECT_EQ(format_ns(std::numeric_limits<std::int64_t>::min()), "-9223372037 s");
    EXPECT_EQ(format_ns(std::numeric_limits<std::int64_t>::max()), "9223372037 s");
}

TEST(Units, BandwidthMath) {
    // 1 GiB in 1 s is exactly 1 GiB/s.
    EXPECT_DOUBLE_EQ(bandwidth_gib_s(GiB, 1'000'000'000), 1.0);
    // 8 B in 600 ns ~= 0.0124 GiB/s (the LHM sustained rate).
    EXPECT_NEAR(bandwidth_gib_s(8, 600), 0.0124, 0.0005);
}

TEST(Units, BandwidthZeroTime) {
    EXPECT_DOUBLE_EQ(bandwidth_gib_s(123, 0), 0.0);
    EXPECT_DOUBLE_EQ(bandwidth_gib_s(123, -5), 0.0);
}

TEST(Units, FormatBandwidth) {
    EXPECT_EQ(format_bandwidth(GiB, 1'000'000'000), "1.00 GiB/s");
}

} // namespace
} // namespace aurora
