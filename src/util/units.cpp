#include "util/units.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace aurora {

namespace {

std::string format_with_unit(double value, const char* unit, const char* sign = "") {
    std::array<char, 64> buf{};
    if (value >= 100.0 || value == std::floor(value)) {
        std::snprintf(buf.data(), buf.size(), "%s%.0f %s", sign, value, unit);
    } else if (value >= 10.0) {
        std::snprintf(buf.data(), buf.size(), "%s%.1f %s", sign, value, unit);
    } else {
        std::snprintf(buf.data(), buf.size(), "%s%.2f %s", sign, value, unit);
    }
    return buf.data();
}

} // namespace

std::string format_bytes(std::uint64_t bytes) {
    if (bytes >= GiB && bytes % GiB == 0) return format_with_unit(double(bytes / GiB), "GiB");
    if (bytes >= MiB && bytes % MiB == 0) return format_with_unit(double(bytes / MiB), "MiB");
    if (bytes >= KiB && bytes % KiB == 0) return format_with_unit(double(bytes / KiB), "KiB");
    if (bytes >= GiB) return format_with_unit(double(bytes) / double(GiB), "GiB");
    if (bytes >= MiB) return format_with_unit(double(bytes) / double(MiB), "MiB");
    if (bytes >= KiB) return format_with_unit(double(bytes) / double(KiB), "KiB");
    return format_with_unit(double(bytes), "B");
}

std::string format_ns(std::int64_t ns) {
    // The magnitude as unsigned: the one of INT64_MIN has no int64_t.
    const std::uint64_t mag =
        ns < 0 ? 0 - static_cast<std::uint64_t>(ns) : static_cast<std::uint64_t>(ns);
    const char* sign = ns < 0 ? "-" : "";
    const double v = double(mag);
    if (v >= 1e9) return format_with_unit(v / 1e9, "s", sign);
    if (v >= 1e6) return format_with_unit(v / 1e6, "ms", sign);
    if (v >= 1e3) return format_with_unit(v / 1e3, "us", sign);
    return format_with_unit(v, "ns", sign);
}

double bandwidth_gib_s(std::uint64_t bytes, std::int64_t ns) {
    if (ns <= 0) return 0.0;
    return (double(bytes) / double(GiB)) / (double(ns) / 1e9);
}

std::string format_bandwidth(std::uint64_t bytes, std::int64_t ns) {
    std::array<char, 64> buf{};
    std::snprintf(buf.data(), buf.size(), "%.2f GiB/s", bandwidth_gib_s(bytes, ns));
    return buf.data();
}

} // namespace aurora
