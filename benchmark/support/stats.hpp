// Small numeric helpers shared by the workloads: order statistics, the
// seeded generator that makes every workload input, and number formatting.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace aurora_bench {

/// Nearest-rank percentile (q in [0, 100]) of unsorted samples; 0 if empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) {
        s += x;
    }
    return v.empty() ? 0.0 : s / double(v.size());
}

/// The benchmark-side generator: the workload seed drives this LCG, and the
/// program only ever receives the values it produces.
class lcg {
public:
    explicit lcg(std::uint64_t seed) : x_(seed * 2654435761u + 1) {}
    std::uint64_t next() {
        x_ = x_ * 6364136223846793005ULL + 1442695040888963407ULL;
        return x_ >> 33;
    }
    /// Uniform in [0, n).
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /// Fisher-Yates: the seed permutes a fixed multiset, so every seed puts
    /// the same total load on the program in a different order.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::swap(v[i - 1], v[below(i)]);
        }
    }

private:
    std::uint64_t x_;
};

/// `n` values made of consecutive blocks, each holding the values of
/// `block` in a seeded order (the last block cut short). Stratifying this
/// way gives every seed the same mix at every scale, so results move little
/// from seed to seed, while the order the program sees still changes.
template <typename T>
[[nodiscard]] std::vector<T> stratified(lcg& rng, std::size_t n,
                                        const std::vector<T>& block) {
    std::vector<T> out;
    out.reserve(n + block.size());
    while (out.size() < n) {
        std::vector<T> b = block;
        rng.shuffle(b);
        out.insert(out.end(), b.begin(), b.end());
    }
    out.resize(n);
    return out;
}

/// FNV-1a over the bytes of `v`, chained from `h`: the determinism
/// fingerprint of a completion order.
inline constexpr std::uint64_t fingerprint_seed = 1469598103934665603ULL;
[[nodiscard]] inline std::uint64_t fingerprint(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
    return h;
}

/// Shortest text that reads back as the same double (all its digits).
[[nodiscard]] inline std::string fmt(double v) {
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

} // namespace aurora_bench
