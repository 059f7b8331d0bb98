// data_path — bulk transfers through the zero-copy VE-DMA data plane.
//
// Closed loop, one client, one vedma VE with vedma_dma_data_path on. Each op
// is allocate -> put -> checksum kernel -> get -> verify -> free. Sizes come
// from {4 KiB, 64 KiB, 1 MiB, 16 MiB} in equal numbers, in a seeded order,
// so they span the 32 KiB zero-copy threshold and every seed moves the same
// bytes. Bytes dominate, not messages: the arena, reg_cache and the VE-DMA
// paths do the work, so a framing change that helps small messages but
// slows bulk transfers shows up here and not on offload_empty.
#include <array>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "offload/offload.hpp"
#include "support/host.hpp"
#include "support/stats.hpp"
#include "util/units.hpp"

namespace aurora_bench {

namespace {

namespace off = ham::offload;
namespace sim = aurora::sim;
using aurora::KiB;
using aurora::MiB;

constexpr std::array<std::uint64_t, 4> kSizes{4 * KiB, 64 * KiB, 1 * MiB,
                                              16 * MiB};
constexpr std::array<const char*, 4> kSizeNames{"4k", "64k", "1m", "16m"};

/// Wrapping sum of `words` words — runs on the VE, reading its memory in
/// 64 KiB blocks, and charges the modelled HBM read time.
std::uint64_t checksum_kernel(off::buffer_ptr<std::uint64_t> buf,
                              std::uint64_t words) {
    thread_local std::array<std::uint64_t, 8192> block;
    std::uint64_t sum = 0;
    for (std::uint64_t done = 0; done < words;) {
        const std::uint64_t n = std::min<std::uint64_t>(block.size(), words - done);
        buf.read_block(done, block.data(), n);
        for (std::uint64_t i = 0; i < n; ++i) {
            sum += block[i];
        }
        done += n;
    }
    off::compute_hint(double(words), double(words * 8));
    return sum;
}

std::uint64_t host_checksum(const std::vector<std::uint64_t>& v,
                            std::uint64_t words) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < words; ++i) {
        sum += v[i];
    }
    return sum;
}

int ops_per_size(bool smoke) { return smoke ? 10 : 250; }
constexpr int kWarmupRounds = 2; // each size, before the probe
constexpr std::size_t kSegments = 10;

std::string config(bool smoke) {
    return "{\"platform\":\"a300_8\",\"backend\":\"vedma\",\"targets\":1,"
           "\"vedma_dma_data_path\":true,\"sizes\":[4096,65536,1048576,"
           "16777216],\"ops_per_size\":" +
           std::to_string(ops_per_size(smoke)) + "}";
}

trial_result run(const trial_context& ctx) {
    lcg rng(ctx.seed);
    // Index into kSizes per timed op: every block of 4 ops moves each size
    // once, so every seed moves the same bytes at every scale.
    const std::vector<std::size_t> order = stratified<std::size_t>(
        rng, kSizes.size() * std::size_t(ops_per_size(ctx.smoke)), {0, 1, 2, 3});
    const std::uint64_t max_words = kSizes.back() / 8;
    std::vector<std::uint64_t> src(max_words), dst(max_words);
    for (auto& w : src) {
        w = rng.next() << 31 ^ rng.next();
    }

    trial_result r;
    r.lat_ns.reserve(order.size());
    if (ctx.spans != nullptr) {
        ctx.spans->reserve(8 * order.size() + 64);
    }
    std::array<double, 4> put_virt{}, get_virt{}, bytes_by_size{};
    double alloc_virt = 0.0;
    const std::size_t segment = order.size() / kSegments;
    double traced_kernel_virt = 0.0; ///< kernel offloads of the traced segment

    const std::int64_t setup0 = host::wall_ns();
    sim::platform plat(sim::platform_config::a300_8());
    off::runtime_options opt;
    opt.backend = off::backend_kind::vedma;
    opt.vedma_dma_data_path = true;

    const int rc = off::run(plat, opt, [&] {
        // One op; returns false when its result does not verify.
        auto one_op = [&](std::size_t s, std::uint64_t req, bool timed) {
            const std::uint64_t words = kSizes[s] / 8;
            src[0] = rng.next();
            src[words - 1] = rng.next();
            const std::uint64_t expect = host_checksum(src, words);
            span_recorder* const rec = timed ? ctx.spans : nullptr;
            const scoped_span op(rec, "op", req);
            const sim::time_ns t = sim::now();
            off::buffer_ptr<std::uint64_t> buf;
            {
                const scoped_span sp(rec, "mem.allocate", req);
                buf = off::allocate<std::uint64_t>(1, words);
            }
            const sim::time_ns t_alloc = sim::now();
            {
                const scoped_span sp(rec, "offload.put", req);
                off::put(src.data(), buf, words);
            }
            const sim::time_ns t_put = sim::now();
            std::uint64_t sum = 0;
            {
                off::future<std::uint64_t> f = [&] {
                    const scoped_span sp(rec, "offload.async", req);
                    return off::async(1, ham::f2f<&checksum_kernel>(buf, words));
                }();
                const scoped_span sp(rec, "future.get", req);
                sum = f.get();
            }
            const sim::time_ns t_kernel = sim::now();
            {
                const scoped_span sp(rec, "offload.get", req);
                off::get(buf, dst.data(), words);
            }
            const sim::time_ns t_get = sim::now();
            const bool ok =
                sum == expect && std::memcmp(dst.data(), src.data(), words * 8) == 0;
            {
                const scoped_span sp(rec, "mem.free", req);
                off::free(buf);
            }
            if (timed) {
                r.lat_ns.push_back(double(sim::now() - t));
                alloc_virt += double(t_alloc - t);
                put_virt[s] += double(t_put - t_alloc);
                get_virt[s] += double(t_get - t_kernel);
                bytes_by_size[s] += double(kSizes[s]);
                if (req <= segment) {
                    traced_kernel_virt += double(t_kernel - t_put);
                }
            }
            return ok;
        };

        for (int round = 0; round < kWarmupRounds; ++round) {
            for (std::size_t s = 0; s < kSizes.size(); ++s) {
                r.check(one_op(s, 0, false), "warm-up op did not verify");
                if (round == 0 && s == 0) {
                    end_setup(r, setup0, plat.sim());
                    if (ctx.setup_only) {
                        return;
                    }
                }
            }
        }
        // Unloaded probe: one warm op of each size, alone.
        std::vector<double> probe;
        for (std::size_t s = 0; s < kSizes.size(); ++s) {
            const sim::time_ns t0 = sim::now();
            r.check(one_op(s, 0, false), "probe op did not verify");
            probe.push_back(double(sim::now() - t0));
        }
        r.unloaded_p99_ns = percentile(probe, 99.0);

        const phase_mark begin = phase_mark::take(plat.sim());
        segment_clock seg(r, ctx);
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (i > 0 && i % segment == 0) {
                seg.mark(double(segment));
            }
            ++r.attempted;
            if (one_op(order[i], i + 1, true)) {
                ++r.completed;
            } else {
                ++r.failed;
            }
        }
        seg.mark(double(segment));
        const phase_mark end = phase_mark::take(plat.sim());
        record_timed_phase(r, begin, end, r.completed);
    });
    r.check(rc == 0, "offload::run returned non-zero");
    if (ctx.setup_only) {
        return r;
    }
    r.check(r.failed == 0, "a checksum or a round trip did not verify");
    r.check(r.layers["mem.bytes_in_use_after"] == 0.0,
            "arena bytes still in use after every buffer was freed");
    r.ok_of = r.attempted;
    r.ok = r.completed;

    auto& l = r.layers;
    const double ops = double(order.size());
    l["mem.alloc_virt_ns"] = ops > 0 ? alloc_virt / ops : 0.0;
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
        const double gib = bytes_by_size[s] / double(aurora::GiB);
        l[std::string("vedma.put_gib_s.") + kSizeNames[s]] =
            put_virt[s] > 0 ? gib / (put_virt[s] / 1e9) : 0.0;
        l[std::string("vedma.get_gib_s.") + kSizeNames[s]] =
            get_virt[s] > 0 ? gib / (get_virt[s] / 1e9) : 0.0;
    }
    if (ctx.spans != nullptr) {
        record_stages(r);
        const double mib = (bytes_by_size[0] + bytes_by_size[1] +
                            bytes_by_size[2] + bytes_by_size[3]) /
                           double(MiB);
        const auto put = ctx.spans->stats("offload.put");
        const auto get = ctx.spans->stats("offload.get");
        const auto async = ctx.spans->stats("offload.async");
        const auto fget = ctx.spans->stats("future.get");
        l["vedma.put_host_ns_per_mib"] = mib > 0 ? put.total_wall_ns / mib : 0.0;
        l["vedma.get_host_ns_per_mib"] = mib > 0 ? get.total_wall_ns / mib : 0.0;
        l["offload.async_host_ns"] = async.median_cpu_ns;
        l["offload.get_host_ns"] = fget.median_cpu_ns;
        l["offload.async_virt_ns"] = async.mean_virt_ns;
        l["offload.get_virt_ns"] = fget.mean_virt_ns;
        record_span_wall(r, ctx, "mem.alloc_host_ns", "mem.allocate");
        record_span_wall(r, ctx, "mem.free_host_ns", "mem.free");
        // The obs timelines cover the checksum-kernel offloads of the traced
        // segment.
        const double lat = traced_kernel_virt / double(segment);
        l["stage.unattributed_pct"] =
            lat > 0 ? 100.0 * (lat - l["stage.sum_mean_ns"]) / lat : 0.0;
    }
    return r;
}

} // namespace

const workload_def& data_path_workload() {
    static const workload_def def{"data_path", &run, 1 << 18, &config};
    return def;
}

} // namespace aurora_bench
