// aurora::metrics — always-on, lock-free runtime telemetry.
//
// A process-wide registry of counters, gauges and log-bucketed latency
// histograms that stays enabled in release builds. Unlike aurora::trace
// (env-gated, event-stream, offline export) this layer is cheap enough to
// run unconditionally: every hot-path operation goes through pre-resolved
// instrument pointers — no locks, no allocation, no clock reads inside the
// library itself (callers pass the durations they already know).
// bench_metrics_overhead pins the per-record cost at < 1% of the cheapest
// offload round trip.
//
// Counters and histograms are sharded by writer. The process's main thread
// (the one that ran static initialisation, where simulations run: every
// simulated process is a fiber on the thread that calls simulation::run())
// owns one shard per instrument and updates it with plain relaxed loads and
// stores, no lock-prefixed instructions. Every other thread updates a shared
// shard with atomic read-modify-writes. Reads sum both shards, so totals
// stay exact under concurrent writers; a reader racing the writers sees
// each shard's latest relaxed value.
//
// Registration (name + preformatted label string -> stable instrument
// pointer) takes a mutex, so resolve instruments once at setup time and
// keep the pointer. Instruments are never destroyed: pointers stay valid
// for the life of the process, and values accumulate process-wide (a
// runtime that needs per-instance numbers snapshots a baseline at
// construction and reports deltas — see ham::offload::runtime).
//
// Exposition surfaces (see prometheus.hpp / http_listener.hpp):
//   * Prometheus text format, via dump_prometheus() or the embedded
//     HTTP listener (HAM_AURORA_METRICS_PORT),
//   * bench-JSON snapshots/deltas (HAM_AURORA_METRICS_JSON), the same
//     {"bench":...,"metrics":{...}} convention as HAM_AURORA_BENCH_JSON,
//   * the tools/aurora_top live terminal monitor.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aurora::metrics {

namespace detail {
/// True on the thread that owns the single-writer shards (the main thread).
inline constinit thread_local bool t_shard_owner = false;

// Shard words are plain integers accessed through the GCC/Clang __atomic
// builtins, always relaxed. Optimised, that is exactly what std::atomic
// emits; unoptimised, it avoids std::atomic's out-of-line helper calls, and
// always_inline avoids ours. The 1% overhead gates run in the unoptimised
// sanitizer builds too.
[[gnu::always_inline]] inline std::uint64_t relaxed_load(
    const std::uint64_t& w) noexcept {
    return __atomic_load_n(&w, __ATOMIC_RELAXED);
}
[[gnu::always_inline]] inline void relaxed_store(std::uint64_t& w,
                                                 std::uint64_t v) noexcept {
    __atomic_store_n(&w, v, __ATOMIC_RELAXED);
}
/// Single-writer increment: only the owning thread ever stores to `w`.
[[gnu::always_inline]] inline void owner_add(std::uint64_t& w,
                                             std::uint64_t d) noexcept {
    relaxed_store(w, relaxed_load(w) + d);
}
[[gnu::always_inline]] inline void shared_add(std::uint64_t& w,
                                              std::uint64_t d) noexcept {
    __atomic_fetch_add(&w, d, __ATOMIC_RELAXED);
}
} // namespace detail

/// Monotonically increasing event count. Safe from any thread, including
/// simulated processes; an add is a plain load and store on the main thread
/// and one relaxed atomic RMW elsewhere.
class counter {
public:
    counter() = default;
    counter(const counter&) = delete; // an instrument has one identity
    counter& operator=(const counter&) = delete;

    [[gnu::always_inline]] void add(std::uint64_t delta = 1) noexcept {
        if (detail::t_shard_owner) {
            detail::owner_add(owned_, delta);
        } else {
            detail::shared_add(shared_, delta);
        }
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return detail::relaxed_load(owned_) + detail::relaxed_load(shared_);
    }

private:
    std::uint64_t owned_ = 0;  ///< main thread only
    std::uint64_t shared_ = 0; ///< every other thread
};

/// Instantaneous signed level (queue depth, health state, window occupancy).
class gauge {
public:
    void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t delta) noexcept {
        v_.fetch_add(delta, std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t value() const noexcept {
        return v_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> v_{0};
};

/// Log-bucketed latency/size histogram with power-of-two buckets.
//
// Bucket 0 holds the value 0; bucket i (1 <= i <= 64) holds values in
// [2^(i-1), 2^i - 1] — i.e. bucket_index(v) == std::bit_width(v). Recording
// updates bucket, count, sum and max of the caller's shard (plain loads and
// stores on the main thread, relaxed atomic RMWs elsewhere); snapshots sum
// the shards and derive percentiles from the bucket counts with linear
// interpolation:
//
//   rank r    = clamp(ceil(q/100 * count), 1, count)     (1-based)
//   bucket b  = first bucket with cumulative count >= r
//   estimate  = lower(b) + (upper(b) - lower(b)) * (r - cum(b-1)) / n_b
//
// The estimate is exact whenever the bucket has width zero (values 0 and 1)
// and within one bucket width otherwise; `max` is tracked exactly.
class histogram {
public:
    static constexpr std::size_t num_buckets = 65;

    histogram() = default;
    histogram(const histogram&) = delete; // an instrument has one identity
    histogram& operator=(const histogram&) = delete;

    [[nodiscard, gnu::always_inline]] static constexpr std::size_t bucket_index(
        std::uint64_t v) noexcept {
        return static_cast<std::size_t>(std::bit_width(v));
    }
    /// Smallest value of bucket `i`.
    [[nodiscard]] static constexpr std::uint64_t bucket_lower(std::size_t i) noexcept {
        return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
    }
    /// Largest value of bucket `i` (inclusive — the Prometheus `le` bound).
    [[nodiscard]] static constexpr std::uint64_t bucket_upper(std::size_t i) noexcept {
        return i == 0 ? 0
               : i >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << i) - 1;
    }

    [[gnu::always_inline]] void record(std::uint64_t v) noexcept {
        if (detail::t_shard_owner) {
            detail::owner_add(owned_.buckets[bucket_index(v)], 1);
            detail::owner_add(owned_.count, 1);
            detail::owner_add(owned_.sum, v);
            if (v > detail::relaxed_load(owned_.max)) {
                detail::relaxed_store(owned_.max, v);
            }
            return;
        }
        detail::shared_add(shared_.buckets[bucket_index(v)], 1);
        detail::shared_add(shared_.count, 1);
        detail::shared_add(shared_.sum, v);
        std::uint64_t seen = detail::relaxed_load(shared_.max);
        while (v > seen &&
               !__atomic_compare_exchange_n(&shared_.max, &seen, v, true,
                                            __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
        }
    }

    /// Point-in-time copy; percentile math happens here, off the hot path.
    struct snapshot {
        std::array<std::uint64_t, num_buckets> buckets{};
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t max = 0;

        /// q-th percentile estimate, q in [0, 100]; 0 when empty.
        [[nodiscard]] double percentile(double q) const;
        [[nodiscard]] double mean() const {
            return count == 0 ? 0.0 : double(sum) / double(count);
        }
        [[nodiscard]] double p50() const { return percentile(50.0); }
        [[nodiscard]] double p90() const { return percentile(90.0); }
        [[nodiscard]] double p99() const { return percentile(99.0); }
        [[nodiscard]] double p999() const { return percentile(99.9); }

        /// Element-wise accumulate (aggregating label sets or lanes).
        void merge(const snapshot& other);
    };

    [[nodiscard]] snapshot snap() const;

private:
    struct shard {
        std::array<std::uint64_t, num_buckets> buckets{};
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t max = 0;
    };
    shard owned_;  ///< main thread only
    shard shared_; ///< every other thread
};

enum class instrument_kind : std::uint8_t { counter, gauge, histogram };

[[nodiscard]] constexpr const char* to_string(instrument_kind k) {
    switch (k) {
        case instrument_kind::counter: return "counter";
        case instrument_kind::gauge: return "gauge";
        case instrument_kind::histogram: return "histogram";
    }
    return "?";
}

/// Build a canonical label string: `a="1",b="x"` from key/value pairs.
/// Values are escaped for the Prometheus exposition format (\\, \", \n).
[[nodiscard]] std::string labels(
    std::initializer_list<std::pair<std::string_view, std::string_view>> kv);

/// Process-wide instrument registry. Instrument creation/lookup is mutex
/// protected (cold path); the returned references are valid forever and all
/// updates through them are lock-free. Tests may construct private
/// registries; production code shares global().
class registry {
public:
    registry() = default;
    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;

    [[nodiscard]] static registry& global();

    /// Find-or-create. `name` must follow Prometheus conventions
    /// ([a-zA-Z_:][a-zA-Z0-9_:]*; counters end in _total); `labels` is a
    /// preformatted `key="value"` list (use metrics::labels()). Registering
    /// the same name with a different instrument kind aborts. The `help`
    /// string of the first registration wins.
    counter& counter_for(std::string_view name, std::string_view labels = "",
                         std::string_view help = "");
    gauge& gauge_for(std::string_view name, std::string_view labels = "",
                     std::string_view help = "");
    histogram& histogram_for(std::string_view name, std::string_view labels = "",
                             std::string_view help = "");

    /// Lookup without creating; nullptr when the series does not exist.
    [[nodiscard]] const counter* find_counter(std::string_view name,
                                              std::string_view labels = "") const;
    [[nodiscard]] const gauge* find_gauge(std::string_view name,
                                          std::string_view labels = "") const;
    [[nodiscard]] const histogram* find_histogram(
        std::string_view name, std::string_view labels = "") const;

    // --- snapshots (exporters) ----------------------------------------------
    struct series_snapshot {
        std::string labels;
        std::int64_t value = 0;   ///< counter/gauge value
        histogram::snapshot hist; ///< histogram series only
    };
    struct family_snapshot {
        std::string name;
        std::string help;
        instrument_kind kind = instrument_kind::counter;
        std::vector<series_snapshot> series; ///< sorted by label string
    };

    /// Consistent-enough point-in-time copy of every family, sorted by name.
    /// (Individual values are relaxed loads; cross-instrument skew is
    /// bounded by whatever the producers did during the copy.)
    [[nodiscard]] std::vector<family_snapshot> snapshot() const;

private:
    struct series {
        std::unique_ptr<counter> c;
        std::unique_ptr<gauge> g;
        std::unique_ptr<histogram> h;
    };
    struct family {
        instrument_kind kind = instrument_kind::counter;
        std::string help;
        std::map<std::string, series, std::less<>> by_labels;
    };

    series& series_for(std::string_view name, std::string_view labels,
                       std::string_view help, instrument_kind kind);
    [[nodiscard]] const series* find(std::string_view name,
                                     std::string_view labels,
                                     instrument_kind kind) const;

    mutable std::mutex mu_;
    std::map<std::string, family, std::less<>> families_;
};

} // namespace aurora::metrics
