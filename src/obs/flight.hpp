// aurora::obs flight recorder — an always-on, bounded black box per target.
//
// Every offload target owns a fixed-capacity ring of its most recent request
// events (post / sent / harvest / failed plus backend wire sends). Unlike the
// env-gated trace lanes, the ring records unconditionally: when a target dies
// the last seconds of its request history are available as a postmortem even
// in production runs that never enabled tracing.
//
// Concurrency: multiple simulated processes (host runtime, gateway runtimes,
// backends) may note events for the same target, and `aurora_info --flight`
// style readers may snapshot while writers are live. Each entry is a seqlock
// of four relaxed/release atomic words; a reader that observes a torn or
// in-progress entry skips it. No locks, no allocation after construction —
// a note() is a fetch_add plus five atomic stores.
//
// Lifetime: rings are owned by a process-wide registry keyed on the global
// node id, so they survive runtime teardown (a postmortem can be inspected
// after offload::run returned) and are shared between a target's successive
// incarnations (epochs) — exactly what a black box is for. Writers look their
// ring up once: the runtime hands each target's ring to its backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace aurora::obs {

class flight_ring {
public:
    explicit flight_ring(std::uint32_t capacity)
        : slots_(capacity == 0 ? 1 : capacity) {}
    flight_ring(const flight_ring&) = delete;
    flight_ring& operator=(const flight_ring&) = delete;

    /// Record one request event. Wait-free; safe from any thread.
    /// `info` carries stage-specific payload (message kind, failure code,
    /// payload length — whatever the touchpoint finds useful).
    void note(stage s, std::uint64_t ticket, std::uint16_t slot,
              std::uint8_t epoch, std::uint32_t info = 0) noexcept;

    struct record {
        std::uint64_t seq = 0; ///< global order of this event (1-based)
        std::uint64_t ts_ns = 0;
        std::uint64_t ticket = 0;
        stage st = stage::post;
        std::uint16_t slot = 0;
        std::uint8_t epoch = 0;
        std::uint32_t info = 0;
    };

    /// Readable, non-torn records, oldest first. Entries a concurrent writer
    /// is mid-update on are skipped (they reappear complete next snapshot).
    [[nodiscard]] std::vector<record> snapshot() const;

    /// Total events ever noted / lost to wrap-around.
    [[nodiscard]] std::uint64_t pushed() const noexcept {
        return head_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        const std::uint64_t h = pushed();
        return h > slots_.size() ? h - slots_.size() : 0;
    }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return slots_.size();
    }

private:
    /// Seqlock entry: `seq` is 0 while unwritten/in-progress and the 1-based
    /// global sequence once the payload words are valid.
    struct entry {
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> ts{0};
        std::atomic<std::uint64_t> ticket{0};
        /// stage u8 | slot u16 << 8 | epoch u8 << 24 | info u32 << 32.
        std::atomic<std::uint64_t> meta{0};
    };

    std::vector<entry> slots_;
    std::atomic<std::uint64_t> head_{0};
};

/// Process-wide ring registry, keyed on the global node id
/// (runtime_options::node_base + local node). Lookups take a mutex: writers
/// keep the ring they got, so lookups happen at attach and inspection only.
class flight_registry {
public:
    /// The ring for `node`, created on first use (256 events).
    [[nodiscard]] static flight_ring& ring_for(std::uint16_t node);

    /// The ring for `node` if one exists, else nullptr (readers).
    [[nodiscard]] static flight_ring* find(std::uint16_t node);

    /// Node ids with a ring, ascending (postmortem/inspection sweeps).
    [[nodiscard]] static std::vector<std::uint16_t> nodes();

    /// Drop all rings (tests only — invalidates outstanding pointers).
    static void reset();
};

/// Render one target's black box as a postmortem JSON document: ring
/// metadata, the raw event list, and per-ticket partial request timelines
/// ("requests"), newest-first. `kind` is the transition that triggered the
/// dump ("target_failed", "recovering", "on_demand").
[[nodiscard]] std::string postmortem_json(std::uint16_t node, const char* kind,
                                          std::uint8_t epoch,
                                          const std::string& reason);

/// Write postmortem_json() to $HAM_AURORA_OBS_POSTMORTEM_DIR/
/// postmortem_node<node>_<n>.json when that directory is configured; no-op
/// otherwise (chaos test suites kill targets by the hundred — file spew must
/// be opt-in). Returns the path written, or empty.
std::string dump_postmortem_to_env(std::uint16_t node, const char* kind,
                                   std::uint8_t epoch,
                                   const std::string& reason);

} // namespace aurora::obs
