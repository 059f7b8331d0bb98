// aurora::obs flight recorder — an always-on, bounded black box per target.
//
// Every offload target owns a fixed-capacity ring of its most recent request
// touchpoints. The offload runtime is the ring's only writer
// (runtime::note_stage): post, every wire send the transport accepted
// (first sends, retransmits, checksum-NACK resends, replays), harvest,
// collect and failed, each with its request's ticket and its own virtual
// time. The records are lifecycle trace::events (obs::lifecycle), the form
// the trace lanes carry. Unlike the env-gated lanes, the ring records
// unconditionally: when a target dies the last seconds of its request
// history are available as a postmortem even in production runs that never
// enabled tracing.
//
// Concurrency: writers on several threads may note into one ring, and
// `aurora_info --flight` style readers may snapshot while writers are live.
// Each entry is a seqlock of four relaxed/release atomic words; a reader
// that observes a torn or in-progress entry skips it. No locks, no
// allocation after construction — a note() is a fetch_add plus five atomic
// stores.
//
// Lifetime: rings are owned by a process-wide registry keyed on the global
// node id, so they survive runtime teardown (a postmortem can be inspected
// after offload::run returned) and are shared between a target's successive
// incarnations (epochs) — exactly what a black box is for. The runtime looks
// each target's ring up once, at attach.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "trace/trace.hpp"

namespace aurora::obs {

class flight_ring {
public:
    explicit flight_ring(std::uint32_t capacity)
        : slots_(capacity == 0 ? 1 : capacity) {}
    flight_ring(const flight_ring&) = delete;
    flight_ring& operator=(const flight_ring&) = delete;

    /// Record one lifecycle event (its ts_ns, ticket and ref). Wait-free;
    /// safe from any thread.
    void note(const trace::event& e) noexcept;

    /// Readable, non-torn records as lifecycle events, oldest first. Entries
    /// a concurrent writer is mid-update on are skipped (they reappear
    /// complete next snapshot).
    [[nodiscard]] std::vector<trace::event> snapshot() const;

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
        /// pack_ref(node, slot, epoch, stage).
        std::atomic<std::uint64_t> ref{0};
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

/// One target's black box as a timelines document (timelines_json): the
/// ring's snapshot reassembled as one lane, headed by the dump's node, kind
/// ("target_failed", "recovering", "on_demand"), epoch, reason and the
/// number of events ever recorded. Requests whose early events were
/// overwritten come out partial and lossy.
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
