// Runtime configuration of a HAM-Offload application.
#pragma once

#include <cstdint>
#include <vector>

#include "ham/types.hpp"

namespace ham::offload {

/// Which communication backend connects host and targets.
enum class backend_kind {
    /// In-process loopback channel (testing / host-only development).
    loopback,
    /// Generic TCP/IP channel (paper Fig. 1): interoperability over
    /// performance; the reference point the specialised protocols beat.
    tcp,
    /// Paper Sec. III-D: one-sided protocol driven by the VH through VEO
    /// read/write operations; buffers live in VE memory.
    veo,
    /// Paper Sec. IV-B: one-sided protocol driven by the VE through user DMA
    /// and LHM/SHM instructions; buffers live in VH shared memory.
    vedma,
};

[[nodiscard]] constexpr const char* to_string(backend_kind k) noexcept {
    switch (k) {
        case backend_kind::loopback: return "loopback";
        case backend_kind::tcp: return "tcp";
        case backend_kind::veo: return "veo";
        case backend_kind::vedma: return "vedma";
    }
    return "?";
}

struct runtime_options {
    backend_kind backend = backend_kind::vedma;
    /// VE cards to use as offload targets (node i+1 -> targets[i]).
    std::vector<int> targets = {0};
    /// VH socket the host process runs on (socket 1 pays the UPI penalty).
    int vh_socket = 0;
    /// Global node-id offset applied to every target's *identity* — the id a
    /// backend stamps into its target_context, fault-injection schedules key
    /// on, and metric labels carry. The API-level node_t stays 1..targets.
    /// size(); aurora::net sets this per cluster tenant so every VE in a
    /// multi-VH cluster has a machine-unique identity (VH k's VE i is node
    /// k*V+i). 0 (the default) keeps the single-machine behaviour unchanged.
    int node_base = 0;
    /// Message slots per direction and per-slot payload capacity.
    std::uint32_t msg_slots = 8;
    std::uint32_t msg_size = ham::default_max_msg_size;
    /// Optional extension beyond the paper: the vedma backend sends small
    /// results via SHM stores instead of user DMA (Sec. V-B observes SHM
    /// beats DMA for small VE->VH payloads and says it "could be exploited").
    bool vedma_shm_small_results = false;
    /// Optional extension beyond the paper: route put()/get() through the VE
    /// user-DMA engine with pipelined staging instead of VEO read/write
    /// (the direction the paper's conclusion sketches for future VEO).
    bool vedma_dma_data_path = false;
    std::uint32_t vedma_staging_chunks = 4;
    std::uint64_t vedma_staging_chunk_bytes = 2 * 1024 * 1024;

    // --- zero-copy data plane (aurora::mem; see docs/MEMORY.md) -------------
    /// Allocate target (VE) buffers from a per-target BFC-style arena instead
    /// of one veo_alloc_mem per buffer. Regions are registration-stable, which
    /// is what makes the zero-copy path below cacheable.
    bool mem_arena = true;
    /// With the DMA data path on, move put()/get() payloads directly between
    /// the registered host buffer and the VE arena region (one message, one
    /// chained DMA burst) instead of staging chunk-by-chunk. Requires
    /// vedma_dma_data_path and mem_arena.
    bool vedma_zero_copy = true;

    // --- resilience (aurora::fault hardening; see docs/FAULTS.md) -----------
    /// Virtual-time budget for a posted message's reply before the runtime
    /// retransmits (the window doubles per attempt). 0 disables timeouts —
    /// the default, keeping the fault-free path byte-identical to the paper
    /// protocols. When fault injection is active and this is 0, the runtime
    /// substitutes a 1 ms virtual default.
    std::int64_t reply_timeout_ns = 0;
    /// Retransmissions per message (and retries per transient send-post
    /// failure) before the target is declared failed.
    std::uint32_t max_retries = 4;
    /// Clean results required for a degraded target to count as healthy again.
    std::uint32_t recovery_streak = 16;

    // --- overload robustness (aurora::admit; see docs/ADMISSION.md) ---------
    /// Per-target retry token bucket: caps how many retransmits/send-retries
    /// a target can burn in a burst, so a stalled VE cannot trigger a
    /// retransmit storm that amplifies overload. 0 = unlimited (default,
    /// keeping the established fault-layer behaviour byte-identical).
    std::uint32_t retry_budget = 0;
    /// Virtual time to mint one retry token back into the bucket.
    std::int64_t retry_budget_refill_ns = 1'000'000;
    /// Apply decorrelated jitter to retry backoff and reply-timeout windows
    /// while fault injection is active, de-synchronising the retry herds a
    /// shared stall otherwise produces. Draws come from the injector's
    /// dedicated jitter stream, so seeded replays stay deterministic.
    bool retry_jitter = true;

    // --- self-healing (aurora::heal; see docs/FAULTS.md) --------------------
    /// Governs what happens after a target failure is detected. Disabled
    /// (the default) keeps the aurora::fault semantics: the target is fenced
    /// forever and outstanding futures settle with target_failed_error.
    /// Enabled, the runtime respawns the target process under a new epoch,
    /// replays un-acked messages, and reintegrates it on probation.
    struct recovery_policy {
        /// Master switch.
        bool enabled = false;
        /// Respawn attempts per failure incident before the target is fenced
        /// for good.
        std::uint32_t max_attempts = 3;
        /// Virtual-time pause before the first re-attach attempt; doubles per
        /// consecutive failed attempt, up to 10 ms.
        std::int64_t backoff_ns = 200'000;
    };
    recovery_policy recovery;
};

} // namespace ham::offload
