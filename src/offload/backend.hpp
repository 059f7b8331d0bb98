// Abstract communication backend, host side (paper Fig. 1, bottom layer).
//
// One backend instance connects the host runtime to one offload target. The
// interface mirrors what the protocols of Figs. 5 and 8 need:
//   * slot-based message send with piggybacked result-slot assignment,
//   * per-slot result polling/collection,
//   * bulk data transfers and target memory management (Table II put/get/
//     allocate/free).
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/metrics.hpp"
#include "offload/protocol.hpp"
#include "offload/types.hpp"
#include "sim/engine.hpp"

namespace aurora::obs {
class flight_ring;
}

namespace ham::offload {

/// Outcome of a send-side transport operation (aurora::fault hardening): the
/// message path reports failures as status codes instead of aborting.
enum class io_status : std::uint8_t {
    ok,        ///< accepted by the transport (delivery still not guaranteed)
    transient, ///< send-post failed before any state change; retry is safe
    down,      ///< the transport is gone; the target must be declared failed
};

/// Transport-level telemetry shared by every backend implementation: send
/// and poll latencies (virtual ns) plus byte counters, labeled
/// {backend=<name>, node=<n>} in the global aurora::metrics registry.
/// Instruments are resolved once at backend construction; the per-operation
/// cost is a handful of relaxed atomics.
class backend_metrics {
public:
    /// `poll_trace_name`: the backend's trace counter of result probes
    /// (category "backend"), e.g. "vedma_poll"; a string literal.
    backend_metrics(const char* backend_name, node_t node,
                    const char* poll_trace_name);

    /// Count `n` result probes: aurora_backend_polls_total and, when tracing
    /// is on, one event of the backend's poll trace counter.
    void count_polls(std::uint64_t n) noexcept;

    /// Times one send_message call and counts its payload bytes.
    class send_timer {
    public:
        send_timer(backend_metrics& m, std::size_t len) noexcept;
        ~send_timer();
        send_timer(const send_timer&) = delete;
        send_timer& operator=(const send_timer&) = delete;

    private:
        backend_metrics& m_;
        std::size_t len_;
        std::int64_t t0_;
    };

    /// Times one test_result probe from `started`, the virtual time it
    /// began; call arrived() when a result landed so its payload counts as
    /// bytes in.
    class poll_timer {
    public:
        poll_timer(backend_metrics& m, sim::time_ns started) noexcept;
        ~poll_timer();
        poll_timer(const poll_timer&) = delete;
        poll_timer& operator=(const poll_timer&) = delete;
        void arrived(std::size_t len) noexcept;

    private:
        backend_metrics& m_;
        std::int64_t t0_;
        std::size_t arrived_len_ = 0;
        bool arrived_ = false;
    };

private:
    aurora::metrics::histogram* send_ns_;
    aurora::metrics::histogram* recv_ns_;
    aurora::metrics::counter* sends_;
    aurora::metrics::counter* polls_;
    aurora::metrics::counter* bytes_out_;
    aurora::metrics::counter* bytes_in_;
    const char* poll_trace_name_;
};


class backend {
public:
    virtual ~backend() = default;

    /// Number of message slots per direction.
    [[nodiscard]] virtual std::uint32_t slot_count() const = 0;

    /// Send one message of `kind` into `slot`; the result (or ack) arrives in
    /// the same slot index of the opposite region. `retransmit` resends into a
    /// slot whose original send may have been lost: generation-matched
    /// protocols keep the slot's current generation (the receiver still
    /// expects it) instead of advancing it — a fresh send after a NACK uses
    /// retransmit=false so the generation moves on.
    [[nodiscard]] virtual io_status send_message(std::uint32_t slot,
                                                 const void* msg, std::size_t len,
                                                 protocol::msg_kind kind,
                                                 bool retransmit = false) = 0;

    /// Non-blocking result probe for `slot`: spends probe_ns(slot), then
    /// reads once result_due(slot) acts. On success fills `out` with the
    /// result payload (header + bytes) and clears the slot. A step and a
    /// check of the pass it runs in (sim::pass), so a wait parks on it.
    bool test_result(std::uint32_t slot, std::vector<std::byte>& out);

    /// Virtual time one test_result(slot) spends before it reads.
    [[nodiscard]] virtual sim::duration_ns probe_ns(std::uint32_t slot) const = 0;
    /// When test_result(slot) would act — find a result, or clear a stale
    /// one — as things stand: the earliest virtual time, or sim::never until
    /// the target stores something. Free of side effects.
    [[nodiscard]] virtual sim::time_ns result_due(std::uint32_t slot) const = 0;
    /// Book `n` probes of `slot`: the counters every probe moves, found
    /// something or not (a parked wait books its skipped probes here).
    virtual void count_skipped_probes(std::uint32_t slot, std::uint64_t n) = 0;

    // --- bulk data path (Table II) -------------------------------------------
    [[nodiscard]] virtual std::uint64_t allocate_bytes(std::uint64_t len) = 0;
    virtual void free_bytes(std::uint64_t addr) = 0;
    virtual void put_bytes(const void* src, std::uint64_t dst_addr,
                           std::uint64_t len) = 0;
    virtual void get_bytes(std::uint64_t src_addr, void* dst, std::uint64_t len) = 0;

    [[nodiscard]] virtual node_descriptor descriptor() const = 0;

    /// Final teardown after the terminate message was acknowledged.
    virtual void shutdown() = 0;

    /// Fence a target the health machinery declared failed: stop its process
    /// without the terminate handshake and release transport resources. Must
    /// not block indefinitely; idempotent; the backend accepts no further
    /// operations afterwards.
    virtual void abandon() {}

    // --- aurora::heal lifecycle (recovery_policy; see docs/FAULTS.md) --------

    /// Stop a dead target's process like abandon(), but keep the host-side
    /// communication state alive so already-delivered results stay
    /// harvestable via test_result(). Idempotent; after the final drain the
    /// runtime either respawn()s the target or abandon()s it for good.
    virtual void quiesce() { abandon(); }

    /// Re-create the target process under incarnation `epoch`: fresh process,
    /// re-deployed code image + handler table, re-registered communication
    /// state. All message slots start free; every subsequent send and every
    /// result produced by the new incarnation carries `epoch` in its flag.
    /// Throws target_attach_error when the attach fails (the caller backs off
    /// and retries per its recovery_policy).
    virtual void respawn(std::uint8_t epoch);

    /// Virtual time after quiesce() during which results already sent by the
    /// late incarnation may still become visible (e.g. the tcp backend's
    /// modeled half-RTT). The runtime waits this long before its final
    /// pre-recovery drain so no acked work is mistaken for lost.
    [[nodiscard]] virtual std::int64_t result_grace_ns() const { return 0; }

    /// Test seam for the cross-epoch rejection property: plant a stale flag /
    /// packet carrying `epoch` that the target's channel would consume next
    /// if epochs were ignored (the shape of a delayed retransmit from a
    /// previous incarnation). `slot` is advisory — slot-addressed backends
    /// (VEO/VEDMA) plant the flag at the target's round-robin poll cursor so
    /// the reject is observable immediately; queue backends ignore it.
    /// Returns false when the backend cannot inject (default).
    [[nodiscard]] virtual bool inject_stale_flag(std::uint32_t slot,
                                                 std::uint8_t epoch);

    // --- optional VE-DMA bulk-data path (extension beyond the paper) ---------
    // When supported (and enabled), the runtime routes put()/get() through
    // data_put/data_get control messages: the host stages chunks in shared
    // memory and the VE moves them with its user DMA engine, pipelining host
    // staging copies with VE-side transfers.

    [[nodiscard]] virtual bool has_dma_data_path() const { return false; }
    /// Number of independent staging chunks (pipeline depth).
    [[nodiscard]] virtual std::uint32_t staging_chunk_count() const { return 0; }
    /// Capacity of one staging chunk in bytes.
    [[nodiscard]] virtual std::uint64_t staging_chunk_bytes() const { return 0; }
    /// Host side: copy a chunk into staging slot `chunk` (timed).
    virtual void stage_put(std::uint32_t chunk, const void* src, std::uint64_t len);
    /// Host side: copy a completed get-chunk out of staging slot `chunk`.
    virtual void stage_get(std::uint32_t chunk, void* dst, std::uint64_t len);

    /// True when the target channel understands the zero-copy data_msg shape
    /// (aurora::mem): transfers between a registered host buffer and a VE
    /// arena region with no staging copies. Implies has_dma_data_path().
    [[nodiscard]] virtual bool supports_zero_copy() const { return false; }

protected:
    /// test_result() once its probe's time passed and result_due() acts:
    /// read the slot's result.
    virtual bool read_result(std::uint32_t slot, std::vector<std::byte>& out) = 0;
};

} // namespace ham::offload
