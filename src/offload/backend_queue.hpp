// Queue backend: an in-process offload target behind a modelled wire.
//
// Spawns a simulated process running the standard target message loop with a
// queue-based channel and heap-backed "target memory". One class serves two
// backend kinds that differ only in what the wire costs (wire_costs) and in
// what the transport is called:
//   * loopback — a local hand-off. Exists for unit testing the runtime/API
//     independently of the SX-Aurora stack and as the reference
//     implementation of the backend interface.
//   * tcp — the generic TCP/IP backend (paper Fig. 1, Sec. I-A and III-A).
//     HAM-Offload's most generic backend "focuses on interoperability rather
//     than performance": it connects host and target through the operating
//     system's TCP stack. The paper explains why it is unsuitable for the
//     SX-Aurora (the VE has no native OS: every socket operation would
//     reverse-offload a syscall, on top of TCP's protocol overhead); this
//     kind models the generic case — a target process reachable through a
//     local TCP connection — and serves as the reference point for "what the
//     specialised protocols buy you".
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "ham/handler_registry.hpp"
#include "metrics/metrics.hpp"
#include "offload/backend.hpp"
#include "offload/options.hpp"
#include "offload/protocol.hpp"
#include "offload/target_loop.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace ham::offload {

class backend_queue final : public backend {
public:
    /// Serves opt.backend, which must be backend_kind::loopback or ::tcp.
    backend_queue(sim::simulation& sim, const ham::handler_registry& target_reg,
                  const sim::cost_model& costs, const runtime_options& opt,
                  node_t node);

    [[nodiscard]] std::uint32_t slot_count() const override { return slots_; }
    [[nodiscard]] io_status send_message(std::uint32_t slot, const void* msg,
                                         std::size_t len, protocol::msg_kind kind,
                                         bool retransmit) override;
    /// A tcp probe is a socket read; a loopback probe costs nothing.
    [[nodiscard]] sim::duration_ns probe_ns(std::uint32_t) const override {
        return kind_.wire.read_ns;
    }
    [[nodiscard]] sim::time_ns result_due(std::uint32_t slot) const override;
    void count_skipped_probes(std::uint32_t slot, std::uint64_t n) override;

    [[nodiscard]] std::uint64_t allocate_bytes(std::uint64_t len) override;
    void free_bytes(std::uint64_t addr) override;
    void put_bytes(const void* src, std::uint64_t dst_addr,
                   std::uint64_t len) override;
    void get_bytes(std::uint64_t src_addr, void* dst, std::uint64_t len) override;

    [[nodiscard]] node_descriptor descriptor() const override;
    void shutdown() override;
    /// The queue state survives, so the default quiesce() (an abandon)
    /// leaves delivered results and their delivery timestamps harvestable.
    void abandon() override;
    void respawn(std::uint8_t epoch) override;
    /// Results written before the death may still be on the wire: give the
    /// final drain one delivery latency plus a read of grace (tcp: half an
    /// RTT plus a read syscall; loopback: none).
    [[nodiscard]] std::int64_t result_grace_ns() const override;
    [[nodiscard]] bool inject_stale_flag(std::uint32_t slot,
                                         std::uint8_t epoch) override;

private:
    bool read_result(std::uint32_t slot, std::vector<std::byte>& out) override;
    /// What the modelled wire costs, in virtual ns. Hops are always charged;
    /// a zero latency or read cost is skipped, so a kind without them gets
    /// no extra scheduling point.
    struct wire_costs {
        /// One hop: the sender pays a fixed cost plus streaming time.
        struct hop {
            sim::duration_ns fixed_ns = 0;
            double gib = 0.0; ///< streaming bandwidth; 0 = the bytes are free
            [[nodiscard]] sim::duration_ns cost(std::uint64_t bytes) const {
                return fixed_ns + sim::transfer_ns(bytes, gib);
            }
        };
        hop msg;                         ///< a message or result
        hop bulk;                        ///< a put/get payload
        sim::duration_ns latency_ns = 0; ///< sent -> readable by the peer
        sim::duration_ns read_ns = 0;    ///< each receive and each host poll

        /// Send `bytes` over hop `h`: the sender's cost now, the delivery
        /// timestamp returned for the receiver to honour.
        [[nodiscard]] sim::time_ns send(const hop& h, std::uint64_t bytes) const;
    };
    /// Everything that differs between the two kinds.
    struct kind_profile {
        const char* name;        ///< process, descriptor, metric and heal labels
        const char* device_type; ///< node_descriptor::device_type
        /// Trace names (string literals: the trace rings keep the pointers).
        const char* send_span;
        const char* poll_counter;
        const char* result_instant;
        wire_costs wire;
    };
    struct shared_state;
    class channel;

    [[nodiscard]] static kind_profile profile_for(backend_kind kind,
                                                  const sim::cost_model& cm);

    /// Spawn the target process for the current epoch_ incarnation.
    void spawn_target();

    sim::simulation& sim_;
    const sim::cost_model& costs_;
    node_t node_;
    std::uint32_t slots_;
    std::uint32_t msg_size_;
    kind_profile kind_;
    std::shared_ptr<shared_state> shared_;
    std::map<std::uint64_t, std::unique_ptr<std::byte[]>> heap_;
    sim::process* target_proc_ = nullptr;
    /// Per-slot send generation; retransmits reuse the current value so the
    /// target channel can discard duplicates.
    std::vector<std::uint8_t> send_gen_;
    /// Current incarnation (aurora::heal); stamped into every flag so the
    /// target channel can reject leftovers of a previous incarnation.
    std::uint8_t epoch_ = 0;
    /// Registry the target loop translates through; kept for respawn().
    const ham::handler_registry* target_reg_;
    backend_metrics met_;
};

} // namespace ham::offload
