// aurora::sched engines — where the executor's tasks run.
//
// An engine is one (VH node, VE) pair. The executor sees the machine only
// through an engine_set: the engines' ids (the node_t a task names in
// task_options::affinity and completion_record::executed_on), the VH each one
// sits on, and per engine a non-blocking send, health and probation progress.
//
// VH 0 is the VH the executor runs on: its engines are the ambient runtime's
// targets, and only their result polls cost virtual time. runtime_engines is
// that single-VH set, every executor's default; aurora::net::cluster
// implements the multi-VH one (docs/SCHEDULER.md, "Steal scope").
#pragma once

#include <cstdint>
#include <string>

#include "offload/future.hpp"
#include "offload/protocol.hpp"
#include "offload/runtime.hpp"
#include "offload/types.hpp"

namespace aurora::sched {

class engine_set {
public:
    engine_set() = default;
    engine_set(const engine_set&) = delete;
    engine_set& operator=(const engine_set&) = delete;
    virtual ~engine_set() = default;

    /// Engines are indexed 0..engine_count()-1 in ascending id order.
    [[nodiscard]] virtual std::size_t engine_count() const = 0;
    /// Engine `e`'s id; ids ascend with the index but need not be dense.
    [[nodiscard]] virtual ham::offload::node_t engine_id(std::size_t e) const = 0;
    /// The VH node engine `e` sits on (0 = the executor's own VH).
    [[nodiscard]] virtual int engine_vh(std::size_t e) const = 0;
    /// Non-blocking send of one message: on success `out` waits for its
    /// result; false when the engine cannot take it now (retry later).
    /// `queued_ns` is when the message's oldest task became ready — the start
    /// of its aurora::obs queue_wait stage.
    virtual bool engine_send(std::size_t e, const void* msg, std::size_t len,
                             ham::offload::protocol::msg_kind kind,
                             std::uint64_t queued_ns,
                             ham::offload::future<void>& out) = 0;
    [[nodiscard]] virtual ham::offload::target_health
    engine_health(std::size_t e) = 0;
    /// Why a failed engine failed ("" otherwise).
    [[nodiscard]] virtual std::string engine_failure(std::size_t e) = 0;
    /// Clean results since the engine entered probation.
    [[nodiscard]] virtual std::uint32_t engine_probation(std::size_t e) = 0;
    /// Drive a recovering engine's heal state machine (may advance time).
    virtual void engine_poll_recovery(std::size_t e) = 0;
};

/// The targets of one runtime, all on VH 0: engine e is runtime node e + 1.
class runtime_engines final : public engine_set {
public:
    explicit runtime_engines(ham::offload::runtime& rt) : rt_(rt) {}

    [[nodiscard]] std::size_t engine_count() const override {
        return rt_.num_nodes() - 1;
    }
    [[nodiscard]] ham::offload::node_t engine_id(std::size_t e) const override {
        return static_cast<ham::offload::node_t>(e + 1);
    }
    [[nodiscard]] int engine_vh(std::size_t) const override { return 0; }
    bool engine_send(std::size_t e, const void* msg, std::size_t len,
                     ham::offload::protocol::msg_kind kind,
                     std::uint64_t queued_ns,
                     ham::offload::future<void>& out) override;
    [[nodiscard]] ham::offload::target_health
    engine_health(std::size_t e) override {
        return rt_.health(engine_id(e));
    }
    [[nodiscard]] std::string engine_failure(std::size_t e) override {
        return rt_.failure_reason(engine_id(e));
    }
    [[nodiscard]] std::uint32_t engine_probation(std::size_t e) override {
        return rt_.probation_progress(engine_id(e));
    }
    void engine_poll_recovery(std::size_t e) override {
        static_cast<void>(rt_.slots_available(engine_id(e)));
    }

private:
    ham::offload::runtime& rt_;
};

} // namespace aurora::sched
