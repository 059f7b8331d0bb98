// aurora::sched scheduling policies and executor configuration.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace aurora::sched {

/// How ready tasks are placed on the engines.
enum class placement_policy : std::uint8_t {
    /// Static: ignore affinity, deal tasks to targets in submission order.
    /// The baseline bench_scaling_multi_ve measures against.
    round_robin,
    /// Place every task on its affinity node (submission-order round robin
    /// for tasks without one); queues never rebalance.
    locality,
    /// Locality placement plus work stealing: a target with a free in-flight
    /// window and an empty ready queue takes unpinned tasks from the back of
    /// the longest queue (ties broken towards the lowest node id).
    work_stealing,
};

[[nodiscard]] inline std::string to_string(placement_policy p) {
    switch (p) {
        case placement_policy::round_robin: return "round-robin";
        case placement_policy::locality: return "locality";
        case placement_policy::work_stealing: return "work-stealing";
    }
    return "?";
}

/// How far work stealing may reach when the engines span several VH nodes
/// (aurora::net). On one VH every steal is local and this has no effect.
enum class steal_scope : std::uint8_t {
    /// Steal only among the VEs of the same VH node.
    local_only,
    /// Steal locally first; when no engine on the thief's VH has stealable
    /// work, take from the deepest queue on another VH if it holds at least
    /// remote_steal_threshold stealable tasks (ties towards the lowest id).
    local_then_remote,
};

[[nodiscard]] inline std::string to_string(steal_scope s) {
    switch (s) {
        case steal_scope::local_only: return "local-only";
        case steal_scope::local_then_remote: return "local-then-remote";
    }
    return "?";
}

/// What submit() does when the unfinished-task backlog reaches max_queued.
enum class backpressure_mode : std::uint8_t {
    /// Block in virtual time, draining completions, until the backlog falls
    /// below the bound. Submission never fails; latency is unbounded.
    block,
    /// Shed: reject the submission with ham::offload::admission_error (the
    /// task is never recorded) carrying a retry-after hint. The serving-mode
    /// choice — queues stay bounded in memory AND in waiting time
    /// (aurora::admit builds its per-tenant policy on top of this).
    shed,
};

[[nodiscard]] inline std::string to_string(backpressure_mode m) {
    switch (m) {
        case backpressure_mode::block: return "block";
        case backpressure_mode::shed: return "shed";
    }
    return "?";
}

struct executor_config {
    placement_policy policy = placement_policy::work_stealing;
    /// Per-target bound on outstanding offload messages (clamped to the
    /// runtime's msg_slots). The window, not the slot count, is the
    /// scheduler's concurrency knob: slots left free absorb put/get traffic
    /// issued by host tasks.
    std::uint32_t window = 4;
    /// Coalesce consecutive ready tasks bound for the same engine into one
    /// batch message when they fit the slot payload (protocol msg_kind::batch).
    bool batching = true;
    /// Upper bound on tasks per batch message.
    std::uint32_t max_batch = 8;
    /// Backpressure threshold: at most this many submitted tasks may be
    /// unfinished. Finite by default — an unbounded queue turns any
    /// saturating client into unbounded memory growth; callers that really
    /// want the old behaviour can pass SIZE_MAX back explicitly.
    std::size_t max_queued = 4096;
    /// What submit() does at the bound (block keeps the historical
    /// semantics; task_graph::run() submits whole graphs through it).
    backpressure_mode backpressure = backpressure_mode::block;
    /// Historical behaviour (true): the first task failure poisons the run —
    /// every task not yet dispatched settles as failed and wait_all()
    /// rethrows. Serving mode (false): a failure settles only that task and
    /// its dependents; independent work continues and wait_all() returns
    /// normally (per-task outcomes via state_of()/stats()).
    bool fail_fast = true;
    /// How far an idle engine may steal across VH nodes.
    steal_scope scope = steal_scope::local_then_remote;
    /// Stealable tasks a queue on another VH must hold before a steal
    /// crosses the inter-node link (remote dispatch pays the link latency).
    std::uint32_t remote_steal_threshold = 4;
};

} // namespace aurora::sched
