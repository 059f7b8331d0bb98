// aurora::sched task model.
//
// A task is one offloadable unit of work: a serialised active message plus
// scheduling metadata (home placement, stealability, a cost estimate). Tasks
// return void by design — results flow through buffer_ptr memory, so any
// ready task can be coalesced into a batch message and any unpinned task can
// migrate to an idle engine without a result-routing problem.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "offload/types.hpp"

namespace aurora::sched {

using node_t = ham::offload::node_t;

/// Dense task handle within one executor/task_graph.
using task_id = std::uint32_t;

inline constexpr task_id invalid_task = std::numeric_limits<task_id>::max();

/// "Let the scheduler choose" placement marker.
inline constexpr node_t any_node = std::numeric_limits<node_t>::max();

/// "Any VE of VH node `vh`" placement marker: the engine on that VH with the
/// fewest ready plus in-flight tasks (ties towards the lowest id).
[[nodiscard]] constexpr node_t any_ve_of(int vh) { return any_node - 1 - vh; }

struct task_options {
    /// Preferred execution node: an engine id (1..num_targets on one VH)
    /// places on that VE's queue, 0 runs on the host process itself (for
    /// scatter/gather phases), any_ve_of(vh) picks a VE of that VH, and
    /// any_node lets the policy decide. Callers owning buffer_ptr inputs
    /// should pass the owning node here (locality-aware placement).
    node_t affinity = any_node;
    /// Pinned tasks never migrate off their home queue. Required whenever the
    /// task dereferences buffer_ptr memory of its affinity node — a stolen
    /// task executes on a different VE and cannot reach remote memory.
    bool pinned = false;
    /// Estimated execution cost in virtual nanoseconds. Only used for
    /// utilisation reporting; scheduling decisions are queue-length based so
    /// they stay correct with no estimate at all.
    std::uint64_t cost_ns = 0;
    /// Absolute virtual-time deadline (0 = none). A task whose deadline
    /// passes before dispatch is cancelled — settled as task_state::expired
    /// (counted, never silently dropped) and its dependents cascade-expire.
    /// A deadline never aborts work already in flight.
    std::int64_t deadline_ns = 0;
};

/// Scheduling lifecycle of a task.
enum class task_state : std::uint8_t {
    blocked,  ///< waiting on unfinished predecessors
    ready,    ///< in a ready queue
    inflight, ///< sent to a target, result outstanding
    done,     ///< executed (exactly once)
    failed,   ///< raised on the target, or skipped after another failure
    expired,  ///< deadline passed before dispatch; cancelled, never executed
};

/// One completed task, as recorded by the executor. start_seq/done_seq are
/// drawn from one shared event counter, so they totally order dispatch and
/// completion across all tasks: done_seq[dep] < start_seq[succ] certifies a
/// dependency was honoured. done_time is the virtual timestamp of completion.
/// All fields are bit-identical across repeated runs of the same workload
/// (the determinism contract, see docs/SCHEDULER.md).
struct completion_record {
    task_id id = invalid_task;
    node_t executed_on = 0;
    std::uint64_t start_seq = 0;
    std::uint64_t done_seq = 0;
    std::uint64_t done_time_ns = 0;
};

namespace detail {

/// Internal per-task record.
struct task_rec {
    std::vector<std::byte> msg; ///< serialised active message
    task_options opts;
    std::vector<task_id> succs;
    std::uint32_t unmet = 0;
    node_t home = 0; ///< assigned queue: 0 = host, else an engine id
    task_state state = task_state::blocked;
    /// Outcome propagation from predecessors: a failed dep skips this task,
    /// an expired dep cascade-expires it (expiry wins when both are set).
    bool dep_failed = false;
    bool dep_expired = false;
    /// Virtual time the task entered a ready queue — the start of its
    /// queue_wait stage in the aurora::obs request timeline.
    std::uint64_t ready_at_ns = 0;
    completion_record record;
};

} // namespace detail

} // namespace aurora::sched
