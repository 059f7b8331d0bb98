// Cooperative discrete-event simulation engine.
//
// The engine runs simulated processes (e.g. the Vector Host application
// process and each Vector Engine process) as fibers on the thread that calls
// simulation::run(): each process has its own stack, and the engine switches
// stacks in user space, on x86-64 without a system call (sim/fiber.hpp).
// Scheduling is cooperative: exactly one process executes at any instant,
// and the scheduler always resumes the runnable process with the smallest
// virtual wake-up time (ties broken by ready order, so runs are
// deterministic; the ready processes sit in a heap on that key). State that
// must follow the running process rather than the OS thread lives in
// aurora::context_local (util/context_local.hpp); the engine installs each
// process's slot table when it resumes the process.
//
// Idle polling. Both protocols of the paper wait by polling a flag word, and
// a loop of advance() + load would resume its process once per probe. poll()
// runs such a loop without resuming the process for the probes that find
// nothing: the process parks. Whenever another process stops running and a
// parked loop's next pass comes before the next ready process, the engine
// asks the loop's side-effect-free `due` callback when its checks would next
// act (nothing else runs in between, so the answer holds) and computes the
// first pass that sees it. The passes in between are skipped
// arithmetically, never resumed. Each skipped pass keeps its
// place in the (wake, ready order) tie rule: a pass gets a fresh ready order
// exactly as the advance() of the loop would, so when the poller finally
// resumes it does so at the same virtual time, and in the same order among
// processes waking at that time, as the loop. Since a skipped pass only
// reads, nothing else differs either; only stats().context_switches falls.
//
// Consequences relied upon throughout the codebase:
//   * Shared state touched by multiple simulated processes needs no locking —
//     execution is sequentially consistent by construction.
//   * Virtual time only advances through sim::advance()/sleep/blocking waits,
//     i.e. through explicitly modeled costs. Plain C++ between those calls is
//     "free", which is exactly what we want: functional behaviour is real,
//     timing comes from the calibrated cost model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"
#include "util/context_local.hpp"

namespace aurora::sim {

class simulation;
class event;
class condition;

struct poll_result;

namespace detail {
class fiber;
struct parked_poll;
using due_fn = time_ns (*)(void*, std::size_t);
poll_result poll(std::span<const duration_ns> steps, std::size_t first, void* ctx,
                 due_fn due);
} // namespace detail

/// A wake-up time that no check reaches until another process changes state.
inline constexpr time_ns never = std::numeric_limits<time_ns>::max();

/// One simulated process. Created through simulation::spawn(); runs its body
/// on a stack of its own under the cooperative scheduler.
class process {
public:
    using body_fn = std::function<void()>;

    process(const process&) = delete;
    process& operator=(const process&) = delete;
    ~process();

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

    /// The process-local clock. Safe to read from within the simulation (only
    /// one process runs at a time) or after simulation::run() returned.
    [[nodiscard]] time_ns now() const noexcept { return now_; }

    [[nodiscard]] bool finished() const noexcept { return st_ == state::finished; }

private:
    friend class simulation;
    friend class event;
    friend class condition;
    friend void advance(duration_ns);
    friend void join(process&);
    friend poll_result detail::poll(std::span<const duration_ns>, std::size_t, void*,
                                    detail::due_fn);

    enum class state { ready, running, blocked, parked, finished };

    process(simulation& sim, std::uint32_t id, std::string name, body_fn body);
    /// Entry of every process fiber; runs the body of the process the
    /// engine just resumed, then switches away for good.
    static void fiber_main();

    simulation& sim_;
    std::uint32_t id_;
    std::string name_;
    body_fn body_;
    state st_ = state::ready;
    time_ns now_ = 0;          // process-local clock
    time_ns wake_ = 0;         // scheduled resume time while ready
    std::uint64_t ready_seq_ = 0;
    std::vector<process*> join_waiters_;
    /// While parked in poll(): the loop it stands for. wake_ and ready_seq_
    /// are then the key of the loop's next pass.
    detail::parked_poll* poll_ = nullptr;
    /// Created on the first resume, released once the process finished.
    std::unique_ptr<detail::fiber> fiber_;
    context_slots slots_; ///< this process's context_local values
};

/// Thrown inside process bodies when the simulation aborts (another process
/// failed, or a deadlock was detected). Process code should not catch it.
class simulation_aborted : public std::exception {
public:
    [[nodiscard]] const char* what() const noexcept override {
        return "simulation aborted";
    }
};

/// Error diagnosed by the scheduler (deadlock, misuse).
class simulation_error : public std::runtime_error {
public:
    explicit simulation_error(const std::string& what) : std::runtime_error(what) {}
};

/// The simulation itself: owns processes, the virtual clock, and the
/// cooperative scheduler.
class simulation {
public:
    struct statistics {
        std::uint64_t context_switches = 0; ///< scheduler handoffs between processes
        /// Returns of a process from a suspension (advance, block, a parked
        /// poll), whether or not another process ran in between: a process
        /// alone at its time resumes without a context switch.
        std::uint64_t resumptions = 0;
        std::uint64_t processes_spawned = 0;
        std::uint64_t events_notified = 0;
    };

    simulation();
    simulation(const simulation&) = delete;
    simulation& operator=(const simulation&) = delete;
    ~simulation();

    /// Create a new process. May be called before run() or from inside a
    /// running process (the child starts at the caller's current time).
    process& spawn(std::string name, process::body_fn body);

    /// Run until every process finished. Rethrows the first process error.
    /// Throws simulation_error on deadlock (all processes blocked).
    void run();

    /// Global virtual clock: the largest time granted to any process so far.
    [[nodiscard]] time_ns now() const noexcept { return clock_; }

    /// Abort with simulation_error if virtual time would pass `deadline` —
    /// a guard against runaway polling loops in protocol code. 0 disables
    /// (default).
    void set_virtual_deadline(time_ns deadline) noexcept { deadline_ = deadline; }

    [[nodiscard]] const statistics& stats() const noexcept { return stats_; }

    [[nodiscard]] bool running() const noexcept { return started_ && !done_; }

private:
    friend class process;
    friend class event;
    friend class condition;
    friend process& self();
    friend void advance(duration_ns);
    friend void join(process&);
    friend poll_result detail::poll(std::span<const duration_ns>, std::size_t, void*,
                                    detail::due_fn);

    void make_ready(process& p, time_ns wake);
    void push_ready(process& p);
    /// `me` parks in poll(): run others until a check of its loop is due.
    void park_current(process& me, detail::parked_poll& poll);
    /// Pick among the best ready process (may be null) and the parked
    /// pollers: the first pass whose checks act wins. Every parked pass
    /// before the winner is skipped and re-keyed as the loop would have.
    /// Returns the winner, still to be claimed; null with aborted_ set on a
    /// passed deadline or a deadlock.
    [[nodiscard]] process* settle_parked(process* best);
    /// Recompute parked_wake_/parked_seq_.
    void note_parked_keys();
    /// Heap order of ready_: true when `a` runs after `b`.
    [[nodiscard]] static bool runs_later(const process* a,
                                         const process* b) noexcept;
    /// The process to run after `leaving` stops (nullptr: return to run()).
    /// Counts a context switch when that is another process; aborts on a
    /// passed virtual deadline or a deadlock.
    [[nodiscard]] process* pick_next(process* leaving);
    /// After an abort: the next started, unfinished process to resume so it
    /// unwinds, or nullptr once none is left.
    [[nodiscard]] process* next_to_unwind();
    void abort(std::exception_ptr error);
    /// `me` stops running (blocked or rescheduled): run others until `me`
    /// is picked again. Throws simulation_aborted after an abort.
    void suspend(process& me);
    void block_current(process& me);
    void reschedule_current(process& me, duration_ns d);
    /// `me` finished: wake its joiners and switch away for good.
    [[noreturn]] void finish(process& me, std::exception_ptr error);
    /// Switch from `from` to `to` (nullptr: the context of run()).
    void switch_to(process* from, process* to, bool from_exits = false);
    /// Back on the CPU after a switch: free the stack of a process that
    /// finished in the meantime.
    void resumed();
    [[nodiscard]] std::string deadlock_report() const;

    std::vector<std::unique_ptr<process>> processes_;
    /// Ready processes, a min-heap on (wake_, ready_seq_).
    std::vector<process*> ready_;
    /// Processes parked in poll(), in no particular order.
    std::vector<process*> parked_;
    /// The earliest key (wake, ready order) of a parked loop's next pass:
    /// while the best ready process runs before it, no parked loop matters.
    time_ns parked_wake_ = 0;
    std::uint64_t parked_seq_ = 0;
    // Scratch of settle_parked: the loops with a pass before the best ready
    // process, and those of them that skip passes.
    std::vector<detail::parked_poll*> near_;
    std::vector<detail::parked_poll*> rekey_;
    process* running_proc_ = nullptr;
    /// The context that called run(), and what it had installed.
    std::unique_ptr<detail::fiber> main_fiber_;
    process* outer_current_ = nullptr;
    context_slots* outer_slots_ = nullptr;
    process* exited_ = nullptr; ///< finished; its stack awaits release
    time_ns clock_ = 0;
    std::uint64_t ready_seq_counter_ = 0;
    time_ns deadline_ = 0;
    statistics stats_;
    bool started_ = false;
    bool done_ = false;
    bool aborted_ = false;
    std::exception_ptr error_;
};

// --- Context functions (valid only inside a simulated process) -------------

/// True when called from within a simulated process body.
[[nodiscard]] bool in_simulation() noexcept;

/// The currently running process. Checks in_simulation().
[[nodiscard]] process& self();

/// The current process's virtual clock.
[[nodiscard]] time_ns now();

/// Consume `d` nanoseconds of virtual time (d >= 0). Other runnable processes
/// with earlier wake-up times execute in the meantime.
void advance(duration_ns d);

/// Let other processes scheduled at the same instant run.
inline void yield() { advance(0); }

/// Advance to absolute time `t` (no-op if `t` is in the past).
void sleep_until(time_ns t);

/// Block until `p` finishes. The caller resumes at max(its time, finish time).
void join(process& p);

/// What poll() reports when the loop it ran reaches a pass whose checks act.
struct poll_result {
    std::size_t step = 0;     ///< the caller resumes right after this step
    std::uint64_t passes = 0; ///< passes skipped before it (no check acted)
    std::size_t first = 0;    ///< poll()'s `first`
    std::size_t cycle = 1;    ///< number of steps per iteration

    /// How many of the skipped passes ended step `k`.
    [[nodiscard]] std::uint64_t skipped(std::size_t k) const noexcept {
        const std::size_t r = (k + cycle - first) % cycle;
        return passes > r ? (passes - r - 1) / cycle + 1 : 0;
    }
};

namespace detail {
/// The loop a parked process stands for (see poll()).
struct parked_poll {
    std::span<const duration_ns> steps;
    duration_ns cycle = 0;    ///< sum of steps
    std::size_t at = 0;       ///< the step whose end is the next pass
    std::uint64_t passes = 0; ///< passes skipped so far
    void* ctx = nullptr;
    due_fn due = nullptr;
    time_ns wake = 0;         ///< virtual time of the next pass
    std::uint64_t seq = 0;    ///< its ready order, as advance() would give it
    std::uint64_t stop = 0; ///< scratch of settle_parked: the pass that acts
    std::uint64_t ran = 0;  ///< scratch of settle_parked: passes to skip
};
} // namespace detail

/// Run the polling loop
///
///     for (std::size_t k = first;; k = (k + 1) % steps.size()) {
///         advance(steps[k]);
///         if (the loop's checks after step k act) break;
///     }
///
/// without resuming the calling process for the passes whose checks do not
/// act, and return the step after which they do; the caller then runs those
/// checks itself. `due(k)` tells when the checks after step k would act:
/// the earliest virtual time at which they would, given the shared state as
/// it is now, or sim::never when only another process can change that. It
/// is called by the engine between other processes' segments, so it must
/// have no side effects: no advance(), no throw, no sim::now() or
/// context_local (it runs in some other process's context). Answering too
/// early is safe (the caller's checks then find nothing and it polls again);
/// answering too late loses the store. The steps must not all be zero.
///
/// With no ready process and no due check left, the loop would poll until
/// the virtual deadline: poll() ends the run there, with the same
/// simulation_error; without a deadline it reports a deadlock. A poll()
/// that unwinds on an abort does not report the passes it skipped.
template <typename Due>
poll_result poll(std::span<const duration_ns> steps, std::size_t first, Due&& due) {
    using fn_t = std::remove_reference_t<Due>;
    void* const ctx = const_cast<void*>(static_cast<const void*>(&due));
    return detail::poll(steps, first, ctx, [](void* c, std::size_t k) -> time_ns {
        return (*static_cast<fn_t*>(c))(k);
    });
}

} // namespace aurora::sim
