// Cooperative discrete-event simulation engine.
//
// The engine runs simulated processes (e.g. the Vector Host application
// process and each Vector Engine process) as fibers on the thread that calls
// simulation::run(): each process has its own stack, and the engine switches
// stacks in user space, on x86-64 without a system call (sim/fiber.hpp).
// Scheduling is cooperative: exactly one process executes at any instant,
// and the scheduler always resumes the runnable process with the smallest
// virtual wake-up time (ties broken by ready order, so runs are
// deterministic). State that must follow the running process rather than
// the OS thread lives in aurora::context_local (util/context_local.hpp); the
// engine installs each process's slot table when it resumes the process.
//
// Consequences relied upon throughout the codebase:
//   * Shared state touched by multiple simulated processes needs no locking —
//     execution is sequentially consistent by construction.
//   * Virtual time only advances through sim::advance()/sleep/blocking waits,
//     i.e. through explicitly modeled costs. Plain C++ between those calls is
//     "free", which is exactly what we want: functional behaviour is real,
//     timing comes from the calibrated cost model.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/context_local.hpp"

namespace aurora::sim {

class simulation;
class event;
class condition;

namespace detail {
class fiber;
} // namespace detail

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

    enum class state { ready, running, blocked, finished };

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

    void make_ready(process& p, time_ns wake);
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

} // namespace aurora::sim
