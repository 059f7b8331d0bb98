// Execution stacks of the simulation engine (internal to aurora_sim).
//
// A fiber is either the context that called simulation::run() (the thread's
// own stack) or a simulated process with an mmap'd stack of its own. The
// engine switches between them with swapcontext on one OS thread. A switch
// also swaps what is per OS thread but must follow the fiber:
//   * libstdc++'s exception globals (__cxa_get_globals: the caught-exception
//     stack and std::uncaught_exceptions()), so a process suspended inside a
//     catch block or in the middle of unwinding keeps its own;
//   * the ASan and TSan notions of the current stack, so both sanitizers
//     understand the switch.
#pragma once

#include <ucontext.h>

#include <cstddef>

namespace aurora::sim::detail {

class fiber {
public:
    /// The calling thread's current context; resumable once switched away.
    fiber();
    /// A fresh stack (8 MiB reserved behind a guard page; only touched pages
    /// become resident) that runs `entry` when first resumed. `entry` must
    /// call started() first and must never return: it leaves with
    /// switch_to(..., true).
    explicit fiber(void (*entry)());
    ~fiber();
    fiber(const fiber&) = delete;
    fiber& operator=(const fiber&) = delete;

    /// Suspend the running context `from` and resume `to`. Returns when a
    /// later switch resumes `from`. `from_exits` marks `from` as finished
    /// for good: it is never resumed and may be destroyed from now on.
    static void switch_to(fiber& from, fiber& to, bool from_exits = false);

    /// Complete the first switch into a fresh fiber.
    static void started();

private:
    /// Layout of __cxxabiv1::__cxa_eh_globals (libstdc++ and libc++abi).
    struct eh_globals {
        void* caught_exceptions = nullptr;
        unsigned int uncaught_exceptions = 0;
    };

    ucontext_t ctx_{};
    void* map_ = nullptr; ///< stack mapping, guard page first (own stacks)
    std::size_t map_bytes_ = 0;
    eh_globals eh_; ///< this context's exception globals while suspended
    // Sanitizer bookkeeping (unused in plain builds).
    const void* stack_bottom_ = nullptr;
    std::size_t stack_size_ = 0;
    void* asan_fake_stack_ = nullptr;
    void* tsan_fiber_ = nullptr;
};

} // namespace aurora::sim::detail
