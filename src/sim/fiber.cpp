#include "sim/fiber.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstring>

#include "util/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define AURORA_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define AURORA_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(AURORA_FIBER_ASAN)
#define AURORA_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(AURORA_FIBER_TSAN)
#define AURORA_FIBER_TSAN 1
#endif
#endif

#if defined(AURORA_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(AURORA_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// void aurora_sim_fiber_switch(void** save_sp, void* load_sp)
//
// Pushes rbp, rbx, r12-r15 and one word holding MXCSR (low half) and the x87
// control word, stores rsp to *save_sp, then loads load_sp into rsp and pops
// the same frame from there. Its `ret` returns into the other fiber's own
// call of this routine, or into the entry of a fresh stack (see the frame
// that fiber(entry) builds). It carries no CFI: no unwinder runs while a
// switch is in progress.
extern "C" void aurora_sim_fiber_switch(void** save_sp, void* load_sp) noexcept;
asm(".pushsection .text\n"
    ".p2align 4\n"
    ".globl aurora_sim_fiber_switch\n"
    ".hidden aurora_sim_fiber_switch\n"
    ".type aurora_sim_fiber_switch, @function\n"
    "aurora_sim_fiber_switch:\n"
    "    pushq %rbp\n"
    "    pushq %rbx\n"
    "    pushq %r12\n"
    "    pushq %r13\n"
    "    pushq %r14\n"
    "    pushq %r15\n"
    "    subq $8, %rsp\n"
    "    stmxcsr (%rsp)\n"
    "    fnstcw 4(%rsp)\n"
    "    movq %rsp, (%rdi)\n"
    "    movq %rsi, %rsp\n"
    "    ldmxcsr (%rsp)\n"
    "    fldcw 4(%rsp)\n"
    "    addq $8, %rsp\n"
    "    popq %r15\n"
    "    popq %r14\n"
    "    popq %r13\n"
    "    popq %r12\n"
    "    popq %rbx\n"
    "    popq %rbp\n"
    "    ret\n"
    ".size aurora_sim_fiber_switch, .-aurora_sim_fiber_switch\n"
    ".popsection\n");
#endif

namespace aurora::sim::detail {

namespace {

/// Reserved stack per simulated process, as for a default pthread stack.
constexpr std::size_t stack_reserve = std::size_t{8} << 20;

/// Released stacks a thread keeps for its next processes. A stack costs a
/// mapping, a guard page, its first page faults and an unmap, about 15 us,
/// while a benchmark trial, a test or a tool builds simulation after
/// simulation on one thread. The list holds what one simulation of this
/// repository runs at once (about 21 processes on a four-node cluster, 24 in
/// bench_sim_engine's BM_SpawnAndFinish) with room to spare; each kept stack
/// stays resident as far as its process touched it. A stack released while
/// the list is full is unmapped.
constexpr std::size_t max_spare_stacks = 32;

std::size_t guard_bytes() {
    static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

/// This thread's released stacks (each mapping guard page first), unmapped
/// when the thread exits.
struct spare_stacks {
    std::array<void*, max_spare_stacks> maps{};
    std::size_t count = 0;
    std::uint64_t mapped = 0; ///< stacks this thread has mapped

    spare_stacks() = default;
    spare_stacks(const spare_stacks&) = delete;
    spare_stacks& operator=(const spare_stacks&) = delete;
    ~spare_stacks() {
        for (std::size_t i = 0; i < count; ++i) {
            munmap(maps[i], guard_bytes() + stack_reserve);
        }
    }
};
thread_local spare_stacks t_spares;

#if defined(AURORA_FIBER_ASAN)
/// The fiber the latest switch left; its stack bounds are reported to the
/// context being entered.
thread_local fiber* t_switched_from = nullptr;
#endif

} // namespace

fiber::fiber() {
#if defined(AURORA_FIBER_TSAN)
    tsan_fiber_ = __tsan_get_current_fiber();
#endif
}

fiber::fiber(void (*entry)()) {
    const std::size_t guard = guard_bytes();
    spare_stacks& spares = t_spares;
    if (spares.count > 0) {
        map_ = spares.maps[--spares.count];
    } else {
        map_ = mmap(nullptr, guard + stack_reserve, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
        AURORA_CHECK_MSG(map_ != MAP_FAILED, "cannot map a process stack");
        AURORA_CHECK(mprotect(map_, guard, PROT_NONE) == 0); // guard page
        ++spares.mapped;
    }
    stack_bottom_ = static_cast<char*>(map_) + guard;
    stack_size_ = stack_reserve;
#if defined(__x86_64__)
    // The frame the first switch pops, lowest address first: this context's
    // MXCSR and x87 control word, six zeroed callee-saved registers (a null
    // rbp ends frame-pointer backtraces), `entry` for the switch's `ret`, and
    // a null return address for `entry`. A reused stack gets it anew, so
    // nothing of its previous process carries over. The top of the stack is
    // 16-byte aligned, so after the `ret` rsp == 8 (mod 16), as at any
    // function entry.
    std::uint32_t mxcsr = 0;
    std::uint16_t x87_control = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_control));
    const std::uint64_t frame[9] = {
        mxcsr | std::uint64_t{x87_control} << 32, 0, 0, 0, 0, 0, 0,
        reinterpret_cast<std::uintptr_t>(entry), 0};
    sp_ = static_cast<char*>(map_) + guard + stack_reserve - sizeof(frame);
    std::memcpy(sp_, frame, sizeof(frame));
#else
    AURORA_CHECK(getcontext(&ctx_) == 0);
    ctx_.uc_stack.ss_sp = static_cast<char*>(map_) + guard;
    ctx_.uc_stack.ss_size = stack_reserve;
    ctx_.uc_link = nullptr;
    makecontext(&ctx_, entry, 0);
#endif
#if defined(AURORA_FIBER_TSAN)
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

fiber::~fiber() {
    if (map_ == nullptr) {
        return; // a thread's own stack
    }
#if defined(AURORA_FIBER_ASAN)
    // Frames that never returned leave poisoned redzones behind; the next
    // process on this stack (or a later mapping at its address) must not
    // inherit them.
    __asan_unpoison_memory_region(stack_bottom_, stack_size_);
#endif
    spare_stacks& spares = t_spares;
    if (spares.count < max_spare_stacks) {
        spares.maps[spares.count++] = map_;
    } else {
        munmap(map_, guard_bytes() + stack_reserve);
    }
#if defined(AURORA_FIBER_TSAN)
    __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void fiber::switch_to(fiber& from, fiber& to, bool from_exits) {
    void* const eh = abi::__cxa_get_globals();
    std::memcpy(&from.eh_, eh, sizeof(eh_globals));
    std::memcpy(eh, &to.eh_, sizeof(eh_globals));
#if defined(AURORA_FIBER_ASAN)
    t_switched_from = &from;
    __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.asan_fake_stack_,
                                   to.stack_bottom_, to.stack_size_);
#else
    (void)from_exits;
#endif
#if defined(AURORA_FIBER_TSAN)
    __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
#if defined(__x86_64__)
    aurora_sim_fiber_switch(&from.sp_, to.sp_);
#else
    AURORA_CHECK(swapcontext(&from.ctx_, &to.ctx_) == 0);
#endif
#if defined(AURORA_FIBER_ASAN)
    // Resumed: learn the bounds of the stack we came from (this is how the
    // thread's own stack gets known before anything switches back to it).
    __sanitizer_finish_switch_fiber(from.asan_fake_stack_,
                                    &t_switched_from->stack_bottom_,
                                    &t_switched_from->stack_size_);
#endif
}

void fiber::started() {
#if defined(AURORA_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(nullptr, &t_switched_from->stack_bottom_,
                                    &t_switched_from->stack_size_);
#endif
}

std::uint64_t fiber::stacks_mapped() noexcept {
    return t_spares.mapped;
}

} // namespace aurora::sim::detail
