// Variables with one value per execution context.
//
// The simulator runs every simulated process as a fiber on the thread that
// calls simulation::run(), so state that belongs to "whoever runs now" (the
// HAM image registry, the offload runtime and target context, the trace lane
// cache) cannot live in a plain thread_local. Each context_local takes one
// slot of a small table. Every OS thread has a table of its own, and the
// simulation engine installs a process's table whenever it resumes that
// process. Outside a simulation a context_local behaves like a thread_local.
//
// The hot path is one thread-local load, one branch and one indexed load.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace aurora {

/// One execution context's values of every context_local, zero-initialised.
struct context_slots {
    static constexpr std::size_t capacity = 8;
    std::array<std::uintptr_t, capacity> values{};
};

namespace detail {
/// The installed table; nullptr selects the thread's own.
inline constinit thread_local context_slots* t_context_slots = nullptr;
inline constinit thread_local context_slots t_thread_slots{};

/// Hands out slot indices; aborts past context_slots::capacity.
[[nodiscard]] std::size_t allocate_context_slot();

[[nodiscard]] inline context_slots& current_context_slots() noexcept {
    context_slots* s = t_context_slots;
    return s != nullptr ? *s : t_thread_slots;
}
} // namespace detail

/// Make `s` the calling thread's current table (nullptr: the thread's own)
/// and return the previous one, which the caller reinstalls when it resumes.
inline context_slots* install_context_slots(context_slots* s) noexcept {
    context_slots* prev = detail::t_context_slots;
    detail::t_context_slots = s;
    return prev;
}

/// A pointer or other word-sized trivially copyable value per execution
/// context; reads T{} until the context sets it. Give instances static
/// storage duration: each holds one slot for the life of the program.
template <typename T>
class context_local {
    static_assert(std::is_trivially_copyable_v<T> &&
                  sizeof(T) <= sizeof(std::uintptr_t));

public:
    context_local() : index_(detail::allocate_context_slot()) {}
    context_local(const context_local&) = delete;
    context_local& operator=(const context_local&) = delete;

    [[nodiscard]] T get() const noexcept {
        T v;
        std::memcpy(&v, &detail::current_context_slots().values[index_],
                    sizeof(T));
        return v;
    }
    void set(T v) const noexcept {
        std::memcpy(&detail::current_context_slots().values[index_], &v,
                    sizeof(T));
    }

private:
    std::size_t index_;
};

} // namespace aurora
