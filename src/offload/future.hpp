// future<T> — lazy synchronisation with an asynchronous offload (Table II).
//
// Provides non-blocking test() and blocking get(). Futures are produced by
// offload::async() (remote results, collected through the runtime) and by
// data-transfer operations (immediately-ready futures).
#pragma once

#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "offload/protocol.hpp"
#include "offload/types.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"

namespace ham::offload {

namespace detail {

/// Implemented by the runtime: per-slot result collection.
class result_source {
public:
    virtual ~result_source() = default;
    /// Non-blocking: true when the result for `ticket` arrived; fills `out`
    /// with [result_header][payload].
    virtual bool try_collect(node_t node, std::uint64_t ticket, std::uint32_t slot,
                             std::vector<std::byte>& out) = 0;
    /// Blocking variant: poll until the result arrives or virtual time reaches
    /// `deadline_ns`; false on timeout (the request stays outstanding).
    virtual bool wait_collect_until(node_t node, std::uint64_t ticket,
                                    std::uint32_t slot, std::vector<std::byte>& out,
                                    sim::time_ns deadline_ns) = 0;
};

/// Deadline of a wait that only the result (or a target failure) ends.
inline constexpr sim::time_ns no_deadline =
    std::numeric_limits<sim::time_ns>::max();

} // namespace detail

/// Thrown by future<T>::get() when the offloaded code raised an exception on
/// the target.
class offload_error : public std::runtime_error {
public:
    explicit offload_error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when the target that holds (or would run) the offload transitioned
/// to target_health::failed — it died, its backend never attached, or it
/// exhausted the retry budget. The scheduler catches this to re-route work.
class target_failed_error : public offload_error {
public:
    using offload_error::offload_error;
};

/// target_failed_error for a backend that could not be constructed (e.g.
/// veo_proc_create returned null or the application library failed to load).
class target_attach_error : public target_failed_error {
public:
    using target_failed_error::target_failed_error;
};

/// Thrown when the control plane rejects new work instead of queueing it —
/// a tenant exceeded its quota, the shared queues are saturated, or a
/// circuit breaker is shedding for a struggling target (aurora::admit), or
/// the scheduler's bounded queues are full in shed mode (aurora::sched).
/// The work was NOT accepted; retry_after_ns() is a virtual-time hint for
/// when resubmission is likely to be admitted.
class admission_error : public offload_error {
public:
    admission_error(const std::string& what, std::int64_t retry_after_ns)
        : offload_error(what), retry_after_ns_(retry_after_ns) {}

    [[nodiscard]] std::int64_t retry_after_ns() const noexcept {
        return retry_after_ns_;
    }

private:
    std::int64_t retry_after_ns_;
};

/// Thrown when a request's deadline expired: either the work was cancelled
/// before dispatch (settled with protocol::status::deadline_exceeded — it
/// never executed), or a bounded wait (future::get_until) timed out before
/// the result landed (the request itself stays outstanding).
class deadline_exceeded_error : public offload_error {
public:
    using offload_error::offload_error;
};

template <typename T>
class future {
    static_assert(std::is_void_v<T> || std::is_trivially_copyable_v<T>,
                  "offload results travel as raw bytes");

    struct empty {};
    using storage = std::conditional_t<std::is_void_v<T>, empty, T>;

    struct state {
        detail::result_source* src = nullptr;
        node_t node = 0;
        std::uint64_t ticket = 0;
        std::uint32_t slot = 0;
        bool ready = false;
        bool failed = false;
        std::uint64_t status = 0; ///< result_header status of a failed result
        std::string error_text;
        storage value{};
    };

public:
    future() = default;

    /// A future waiting on a remote result.
    static future remote(detail::result_source& src, node_t node,
                         std::uint64_t ticket, std::uint32_t slot) {
        future f;
        f.s_ = std::make_shared<state>();
        f.s_->src = &src;
        f.s_->node = node;
        f.s_->ticket = ticket;
        f.s_->slot = slot;
        return f;
    }

    /// An already-satisfied future (e.g. a completed synchronous transfer).
    template <typename U = T>
    static future ready(U&& value)
        requires(!std::is_void_v<T>)
    {
        future f;
        f.s_ = std::make_shared<state>();
        f.s_->ready = true;
        f.s_->value = std::forward<U>(value);
        return f;
    }
    static future ready()
        requires(std::is_void_v<T>)
    {
        future f;
        f.s_ = std::make_shared<state>();
        f.s_->ready = true;
        return f;
    }

    [[nodiscard]] bool valid() const noexcept { return s_ != nullptr; }

    /// Non-blocking readiness probe.
    [[nodiscard]] bool test() {
        AURORA_CHECK_MSG(valid(), "test() on an invalid future");
        if (s_->ready) {
            return true;
        }
        std::vector<std::byte> bytes;
        if (!s_->src->try_collect(s_->node, s_->ticket, s_->slot, bytes)) {
            return false;
        }
        absorb(bytes);
        return true;
    }

    /// Bounded readiness wait on *virtual* time: poll until the result lands
    /// or sim::now() reaches `deadline_ns`. True when the future became ready.
    bool wait_until(sim::time_ns deadline_ns) {
        AURORA_CHECK_MSG(valid(), "wait_until() on an invalid future");
        if (s_->ready) {
            return true;
        }
        std::vector<std::byte> bytes;
        if (!s_->src->wait_collect_until(s_->node, s_->ticket, s_->slot, bytes,
                                         deadline_ns)) {
            return false;
        }
        absorb(bytes);
        return true;
    }

    /// wait_until() relative to the current virtual time.
    bool wait_for(sim::duration_ns timeout_ns) {
        return wait_until(sim::now() + timeout_ns);
    }

    /// Blocking accessor; rethrows target-side failures as offload_error
    /// (target_failed_error when the target itself was declared failed).
    T get() {
        AURORA_CHECK_MSG(valid(), "get() on an invalid future");
        if (!s_->ready) {
            std::vector<std::byte> bytes;
            s_->src->wait_collect_until(s_->node, s_->ticket, s_->slot, bytes,
                                        detail::no_deadline);
            absorb(bytes);
        }
        if (s_->failed) {
            if (s_->status == protocol::status::target_failed) {
                std::string what =
                    "offload target node " + std::to_string(s_->node) + " failed";
                if (!s_->error_text.empty()) {
                    what += ": " + s_->error_text;
                }
                throw target_failed_error(what);
            }
            if (s_->status == protocol::status::deadline_exceeded) {
                std::string what = "offload request to node " +
                                   std::to_string(s_->node) +
                                   " cancelled: deadline exceeded before dispatch";
                if (!s_->error_text.empty()) {
                    what += ": " + s_->error_text;
                }
                throw deadline_exceeded_error(what);
            }
            std::string what = "offloaded function raised an exception on node " +
                               std::to_string(s_->node);
            if (!s_->error_text.empty()) {
                what += ": " + s_->error_text;
            }
            throw offload_error(what);
        }
        if constexpr (!std::is_void_v<T>) {
            return s_->value;
        }
    }

    /// Deadline-bounded get(): wait until virtual time `deadline_ns`, then
    /// give up with deadline_exceeded_error. On timeout the request itself
    /// stays outstanding — a later get()/test() can still collect it.
    T get_until(sim::time_ns deadline_ns) {
        AURORA_CHECK_MSG(valid(), "get_until() on an invalid future");
        if (!wait_until(deadline_ns)) {
            throw deadline_exceeded_error(
                "offload result from node " + std::to_string(s_->node) +
                " not ready by its deadline (request still outstanding)");
        }
        return get();
    }

private:
    void absorb(const std::vector<std::byte>& bytes) {
        AURORA_CHECK(bytes.size() >= sizeof(protocol::result_header));
        protocol::result_header h;
        std::memcpy(&h, bytes.data(), sizeof(h));
        s_->failed = h.status != protocol::status::ok;
        s_->status = h.status;
        if (s_->failed && bytes.size() > sizeof(h)) {
            // Failed results carry the target exception's what() text.
            s_->error_text.assign(
                reinterpret_cast<const char*>(bytes.data() + sizeof(h)),
                bytes.size() - sizeof(h));
        }
        if constexpr (!std::is_void_v<T>) {
            if (!s_->failed) {
                AURORA_CHECK_MSG(bytes.size() >= sizeof(h) + sizeof(T),
                                 "offload result smaller than the expected type");
                std::memcpy(&s_->value, bytes.data() + sizeof(h), sizeof(T));
            }
        }
        s_->ready = true;
    }

    std::shared_ptr<state> s_;
};

} // namespace ham::offload
