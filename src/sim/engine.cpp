#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>

#include "sim/fiber.hpp"
#include "util/check.hpp"

namespace aurora::sim {

namespace {
thread_local process* tl_current = nullptr;

const char* state_name(int s) {
    switch (s) {
        case 0: return "ready";
        case 1: return "running";
        case 2: return "blocked";
        case 3: return "finished";
        default: return "?";
    }
}
} // namespace

// --- process ----------------------------------------------------------------

process::process(simulation& sim, std::uint32_t id, std::string name, body_fn body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)) {}

process::~process() = default;

void process::fiber_main() {
    detail::fiber::started();
    process& me = *tl_current;
    me.sim_.resumed();
    std::exception_ptr err;
    try {
        me.st_ = state::running;
        me.now_ = me.wake_;
        me.body_();
    } catch (const simulation_aborted&) {
        // Orderly unwind after abort; nothing to record.
    } catch (...) {
        err = std::current_exception();
    }
    me.sim_.finish(me, std::move(err));
}

// --- simulation -------------------------------------------------------------

simulation::simulation() = default;

// Every started process has finished by the time run() returns, so only
// never-started processes remain; they own no stack and are simply dropped.
simulation::~simulation() = default;

process& simulation::spawn(std::string name, process::body_fn body) {
    AURORA_CHECK_MSG(!done_ && !aborted_, "spawn on a finished simulation");
    const auto id = static_cast<std::uint32_t>(processes_.size());
    time_ns start = 0;
    if (started_) {
        AURORA_CHECK_MSG(tl_current != nullptr && running_proc_ == tl_current,
                         "spawn during run() must come from the running process");
        start = tl_current->now_;
    }
    // Constructor is private; cannot use make_unique.
    auto owned = std::unique_ptr<process>(new process(*this, id, std::move(name),
                                                      std::move(body)));
    process& p = *owned;
    processes_.push_back(std::move(owned));
    make_ready(p, start);
    ++stats_.processes_spawned;
    return p;
}

void simulation::run() {
    AURORA_CHECK_MSG(!started_, "simulation::run() may only be called once");
    started_ = true;
    main_fiber_ = std::make_unique<detail::fiber>();

    process* first = pick_next(nullptr);
    if (first == nullptr && aborted_) {
        first = next_to_unwind();
    }
    if (first != nullptr) {
        switch_to(nullptr, first);
        resumed();
    }
    AURORA_ASSERT(done_);
    main_fiber_.reset();
    if (error_ != nullptr) {
        std::rethrow_exception(error_);
    }
}

void simulation::make_ready(process& p, time_ns wake) {
    if (p.st_ == process::state::finished) {
        return; // e.g. a join waiter unwound by an abort before its wake-up
    }
    p.st_ = process::state::ready;
    p.wake_ = wake;
    p.ready_seq_ = ++ready_seq_counter_;
}

process* simulation::pick_next(process* leaving) {
    process* best = nullptr;
    for (auto& p : processes_) {
        if (p->st_ != process::state::ready) {
            continue;
        }
        if (best == nullptr || p->wake_ < best->wake_ ||
            (p->wake_ == best->wake_ && p->ready_seq_ < best->ready_seq_)) {
            best = p.get();
        }
    }
    if (best != nullptr) {
        if (deadline_ != 0 && best->wake_ > deadline_) {
            abort(std::make_exception_ptr(simulation_error(
                "virtual deadline of " + std::to_string(deadline_) +
                " ns exceeded (next wake-up at " + std::to_string(best->wake_) +
                " ns in '" + best->name_ + "')")));
            return nullptr;
        }
        if (best != leaving) {
            ++stats_.context_switches;
        }
        running_proc_ = best;
        clock_ = std::max(clock_, best->wake_);
        return best;
    }

    running_proc_ = nullptr;
    const bool all_finished =
        std::all_of(processes_.begin(), processes_.end(), [](const auto& p) {
            return p->st_ == process::state::finished;
        });
    if (all_finished) {
        done_ = true;
        return nullptr;
    }
    abort(std::make_exception_ptr(simulation_error(deadlock_report())));
    return nullptr;
}

process* simulation::next_to_unwind() {
    for (auto& p : processes_) {
        if (p->fiber_ != nullptr && p->st_ != process::state::finished) {
            running_proc_ = p.get();
            return p.get();
        }
    }
    // Whatever never started never runs its body.
    for (auto& p : processes_) {
        p->st_ = process::state::finished;
    }
    running_proc_ = nullptr;
    done_ = true;
    return nullptr;
}

void simulation::abort(std::exception_ptr error) {
    if (error_ == nullptr) {
        error_ = std::move(error);
    }
    aborted_ = true;
}

void simulation::suspend(process& me) {
    process* next = pick_next(&me);
    if (aborted_) {
        throw simulation_aborted{}; // `me` unwinds first, then the others
    }
    if (next != &me) {
        switch_to(&me, next);
        resumed();
        if (aborted_) {
            throw simulation_aborted{};
        }
    }
    me.st_ = process::state::running;
    me.now_ = me.wake_;
}

void simulation::block_current(process& me) {
    if (aborted_) {
        throw simulation_aborted{};
    }
    AURORA_ASSERT(running_proc_ == &me);
    me.st_ = process::state::blocked;
    suspend(me);
}

void simulation::reschedule_current(process& me, duration_ns d) {
    if (aborted_) {
        throw simulation_aborted{};
    }
    AURORA_ASSERT(running_proc_ == &me);
    make_ready(me, me.now_ + d);
    suspend(me);
}

void simulation::finish(process& me, std::exception_ptr error) {
    if (error != nullptr) {
        abort(std::move(error));
    }
    me.st_ = process::state::finished;
    for (process* w : me.join_waiters_) {
        make_ready(*w, std::max(w->now_, me.now_));
    }
    me.join_waiters_.clear();
    process* next = aborted_ ? nullptr : pick_next(&me);
    if (aborted_) {
        next = next_to_unwind();
    }
    exited_ = &me;
    switch_to(&me, next, /*from_exits=*/true);
    unreachable("a finished process was resumed");
}

void simulation::switch_to(process* from, process* to, bool from_exits) {
    if (to != nullptr && to->fiber_ == nullptr) {
        to->fiber_ = std::make_unique<detail::fiber>(&process::fiber_main);
    }
    detail::fiber& src = from != nullptr ? *from->fiber_ : *main_fiber_;
    detail::fiber& dst = to != nullptr ? *to->fiber_ : *main_fiber_;
    context_slots* const left =
        install_context_slots(to != nullptr ? &to->slots_ : outer_slots_);
    if (from == nullptr) {
        // Leaving run(): remember what to reinstall when coming back.
        outer_slots_ = left;
        outer_current_ = tl_current;
    }
    tl_current = to != nullptr ? to : outer_current_;
    detail::fiber::switch_to(src, dst, from_exits);
}

void simulation::resumed() {
    if (exited_ != nullptr) {
        exited_->fiber_.reset();
        exited_ = nullptr;
    }
}

std::string simulation::deadlock_report() const {
    std::ostringstream os;
    os << "simulation deadlock: no runnable process at t=" << clock_ << " ns;";
    for (const auto& p : processes_) {
        os << " [" << p->id_ << ':' << p->name_ << ' '
           << state_name(static_cast<int>(p->st_)) << " t=" << p->now_ << ']';
    }
    return os.str();
}

// --- context functions ------------------------------------------------------

bool in_simulation() noexcept {
    return tl_current != nullptr;
}

process& self() {
    AURORA_CHECK_MSG(tl_current != nullptr,
                     "sim context function called outside a simulated process");
    return *tl_current;
}

time_ns now() {
    return self().now();
}

void advance(duration_ns d) {
    AURORA_CHECK_MSG(d >= 0, "advance duration must be non-negative, got " << d);
    process& me = self();
    me.sim_.reschedule_current(me, d);
}

void sleep_until(time_ns t) {
    const time_ns cur = now();
    advance(t > cur ? t - cur : 0);
}

void join(process& p) {
    process& me = self();
    AURORA_CHECK_MSG(&p != &me, "a process cannot join itself");
    if (p.st_ == process::state::finished) {
        return;
    }
    p.join_waiters_.push_back(&me);
    me.sim_.block_current(me);
}

} // namespace aurora::sim
