#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
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
        case 3: return "parked";
        case 4: return "finished";
        default: return "?";
    }
}

// --- arithmetic over the passes of a parked loop ------------------------------
// Pass k of a parked loop q is its k-th advance() from now on: pass 0 is keyed
// (q.wake, q.seq) and ends step q.at; pass k ends step (q.at + k) % n. Every
// pass after pass 0 would get a fresh ready order from the pass before it.

using detail::parked_poll;

constexpr std::uint64_t no_pass = std::numeric_limits<std::uint64_t>::max();

/// Time from pass 0 to pass r (r < n): the sum of steps q.at + 1 .. q.at + r,
/// which wraps past the last step at most once.
duration_ns offset(const parked_poll& q, std::size_t r) {
    const std::size_t n = q.steps.size();
    const std::size_t from = q.at + 1; // <= n
    const std::size_t to = from + r;
    return to <= n ? q.prefix[to] - q.prefix[from]
                   : q.cycle - q.prefix[from] + q.prefix[to - n];
}

time_ns pass_time(const parked_poll& q, std::uint64_t k) {
    const std::size_t n = q.steps.size();
    return q.wake + time_ns(k / n) * q.cycle + offset(q, k % n);
}

/// The first pass that ends step `b` at or after time `t`.
std::uint64_t first_pass(const parked_poll& q, std::size_t b, time_ns t) {
    const std::size_t n = q.steps.size();
    const std::size_t r = (b + n - q.at) % n;
    const time_ns at = q.wake + offset(q, r);
    if (t <= at) {
        return r;
    }
    const auto gap = static_cast<std::uint64_t>(t - at);
    const std::uint64_t cycles = gap / std::uint64_t(q.cycle) +
                                 (gap % std::uint64_t(q.cycle) != 0 ? 1 : 0);
    if (cycles >= (no_pass - r) / n) {
        return no_pass;
    }
    return r + cycles * n;
}

/// How many passes come before time `t`.
std::uint64_t passes_before(const parked_poll& q, time_ns t) {
    std::uint64_t count = 0;
    for (std::size_t r = 0; r < q.steps.size(); ++r) {
        const time_ns at = q.wake + offset(q, r);
        if (t > at) {
            const auto gap = static_cast<std::uint64_t>(t - at);
            count += gap / std::uint64_t(q.cycle) +
                     (gap % std::uint64_t(q.cycle) != 0 ? 1 : 0);
        }
    }
    return count;
}

/// Does pass `ka` of loop `a` run before pass `kb` of loop `b`? At equal
/// times the lower ready order runs first, and a pass's ready order comes
/// from the pass before it, so walk back until the two differ.
bool runs_before(const parked_poll& a, std::uint64_t ka, const parked_poll& b,
                 std::uint64_t kb) {
    if (&a == &b) {
        return ka < kb;
    }
    time_ns ta = pass_time(a, ka);
    time_ns tb = pass_time(b, kb);
    if (ta != tb) {
        return ta < tb; // decided by time: no step index needed
    }
    // Equal steps for a whole joint cycle: the loops move in lockstep, so
    // the one that reaches its pass 0 first going back ran first.
    const std::size_t na = a.steps.size();
    const std::size_t nb = b.steps.size();
    const std::uint64_t lockstep = std::uint64_t(na) * nb;
    // The steps that passes ka and kb end.
    std::size_t sa = (a.at + ka) % na;
    std::size_t sb = (b.at + kb) % nb;
    for (std::uint64_t back = 0;; ++back) {
        if (ta != tb) {
            return ta < tb;
        }
        if (ka == 0 && kb == 0) {
            return a.seq < b.seq;
        }
        if (ka == 0 || kb == 0) {
            return ka == 0; // a ready order from before these passes
        }
        if (back > lockstep) {
            return ka != kb ? ka < kb : a.seq < b.seq;
        }
        ta -= a.steps[sa];
        tb -= b.steps[sb];
        sa = (sa == 0 ? na : sa) - 1;
        sb = (sb == 0 ? nb : sb) - 1;
        --ka;
        --kb;
    }
}

/// Does pass `k` of loop `q` run before a ready process keyed (wake, seq)?
bool runs_before(const parked_poll& q, std::uint64_t k, time_ns wake,
                 std::uint64_t seq) {
    const time_ns t = pass_time(q, k);
    return t != wake ? t < wake : k == 0 && q.seq < seq;
}

/// Skip the first `n` passes of `q`.
void skip_passes(parked_poll& q, std::uint64_t n) {
    q.wake = pass_time(q, n);
    q.at = (q.at + n) % q.steps.size();
    q.passes += n;
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
    if (&p != running_proc_) {
        push_ready(p);
    }
    // The running process rescheduling itself enters the heap only if
    // pick_next() finds another process to run first.
}

void simulation::push_ready(process& p) {
    ready_.push_back(&p);
    std::push_heap(ready_.begin(), ready_.end(), [](const process* a, const process* b) {
        return runs_later(a, b);
    });
}

bool simulation::runs_later(const process* a, const process* b) noexcept {
    return a->wake_ != b->wake_ ? a->wake_ > b->wake_
                                : a->ready_seq_ > b->ready_seq_;
}

process* simulation::pick_next(process* leaving) {
    // A leaving process that is ready rescheduled itself and is not in the
    // heap yet (make_ready).
    process* const own = leaving != nullptr && leaving->st_ == process::state::ready
                             ? leaving
                             : nullptr;
    process* best = ready_.empty() ? nullptr : ready_.front();
    if (own != nullptr && (best == nullptr || runs_later(best, own))) {
        best = own;
    }
    if (!parked_.empty() &&
        (best == nullptr || parked_wake_ < best->wake_ ||
         (parked_wake_ == best->wake_ && parked_seq_ < best->ready_seq_))) {
        best = settle_parked(best);
    }
    if (own != nullptr && best != own) {
        push_ready(*own);
    }
    if (best != nullptr) {
        if (best->st_ == process::state::parked) {
            parked_.erase(std::find(parked_.begin(), parked_.end(), best));
            note_parked_keys();
        } else if (best != own) {
            std::pop_heap(ready_.begin(), ready_.end(),
                          [](const process* a, const process* b) {
                              return runs_later(a, b);
                          });
            ready_.pop_back();
        }
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

process* simulation::settle_parked(process* best) {
    // Where does each parked loop stop: at its first pass whose checks act,
    // or at its first pass past the virtual deadline? The earliest stop, or
    // `best` if that runs first, is the next segment to run.
    process* win = best;
    parked_poll* wq = nullptr;
    for (process* p : parked_) {
        parked_poll& q = *p->poll_;
        // A loop whose next pass comes after `best` neither wins nor has a
        // pass to skip: leave it alone (and its `due` uncalled) this time.
        if (best != nullptr && !runs_before(q, 0, best->wake_, best->ready_seq_)) {
            continue;
        }
        near_.push_back(&q);
        q.stop = no_pass;
        for (std::size_t k = 0; k < q.steps.size(); ++k) {
            const time_ns due = q.due(q.ctx, k);
            if (due != never) {
                q.stop = std::min(q.stop, first_pass(q, k, due));
            }
            if (deadline_ != 0) {
                q.stop = std::min(q.stop, first_pass(q, k, deadline_ + 1));
            }
        }
        if (q.stop == no_pass) {
            continue;
        }
        const bool first = win == nullptr ||
                           (wq == nullptr
                                ? runs_before(q, q.stop, win->wake_, win->ready_seq_)
                                : runs_before(q, q.stop, *wq, wq->stop));
        if (first) {
            win = p;
            wq = &q;
        }
    }
    if (win == nullptr) {
        near_.clear();
        return nullptr; // nothing can ever run: a deadlock
    }
    // Every parked pass before the winner finds nothing: skip it. The loops
    // that ran passes are re-keyed in the order of their last pass, each
    // with a ready order after everything keyed so far and before anything
    // the winner keys — just as their advance() calls would have been.
    for (parked_poll* qp : near_) {
        parked_poll& q = *qp;
        if (&q == wq) {
            continue;
        }
        if (wq == nullptr) {
            q.ran = passes_before(q, win->wake_);
            if (q.ran == 0 && runs_before(q, 0, win->wake_, win->ready_seq_)) {
                q.ran = 1;
            }
        } else {
            const time_ns t = pass_time(*wq, wq->stop);
            q.ran = passes_before(q, t);
            while (pass_time(q, q.ran) == t &&
                   runs_before(q, q.ran, *wq, wq->stop)) {
                ++q.ran;
            }
        }
        if (q.ran > 0) {
            rekey_.push_back(&q);
        }
    }
    std::sort(rekey_.begin(), rekey_.end(),
              [](const parked_poll* a, const parked_poll* b) {
                  return runs_before(*a, a->ran - 1, *b, b->ran - 1);
              });
    // The clock still reaches the skipped passes' times: it matters when
    // the winner is past the virtual deadline and never runs.
    for (parked_poll* q : rekey_) {
        clock_ = std::max(clock_, pass_time(*q, q->ran - 1));
        skip_passes(*q, q->ran);
        q->seq = ++ready_seq_counter_;
    }
    rekey_.clear();
    near_.clear();
    if (wq != nullptr) {
        if (wq->stop > 0) {
            clock_ = std::max(clock_, pass_time(*wq, wq->stop - 1));
        }
        skip_passes(*wq, wq->stop);
        win->wake_ = wq->wake;
    }
    note_parked_keys();
    return win;
}

void simulation::note_parked_keys() {
    parked_wake_ = never;
    parked_seq_ = 0;
    for (const process* p : parked_) {
        const parked_poll& q = *p->poll_;
        if (q.wake < parked_wake_ ||
            (q.wake == parked_wake_ && q.seq < parked_seq_)) {
            parked_wake_ = q.wake;
            parked_seq_ = q.seq;
        }
    }
}

void simulation::park_current(process& me, detail::parked_poll& q) {
    if (aborted_) {
        throw simulation_aborted{};
    }
    AURORA_ASSERT(running_proc_ == &me);
    q.wake = me.now_ + q.steps[q.at];
    q.seq = ++ready_seq_counter_;
    me.poll_ = &q;
    me.st_ = process::state::parked;
    parked_.push_back(&me);
    note_parked_keys();
    try {
        suspend(me);
    } catch (...) {
        me.poll_ = nullptr;
        throw;
    }
    me.poll_ = nullptr;
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
    parked_.clear(); // the parked processes unwind like the others
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
    ++stats_.resumptions;
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

namespace detail {
poll_result poll(std::span<const duration_ns> steps, std::size_t first, void* ctx,
                 due_fn due) {
    AURORA_CHECK_MSG(first < steps.size(), "poll: first step out of range");
#if defined(AURORA_SIM_LITERAL_POLL)
    // The reference the tests compare parking against: every pass runs, as
    // the loop would (the caller's checks find nothing and it polls again).
    static_cast<void>(ctx);
    static_cast<void>(due);
    advance(steps[first]);
    return {first, 0, first, steps.size()};
#else
    process& me = self();
    parked_poll q;
    q.steps = steps;
    // Prefix sums into the process's kept storage: parking allocates only
    // for a loop longer than any this process parked before.
    std::vector<duration_ns>& prefix = me.poll_prefix_;
    prefix.resize(steps.size() + 1);
    for (std::size_t i = 0; i < steps.size(); ++i) {
        AURORA_CHECK_MSG(steps[i] >= 0,
                         "poll step must be non-negative, got " << steps[i]);
        prefix[i] = q.cycle;
        q.cycle += steps[i];
    }
    prefix[steps.size()] = q.cycle;
    AURORA_CHECK_MSG(q.cycle > 0, "poll steps must not all be zero");
    q.prefix = prefix;
    q.at = first;
    q.ctx = ctx;
    q.due = due;
    me.sim_.park_current(me, q);
    return {q.at, q.passes, first, steps.size()};
#endif
}
} // namespace detail

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
