#include "sim/pass.hpp"

#include <memory>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/context_local.hpp"

namespace aurora::sim {

namespace detail {

/// One pass of a loop as it ran: its steps and, after each, the checks and
/// tallies up to the next step. Checks and tallies before the first step
/// are the pass's head.
struct pass_record {
    struct check {
        live_fn fn;
        const void* ctx;
        std::uint64_t arg;
    };
    struct booking {
        tally_fn fn;
        void* ctx;
        std::uint64_t arg;
    };
    /// What follows a step: the earliest at() up to the next step, and
    /// where its live checks and tallies begin.
    struct after_step {
        time_ns at;
        std::uint32_t live;
        std::uint32_t tally;
    };

    const char* name = "";
    std::vector<duration_ns> ns;  ///< the steps, as sim::poll takes them
    std::vector<after_step> after;
    time_ns head_at = never;
    std::vector<check> live;
    std::vector<booking> tallies;
    duration_ns sum = 0;  ///< of the steps
    time_ns start = 0;    ///< virtual time the pass began
    /// A check answered yes or a loop opened inside: not a pass to park on.
    bool acted = false;
    std::size_t woke = 0;      ///< park(): steps the next pass replays
    std::size_t replay_to = 0; ///< steps the running pass replays...
    std::size_t replayed = 0;  ///< ...and has replayed so far

    [[nodiscard]] bool replaying() const noexcept { return replayed < replay_to; }

    void clear() noexcept {
        ns.clear();
        after.clear();
        live.clear();
        tallies.clear();
        head_at = never;
        sum = 0;
    }

    /// Where the live checks after the last step so far begin.
    [[nodiscard]] std::uint32_t live_here() const noexcept {
        return after.empty() ? 0 : after.back().live;
    }

    /// The earliest of `t` and the live checks [begin, end).
    [[nodiscard]] time_ns earliest(time_ns t, std::size_t begin,
                                   std::size_t end) const {
        for (std::size_t i = begin; i < end; ++i) {
            const time_ns c = live[i].fn(live[i].ctx, live[i].arg);
            t = c < t ? c : t;
        }
        return t;
    }

    /// Book `n` passes of the tallies [begin, end).
    void book(std::size_t begin, std::size_t end, std::uint64_t n) const {
        for (std::size_t i = begin; n > 0 && i < end; ++i) {
            tallies[i].fn(tallies[i].ctx, tallies[i].arg, n);
        }
    }
};

} // namespace detail

namespace {

using detail::pass_record;

/// The running process's innermost open loop.
const aurora::context_local<pass_record*> innermost;

/// Records of closed loops, kept for the next loop this thread opens.
thread_local std::vector<std::unique_ptr<pass_record>> spare_records;

/// step() in the pass `r` records.
void step_in(pass_record* r, duration_ns ns) {
    if (r->replaying()) {
        AURORA_CHECK_MSG(r->ns[r->replayed] == ns,
                         r->name << ": replayed step " << r->replayed << " takes "
                                 << ns << " ns, its record "
                                 << r->ns[r->replayed]);
        if (++r->replayed == r->replay_to) {
            // Woken after this step: from here on the pass runs live and
            // records what follows anew.
            r->ns.resize(r->replay_to);
            r->after.resize(r->replay_to);
            pass_record::after_step& a = r->after.back();
            a.at = never;
            r->live.resize(a.live);
            r->tallies.resize(a.tally);
        }
        return;
    }
    r->ns.push_back(ns);
    r->after.push_back({never, static_cast<std::uint32_t>(r->live.size()),
                        static_cast<std::uint32_t>(r->tallies.size())});
    r->sum += ns;
    advance(ns);
}

/// May the loop park on the pass recorded so far? Not when a check answered
/// yes, nor when virtual time passed outside its steps (an advance that is
/// not a step, a block).
bool parkable(const pass_record& r) {
#if defined(AURORA_SIM_LITERAL_POLL)
    static_cast<void>(r);
    return false; // every pass runs for real
#else
    return !r.acted && now() - r.start == r.sum;
#endif
}

} // namespace

namespace pass {

void step(duration_ns ns) {
    pass_record* r = innermost.get();
    if (r == nullptr) {
        advance(ns);
        return;
    }
    step_in(r, ns);
}

bool at(time_ns t) {
    pass_record* r = innermost.get();
    if (r == nullptr) {
        return t <= now();
    }
    if (r->replaying()) {
        return false;
    }
    if (t <= now()) {
        r->acted = true;
        return true;
    }
    time_ns& rec = r->after.empty() ? r->head_at : r->after.back().at;
    rec = t < rec ? t : rec;
    return false;
}

bool live(live_fn fn, const void* ctx, std::uint64_t arg) {
    pass_record* r = innermost.get();
    if (r == nullptr) {
        return fn(ctx, arg) <= now();
    }
    if (r->replaying()) {
        return false;
    }
    if (fn(ctx, arg) <= now()) {
        r->acted = true;
        return true;
    }
    // Consecutive checks of one word at one point of the pass need asking
    // only once.
    if (r->live.size() <= r->live_here() || r->live.back().fn != fn ||
        r->live.back().ctx != ctx || r->live.back().arg != arg) {
        r->live.push_back({fn, ctx, arg});
    }
    return false;
}

void tally(tally_fn fn, void* ctx, std::uint64_t arg) {
    pass_record* r = innermost.get();
    if (r != nullptr && r->replaying()) {
        return; // booked in bulk when the loop woke
    }
    fn(ctx, arg, 1);
    if (r != nullptr) {
        r->tallies.push_back({fn, ctx, arg});
    }
}

} // namespace pass

pass_loop::pass_loop(const char* name) : outer_(innermost.get()) {
    if (spare_records.empty()) {
        rec_ = new pass_record;
    } else {
        rec_ = spare_records.back().release();
        spare_records.pop_back();
    }
    rec_->name = name;
    rec_->woke = 0;
    rec_->replay_to = 0;
    rec_->replayed = 0;
    if (outer_ != nullptr) {
        AURORA_CHECK_MSG(!outer_->replaying(),
                         outer_->name << ": a loop opened inside its replay");
        outer_->acted = true; // the outer pass made progress
    }
    innermost.set(rec_);
    begin();
}

pass_loop::~pass_loop() {
    innermost.set(outer_);
    spare_records.emplace_back(rec_);
}

void pass_loop::begin() {
    pass_record& r = *rec_;
    AURORA_CHECK_MSG(!r.replaying(), r.name << ": the pass ended at replayed step "
                                            << r.replayed << " of the "
                                            << r.replay_to << " it woke after");
    r.acted = false;
    if (r.woke == 0) {
        r.clear();
        r.replay_to = 0;
        r.replayed = 0;
        r.start = now();
        return;
    }
    r.replay_to = r.woke;
    r.replayed = 0;
    r.woke = 0;
    r.sum = 0;
    for (std::size_t k = 0; k < r.replay_to; ++k) {
        r.sum += r.ns[k];
    }
    r.start = now() - r.sum; // the engine already ran the replayed steps
}

bool pass_loop::park(duration_ns pause) {
    pass_record& r = *rec_;
    // Park from the pause, the pass's last step, run parked; or, without
    // one, from the next pass's first step.
    bool from_pause = false;
    if (pause > 0) {
        if (r.replaying() || !parkable(r)) {
            step_in(&r, pause); // replays it, or runs it live
        } else {
            r.ns.push_back(pause);
            r.after.push_back({never, static_cast<std::uint32_t>(r.live.size()),
                               static_cast<std::uint32_t>(r.tallies.size())});
            r.sum += pause;
            from_pause = true;
        }
    }
    AURORA_CHECK_MSG(!r.replaying(), r.name << ": the pass ended at replayed step "
                                            << r.replayed << " of the "
                                            << r.replay_to << " it woke after");
    const std::size_t n = r.ns.size();
    const std::uint32_t head_live = n == 0 ? 0 : r.after.front().live;
    if (!from_pause && (r.sum == 0 || !parkable(r) ||
                        r.earliest(r.head_at, 0, head_live) <= now())) {
        return false; // the next pass runs live
    }
    const poll_result woke =
        poll(std::span<const duration_ns>(r.ns), from_pause ? n - 1 : 0,
             [&r, n, head_live](std::size_t k) {
            const pass_record::after_step& a = r.after[k];
            if (k + 1 < n) {
                return r.earliest(a.at, a.live, r.after[k + 1].live);
            }
            // The checks before the first step run again after the last.
            const time_ns head = r.earliest(r.head_at, 0, head_live);
            const time_ns tail = r.earliest(a.at, a.live, r.live.size());
            return head < tail ? head : tail;
        });
    // The head's tallies ran after every skipped last step, and once more
    // before the first parked step when that is the next pass's first.
    r.book(0, r.after.front().tally, woke.skipped(n - 1) + (from_pause ? 0 : 1));
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t end = k + 1 < n ? r.after[k + 1].tally : r.tallies.size();
        r.book(r.after[k].tally, end, woke.skipped(k));
    }
    r.woke = woke.step + 1;
    return true;
}

} // namespace aurora::sim
