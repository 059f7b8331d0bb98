// poll_plan — one pass of a host poll loop, as sim::poll runs it.
//
// sim::poll parks a loop whose pass is a fixed list of advance() steps. The
// host's multi-word loops (the executor's idle pass, a gateway's loop, a
// result or slot wait) fit that shape once they describe their next pass as
// the state stands after a pass that found nothing: each advance() the pass
// would make is a step, and between two steps sit the checks the pass makes
// there, each reduced to the virtual time from which it would act. The loop
// parks; the engine skips the passes whose checks find nothing and resumes
// the loop right after the step whose checks act, at the virtual time and tie
// order the hand-written loop would have reached. `tag` tells the loop which
// step that was, so it runs the rest of that pass for real.
//
// Checks come in two kinds. wake_at() is fixed while the loop is parked: it
// depends only on the parked process's own state and on time (a deadline, a
// backoff, a reply window). wake_live() is asked again whenever another
// process stopped running: it reads state that process may have changed (a
// result flag, a link's queue, another runtime's health). Either may answer
// too early: the loop's real checks then find nothing and it parks again.
// Checks before the pass's first step run at the start of every pass, so they
// count after its last step; park() evaluates them once itself first.
//
// Whatever a skipped pass would have done besides looking (count a probe,
// count a refused send) is booked through on_skip().
#pragma once

#include <cstdint>
#include <vector>

#include "offload/types.hpp"
#include "sim/engine.hpp"

namespace ham::offload {

class poll_plan {
public:
    /// A check another process can move: fn(ctx, arg) is its wake time, free
    /// of side effects like sim::poll's due.
    using live_fn = sim::time_ns (*)(const void* ctx, std::uint64_t arg);
    /// Books `n` skipped passes' worth of a side effect: fn(ctx, arg, n).
    using skip_fn = void (*)(void* ctx, std::uint64_t arg, std::uint64_t n);

    /// Start describing a new pass (keeps the storage).
    void clear() {
        ns_.clear();
        steps_.clear();
        live_.clear();
        skips_.clear();
        head_at_ = sim::never;
    }
    /// The pass's next advance(ns); the loop resumes after it under `tag`.
    void step(sim::duration_ns ns, std::uint32_t tag) {
        ns_.push_back(ns);
        steps_.push_back({tag, sim::never, static_cast<std::uint32_t>(live_.size()),
                          static_cast<std::uint32_t>(skips_.size()), 0});
    }
    /// A check at this point of the pass that acts from virtual time `t` on.
    void wake_at(sim::time_ns t) {
        sim::time_ns& at = steps_.empty() ? head_at_ : steps_.back().at;
        at = t < at ? t : at;
    }
    /// A check at this point whose wake time other processes may move.
    void wake_live(live_fn fn, const void* ctx, std::uint64_t arg = 0) {
        // Consecutive checks of one word at one point of the pass (say, the
        // flights of several engines behind one link) need asking only once.
        const std::uint32_t here = steps_.empty() ? 0 : steps_.back().live;
        if (live_.size() > here && live_.back().fn == fn &&
            live_.back().ctx == ctx && live_.back().arg == arg) {
            return;
        }
        live_.push_back({fn, ctx, arg});
    }
    /// A side effect of every pass at this point, for the passes skipped.
    void on_skip(skip_fn fn, void* ctx, std::uint64_t arg = 0) {
        skips_.push_back({fn, ctx, arg});
    }

    /// Run the described pass over and over, parked (sim::poll), until a
    /// check acts; book what the skipped passes did; set `tag` to the step
    /// the loop resumes after. False, without parking, when the checks before
    /// the first step act now or the pass takes no time: the caller then runs
    /// the pass itself.
    bool park(std::uint32_t& tag);

private:
    struct step_rec {
        std::uint32_t tag = 0;
        sim::time_ns at = sim::never; ///< earliest wake_at() after the step
        std::uint32_t live = 0;       ///< first live_ entry after the step
        std::uint32_t skip = 0;       ///< first skips_ entry after the step
        std::uint32_t live_end = 0;   ///< set by park()
    };
    struct live_rec {
        live_fn fn;
        const void* ctx;
        std::uint64_t arg;
    };
    struct skip_rec {
        skip_fn fn;
        void* ctx;
        std::uint64_t arg;
    };

    /// When the checks in live_[begin, end) act, no earlier than `at`.
    [[nodiscard]] sim::time_ns earliest(sim::time_ns at, std::uint32_t begin,
                                        std::uint32_t end) const {
        for (std::uint32_t i = begin; i < end; ++i) {
            const sim::time_ns t = live_[i].fn(live_[i].ctx, live_[i].arg);
            at = t < at ? t : at;
        }
        return at;
    }
    [[nodiscard]] std::uint32_t skip_end(std::size_t k) const;
    void book(std::uint32_t begin, std::uint32_t end, std::uint64_t n);

    std::vector<sim::duration_ns> ns_; ///< the steps, as sim::poll takes them
    std::vector<step_rec> steps_;
    std::vector<live_rec> live_;
    std::vector<skip_rec> skips_;
    sim::time_ns head_at_ = sim::never; ///< wake_at() before the first step
};

} // namespace ham::offload
