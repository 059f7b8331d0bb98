#include "offload/poll_plan.hpp"

namespace ham::offload {

std::uint32_t poll_plan::skip_end(std::size_t k) const {
    return k + 1 < steps_.size() ? steps_[k + 1].skip
                                 : static_cast<std::uint32_t>(skips_.size());
}

void poll_plan::book(std::uint32_t begin, std::uint32_t end, std::uint64_t n) {
    for (std::uint32_t i = begin; n > 0 && i < end; ++i) {
        skips_[i].fn(skips_[i].ctx, skips_[i].arg, n);
    }
}

bool poll_plan::park(std::uint32_t& tag) {
    sim::duration_ns cycle = 0;
    for (const sim::duration_ns ns : ns_) {
        cycle += ns;
    }
    const std::uint32_t head_live = steps_.empty() ? 0 : steps_.front().live;
    if (cycle == 0 || earliest(head_at_, 0, head_live) <= sim::now()) {
        return false;
    }
    // Each step's checks in one range of live_; the checks before the first
    // step run again after the last one, so they join its range.
    for (std::size_t k = 0; k + 1 < steps_.size(); ++k) {
        steps_[k].live_end = steps_[k + 1].live;
    }
    step_rec& last = steps_.back();
    for (std::uint32_t i = 0; i < head_live; ++i) {
        const live_rec copy = live_[i];
        live_.push_back(copy);
    }
    last.live_end = static_cast<std::uint32_t>(live_.size());
    last.at = head_at_ < last.at ? head_at_ : last.at;
    const sim::poll_result woke = sim::poll(ns_, 0, [this](std::size_t k) {
        const step_rec& s = steps_[k];
        return earliest(s.at, s.live, s.live_end);
    });
    // The checks before the first step ran once before the first parked
    // pass (found nothing) and again after every skipped last step.
    const std::size_t n = steps_.size();
    if (steps_.front().skip != 0) {
        book(0, steps_.front().skip, woke.skipped(n - 1) + 1);
    }
    for (std::size_t k = 0; k < n; ++k) {
        if (steps_[k].skip != skip_end(k)) {
            book(steps_[k].skip, skip_end(k), woke.skipped(k));
        }
    }
    tag = steps_[woke.step].tag;
    return true;
}

} // namespace ham::offload
