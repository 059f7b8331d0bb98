#include "sim/event.hpp"

#include <algorithm>

namespace aurora::sim {

void event::set() {
    process& me = self();
    AURORA_CHECK(&me.sim_ == &sim_);
    if (set_) {
        return;
    }
    set_ = true;
    set_time_ = me.now_;
    ++sim_.stats_.events_notified;
    for (process* w : waiters_) {
        sim_.make_ready(*w, std::max(w->now_, me.now_));
    }
    waiters_.clear();
}

void event::wait() {
    process& me = self();
    AURORA_CHECK(&me.sim_ == &sim_);
    if (set_) {
        me.now_ = std::max(me.now_, set_time_);
        return;
    }
    waiters_.push_back(&me);
    sim_.block_current(me);
}

void condition::notify_all() {
    process& me = self();
    AURORA_CHECK(&me.sim_ == &sim_);
    ++sim_.stats_.events_notified;
    for (process* w : waiters_) {
        sim_.make_ready(*w, std::max(w->now_, me.now_));
    }
    waiters_.clear();
}

void condition::wait_notification() {
    process& me = self();
    AURORA_CHECK(&me.sim_ == &sim_);
    waiters_.push_back(&me);
    sim_.block_current(me);
}

} // namespace aurora::sim
