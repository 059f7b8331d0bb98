#include "net/cluster_executor.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace aurora::net {

cluster_executor::cluster_executor(cluster& c, cluster_executor_config cfg)
    : c_(c), exec_(c, cfg) {}

std::size_t cluster_executor::engine_index(int vh, int ve) const {
    for (std::size_t e = 0; e < c_.engine_count(); ++e) {
        if (c_.engine_id(e) == c_.global_id(vh, ve)) {
            return e;
        }
    }
    AURORA_CHECK_MSG(false, "no such engine");
    return 0;
}

sched::node_t cluster_executor::affinity(int vh, int ve) const {
    if (vh < 0) {
        return sched::any_node;
    }
    return ve < 0 ? sched::any_ve_of(vh) : c_.global_id(vh, ve);
}

cluster_executor::task_id
cluster_executor::submit_bytes(std::vector<std::byte> msg, int affinity_vh,
                               int affinity_ve, bool pinned) {
    AURORA_CHECK_MSG(affinity_vh >= 0 || !pinned,
                     "a pinned task needs an affinity engine");
    sched::task_options opts;
    opts.affinity = affinity(affinity_vh, affinity_ve);
    opts.pinned = pinned;
    return exec_.submit_serialized(std::move(msg), opts, nullptr, 0);
}

const cluster_executor::statistics& cluster_executor::stats() {
    const sched::executor::statistics& s = exec_.stats();
    stats_.failed = s.tasks_failed;
    stats_.steals_local = s.tasks_stolen - s.tasks_stolen_remote;
    stats_.steals_remote = s.tasks_stolen_remote;
    stats_.reroutes = s.tasks_failed_over;
    stats_.expired = s.tasks_expired;
    stats_.completed = 0;
    stats_.per_engine.clear();
    for (const auto& load : s.per_target) {
        stats_.completed += load.tasks_executed;
        stats_.per_engine.push_back(load.tasks_executed);
    }
    return stats_;
}

const std::vector<cluster_executor::task_id>&
cluster_executor::completion_order() {
    order_.clear();
    for (sched::task_id id = 0; id < exec_.size(); ++id) {
        if (exec_.finished(id)) {
            order_.push_back(id);
        }
    }
    std::sort(order_.begin(), order_.end(), [&](task_id a, task_id b) {
        return exec_.record_of(static_cast<sched::task_id>(a)).done_seq <
               exec_.record_of(static_cast<sched::task_id>(b)).done_seq;
    });
    return order_;
}

} // namespace aurora::net
