// aurora::net cluster executor — sched::executor addressed by (vh, ve).
//
// A thin facade over sched::executor(cluster): every (VH, VE) pair of the
// cluster is one of the executor's engines, so placement, two-level work
// stealing (sched::steal_scope), bounded windows, batching, deadlines,
// dependencies and failover are the executor's (docs/SCHEDULER.md). The
// facade only maps (vh, ve) affinities to engine ids and reads the
// executor's records back as cluster statistics and a completion order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ham/msg.hpp"
#include "net/cluster.hpp"
#include "sched/executor.hpp"

namespace aurora::net {

/// The executor's configuration, batching off by default: a batch commits
/// up to max_batch tasks to one engine at once, and on the skewed mixes the
/// cluster tier serves that strands heavy tasks where no idle engine can
/// steal them (bench_scaling_cluster: 252k vs 188k tasks/s at 4 nodes).
struct cluster_executor_config : sched::executor_config {
    cluster_executor_config() { batching = false; }
};

class cluster_executor {
public:
    using task_id = std::uint64_t;

    cluster_executor(cluster& c, cluster_executor_config cfg);

    /// Serialise `f` with the origin image's translation tables and queue it.
    /// affinity (-1, -1) = any engine; (vh, -1) = the least-loaded VE of that
    /// node; pinned tasks never migrate (no steal, no failover).
    template <typename Functor>
    task_id submit(Functor f, int affinity_vh = -1, int affinity_ve = -1,
                   bool pinned = false) {
        ham::offload::runtime& rt = sched::detail::rt();
        alignas(16) std::byte buf[ham::default_max_msg_size];
        const std::size_t len = ham::write_message(
            rt.host_registry(), buf,
            std::min<std::size_t>(sizeof(buf), rt.options().msg_size), f);
        return submit_bytes({buf, buf + len}, affinity_vh, affinity_ve, pinned);
    }
    task_id submit_bytes(std::vector<std::byte> msg, int affinity_vh,
                         int affinity_ve, bool pinned);

    /// Drive the schedule until every submitted task settled.
    void wait_all() { exec_.wait_all(); }

    struct statistics {
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t steals_local = 0;  ///< tasks stolen within a VH
        std::uint64_t steals_remote = 0; ///< tasks stolen across VHs
        std::uint64_t reroutes = 0;      ///< tasks moved off a failed engine
        std::uint64_t expired = 0;       ///< deadline-cancelled before dispatch
        std::vector<std::uint64_t> per_engine; ///< completions by engine index
    };
    [[nodiscard]] const statistics& stats();

    /// Every settled task id (done, failed or expired) in settlement order —
    /// the determinism fingerprint.
    [[nodiscard]] const std::vector<task_id>& completion_order();

    [[nodiscard]] std::size_t num_engines() const { return c_.engine_count(); }
    /// Engine index for (vh, ve) — node-major, matching dispatch order.
    [[nodiscard]] std::size_t engine_index(int vh, int ve) const;
    /// The sched::task_options::affinity submit() uses for (vh, ve).
    [[nodiscard]] sched::node_t affinity(int vh, int ve) const;

    /// The executor itself, for dependencies, deadlines and per-task records.
    [[nodiscard]] sched::executor& executor() noexcept { return exec_; }

private:
    cluster& c_;
    sched::executor exec_;
    statistics stats_;
    std::vector<task_id> order_;
};

} // namespace aurora::net
