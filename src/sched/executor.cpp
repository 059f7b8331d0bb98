#include "sched/executor.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "fault/fault.hpp"
#include "ham/msg.hpp"
#include "obs/obs.hpp"
#include "offload/protocol.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace aurora::sched {

namespace {

/// Largest payload a single message may carry (slot buffer size). Under fault
/// injection every user/batch message also carries an FNV-1a trailer, so the
/// batch builder must leave room for it.
[[nodiscard]] std::size_t slot_capacity(const ham::offload::runtime& rt) {
    std::size_t cap = rt.options().msg_size;
    if (aurora::fault::injector::instance().active()) {
        cap -= ham::offload::protocol::checksum_bytes;
    }
    return cap;
}

} // namespace

bool runtime_engines::engine_send(std::size_t e, const void* msg,
                                  std::size_t len,
                                  ham::offload::protocol::msg_kind kind,
                                  std::uint64_t queued_ns,
                                  ham::offload::future<void>& out) {
    ham::offload::runtime::sent_message sent;
    if (!rt_.try_send_message(engine_id(e), msg, len, sent, kind)) {
        return false;
    }
    bind(e, sent, queued_ns, out);
    return true;
}

bool runtime_engines::resume_send(std::size_t e, const void* msg,
                                  std::size_t len,
                                  ham::offload::protocol::msg_kind kind,
                                  std::uint64_t queued_ns,
                                  ham::offload::future<void>& out) {
    ham::offload::runtime::sent_message sent;
    if (!rt_.resume_send(engine_id(e), msg, len, sent, kind)) {
        return false;
    }
    bind(e, sent, queued_ns, out);
    return true;
}

void runtime_engines::bind(std::size_t e,
                           const ham::offload::runtime::sent_message& sent,
                           std::uint64_t queued_ns,
                           ham::offload::future<void>& out) {
    const ham::offload::node_t node = engine_id(e);
    if (aurora::obs::enabled()) {
        // The submit touchpoint carries the ticket the runtime just assigned,
        // back-dated to when the message's earliest task entered its ready
        // queue: queue_wait = submit..post.
        aurora::obs::emit(
            aurora::obs::stage::submit,
            static_cast<std::uint16_t>(rt_.options().node_base + int(node)),
            sent.ticket, static_cast<std::uint16_t>(sent.slot),
            rt_.target_epoch(node), queued_ns);
    }
    out = ham::offload::future<void>::remote(rt_, node, sent.ticket, sent.slot);
}

executor::executor(executor_config cfg) : executor(nullptr, cfg) {}

executor::executor(engine_set& engines, executor_config cfg)
    : executor(&engines, cfg) {}

executor::executor(engine_set* engines, executor_config cfg)
    : cfg_(cfg), rt_(detail::rt()),
      own_engines_(engines == nullptr ? std::make_unique<runtime_engines>(rt_)
                                      : nullptr),
      eng_(engines != nullptr ? *engines : *own_engines_),
      num_targets_(eng_.engine_count()) {
    AURORA_CHECK_MSG(num_targets_ > 0, "executor needs at least one target");
    AURORA_CHECK_MSG(cfg_.window > 0, "executor window must be positive");
    AURORA_CHECK_MSG(cfg_.max_queued > 0, "max_queued must be positive");
    window_ = std::min(cfg_.window, rt_.options().msg_slots);
    if (cfg_.max_batch == 0) {
        cfg_.max_batch = 1;
    }
    targets_.resize(num_targets_);
    planned_group_.resize(num_targets_);
    stats_.per_target.resize(num_targets_);
    for (std::size_t t = 0; t < num_targets_; ++t) {
        ids_.push_back(eng_.engine_id(t));
        vh_.push_back(eng_.engine_vh(t));
        AURORA_CHECK_MSG(ids_[t] > 0 && (t == 0 || ids_[t] > ids_[t - 1]),
                         "engine ids must be positive and ascending");
        num_vhs_ = std::max(num_vhs_, vh_[t] + 1);
    }
    index_.assign(static_cast<std::size_t>(ids_.back()) + 1, num_targets_);
    for (std::size_t t = 0; t < num_targets_; ++t) {
        index_[static_cast<std::size_t>(ids_[t])] = t;
    }

    namespace m = aurora::metrics;
    auto& reg = m::registry::global();
    met_.steals = &reg.counter_for("aurora_sched_steals_total", "",
                                   "work-stealing transactions");
    met_.stolen_local = &reg.counter_for(
        "aurora_sched_stolen_tasks_total", m::labels({{"scope", "local"}}),
        "tasks moved by steals, within one VH node");
    met_.stolen_remote = &reg.counter_for(
        "aurora_sched_stolen_tasks_total", m::labels({{"scope", "remote"}}),
        "tasks moved by steals, across an inter-node link");
    met_.failovers = &reg.counter_for("aurora_sched_failovers_total", "",
                                      "target-failure evacuations/reroutes");
    met_.backpressure_stalls =
        &reg.counter_for("aurora_sched_backpressure_stalls_total", "",
                         "submits that had to block draining completions");
    met_.host_tasks = &reg.counter_for("aurora_sched_host_tasks_total", "",
                                       "tasks executed inline on the host");
    met_.tasks_completed =
        &reg.counter_for("aurora_sched_tasks_completed_total", "",
                         "tasks retired from target flights");
    met_.tasks_failed_over =
        &reg.counter_for("aurora_sched_tasks_failed_over_total", "",
                         "tasks re-routed away from failed targets");
    met_.tasks_shed =
        &reg.counter_for("aurora_sched_shed_total", "",
                         "submissions rejected at the backpressure bound");
    met_.tasks_expired =
        &reg.counter_for("aurora_sched_deadline_expired_total", "",
                         "tasks cancelled before dispatch: deadline passed");
    met_.queue_depth.resize(num_targets_);
    met_.inflight.resize(num_targets_);
    for (std::size_t t = 0; t < num_targets_; ++t) {
        const std::string lbl =
            m::labels({{"node", std::to_string(node_of(t))}});
        met_.queue_depth[t] = &reg.gauge_for(
            "aurora_sched_queue_depth", lbl, "ready tasks queued per target");
        met_.inflight[t] = &reg.gauge_for(
            "aurora_sched_inflight", lbl,
            "flights in the bounded in-flight window per target");
    }
}

task_id executor::submit_serialized(std::vector<std::byte> msg,
                                    const task_options& opts, const task_id* deps,
                                    std::size_t dep_count) {
    AURORA_TRACE_SPAN("sched", "submit");
    // Shed mode rejects BEFORE any state exists for the task: one drain pass
    // first, so completions that merely have not been harvested yet never
    // cause a spurious shed.
    if (cfg_.backpressure == backpressure_mode::shed &&
        tasks_.size() - finished_count_ >= cfg_.max_queued) {
        drain_once(no_step);
        const std::size_t backlog = tasks_.size() - finished_count_;
        if (backlog >= cfg_.max_queued) {
            ++stats_.tasks_shed;
            met_.tasks_shed->add(1);
            AURORA_TRACE_COUNTER("sched", "tasks_shed", 1);
            // Hint: the virtual time one per-target share of the backlog
            // takes to dispatch — deterministic, and roughly when a slot
            // opens if completions keep pace.
            const auto hint = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(rt_.costs().ham_msg_dispatch_ns) *
                (backlog / std::max<std::size_t>(num_targets_, 1) + 1));
            throw ham::offload::admission_error(
                "scheduler queue full: " + std::to_string(backlog) + " of " +
                    std::to_string(cfg_.max_queued) + " unfinished tasks",
                hint);
        }
    }
    const auto id = static_cast<task_id>(tasks_.size());
    AURORA_CHECK_MSG(id != invalid_task, "executor full");
    AURORA_CHECK_MSG(opts.affinity == any_node || opts.affinity == 0 ||
                         vh_marker(opts.affinity) >= 0 ||
                         (opts.affinity > 0 &&
                          static_cast<std::size_t>(opts.affinity) < index_.size() &&
                          index_of(opts.affinity) < num_targets_),
                     "task affinity " << opts.affinity << " is not a node (have "
                                      << num_targets_ << " targets)");

    detail::task_rec rec;
    rec.msg = std::move(msg);
    rec.opts = opts;
    rec.record.id = id;

    // Placement: affinity 0 always means the host queue; otherwise the policy
    // decides. Round-robin deliberately ignores affinity (it is the static
    // baseline the benchmarks compare against).
    if (opts.affinity == 0) {
        rec.home = 0;
    } else if (cfg_.policy == placement_policy::round_robin ||
               opts.affinity == any_node) {
        rec.home = node_of(rr_next_++ % num_targets_);
    } else if (const int vh = vh_marker(opts.affinity); vh >= 0) {
        rec.home = node_of(least_loaded_on(vh));
    } else {
        rec.home = opts.affinity;
    }

    for (std::size_t i = 0; i < dep_count; ++i) {
        const task_id d = deps[i];
        AURORA_CHECK_MSG(d < id, "task dependency " << d
                                                    << " is not an earlier task");
        detail::task_rec& dep = tasks_[d];
        if (dep.state == task_state::done || dep.state == task_state::failed ||
            dep.state == task_state::expired) {
            // Already settled: nothing to wait for, but finish_task has
            // already walked this dep's successor list, so the outcome must
            // propagate here — otherwise a failed/expired dep linked after
            // the fact would leave the task blocked forever (unmet never
            // reaches zero) or execute despite a failed dependency.
            if (dep.state == task_state::failed && !rec.dep_failed) {
                rec.dep_failed = true;
                errors_[id] = "dependency task " + std::to_string(d) +
                              " failed: " + errors_[d];
            }
            rec.dep_expired =
                rec.dep_expired || dep.state == task_state::expired;
            continue;
        }
        dep.succs.push_back(id);
        ++rec.unmet;
    }

    const bool ready = rec.unmet == 0;
    tasks_.push_back(std::move(rec));
    if (past_deadline(id)) {
        // Dead on arrival: settle (and count) it instead of queueing work
        // that would only be cancelled at dispatch.
        expire_task(id);
        return id;
    }
    if (ready) {
        release_ready(id);
    }

    // Backpressure: block in virtual time until the backlog drains below the
    // configured bound — submission never fails on slot exhaustion.
    if (tasks_.size() - finished_count_ > cfg_.max_queued) {
        AURORA_TRACE_SPAN("sched", "backpressure_stall");
        AURORA_TRACE_COUNTER("sched", "backpressure_stalls", 1);
        ++stats_.backpressure_stalls;
        met_.backpressure_stalls->add(1);
        bool idle = false;
        while (tasks_.size() - finished_count_ > cfg_.max_queued) {
            bool progress = false;
            if (!idle || !park_idle(aurora::sim::never, progress)) {
                progress = drain_once(no_step);
            }
            idle = !progress;
        }
    }
    return id;
}

void executor::run(const task_graph& g) {
    for (const task_graph::node& n : g.nodes_) {
        submit_serialized(n.msg, n.opts, n.deps.data(), n.deps.size());
    }
    wait_all();
}

void executor::wait_all() {
    AURORA_TRACE_SPAN("sched", "wait_all");
    bool idle = false;
    while (finished_count_ < tasks_.size()) {
        bool progress = false;
        if (!idle || !park_idle(aurora::sim::never, progress)) {
            progress = drain_once(no_step);
        }
        idle = !progress;
        if (progress) {
            continue;
        }
        // No completions, no dispatches. Legal only while work is in flight
        // (the poll itself advanced virtual time, the targets will get there)
        // or a target is mid-recovery (each dispatch probe advances virtual
        // time towards its re-attach deadline); otherwise the dependency
        // graph cannot make progress.
        bool inflight = false;
        for (std::size_t t = 0; t < num_targets_; ++t) {
            inflight = inflight || !targets_[t].inflight.empty() ||
                       eng_.engine_health(t) ==
                           ham::offload::target_health::recovering;
        }
        AURORA_CHECK_MSG(inflight,
                         "executor stalled with "
                             << (tasks_.size() - finished_count_)
                             << " unfinished tasks: dependency cycle?");
    }
    if (failed_) {
        failed_ = false; // report once; the executor stays usable for queries
        throw ham::offload::offload_error(first_error_);
    }
}

int executor::vh_marker(node_t affinity) const {
    if (affinity < 0 || affinity == any_node) {
        return -1;
    }
    const node_t vh = any_node - 1 - affinity;
    return vh < num_vhs_ ? vh : -1;
}

std::size_t executor::least_loaded_on(int vh) const {
    std::size_t best = num_targets_;
    std::size_t best_load = 0;
    for (std::size_t t = 0; t < num_targets_; ++t) {
        if (vh_[t] != vh) {
            continue;
        }
        std::size_t load = targets_[t].ready.size();
        for (const flight& f : targets_[t].inflight) {
            load += f.tasks.size();
        }
        if (best == num_targets_ || load < best_load) {
            best = t;
            best_load = load;
        }
    }
    AURORA_CHECK_MSG(best < num_targets_, "no engine on VH " << vh);
    return best;
}

const std::vector<completion_record>& executor::trace() const {
    trace_.clear();
    for (const detail::task_rec& rec : tasks_) {
        if (rec.state == task_state::done) {
            trace_.push_back(rec.record);
        }
    }
    std::sort(trace_.begin(), trace_.end(),
              [](const completion_record& a, const completion_record& b) {
                  return a.done_seq < b.done_seq;
              });
    return trace_;
}

task_state executor::state_of(task_id id) const {
    AURORA_CHECK_MSG(id < tasks_.size(), "unknown task id " << id);
    return tasks_[id].state;
}

const executor::statistics& executor::stats() {
    for (std::size_t t = 0; t < num_targets_; ++t) {
        stats_.per_target[t].queue_depth = targets_[t].ready.size();
    }
    return stats_;
}

bool executor::past_deadline(task_id id) const {
    const task_options& o = tasks_[id].opts;
    return o.deadline_ns > 0 && aurora::sim::now() >= o.deadline_ns;
}

void executor::expire_task(task_id id) {
    ++stats_.tasks_expired;
    met_.tasks_expired->add(1);
    AURORA_TRACE_COUNTER("sched", "tasks_expired", 1);
    finish_task(id, task_state::expired, tasks_[id].home);
}

void executor::note_failure(const std::string& what) {
    if (first_error_.empty()) {
        first_error_ = what;
    }
    // fail_fast poisons the whole run (wait_all rethrows); serving mode
    // settles only the task and its dependents.
    if (cfg_.fail_fast) {
        failed_ = true;
    }
}

void executor::release_ready(task_id id) {
    detail::task_rec& rec = tasks_[id];
    if (rec.dep_expired || past_deadline(id)) {
        // An expired predecessor can never feed this task (or its own
        // deadline already passed while blocked): cascade the cancellation.
        expire_task(id);
        return;
    }
    if (failed_ || rec.dep_failed) {
        // A prior failure poisons everything not yet dispatched (fail_fast) or
        // just this dependency chain: settle the task as failed and cascade to
        // its successors so wait_all terminates. A dep-cascade cause is
        // already recorded in errors_; finish_task keeps it.
        finish_task(id, task_state::failed, rec.home,
                    "skipped after earlier failure: " + first_error_);
        return;
    }
    if (rec.home != 0 && target_terminal(index_of(rec.home))) {
        // The home target died for good before this task became ready. (A
        // merely recovering home keeps its queue — the task waits for the
        // respawn and dispatches during probation.)
        if (rec.opts.pinned) {
            std::string why = lost_target(id, index_of(rec.home));
            note_failure(why);
            finish_task(id, task_state::failed, rec.home, std::move(why));
            return;
        }
        const std::size_t h = next_healthy(index_of(rec.home));
        if (h == num_targets_) {
            note_failure("no healthy offload targets left");
            finish_task(id, task_state::failed, rec.home,
                        "no healthy offload targets left");
            return;
        }
        rec.home = node_of(h);
        ++stats_.tasks_failed_over;
        met_.tasks_failed_over->add(1);
    }
    rec.state = task_state::ready;
    rec.ready_at_ns = static_cast<std::uint64_t>(aurora::sim::now());
    if (rec.home == 0) {
        host_ready_.push_back(id);
    } else {
        target_queues& tq = targets_[index_of(rec.home)];
        tq.ready.push_back(id);
        tq.pinned += rec.opts.pinned ? 1U : 0U;
    }
}

void executor::finish_task(task_id id, task_state outcome, node_t executed_on,
                           std::string error) {
    detail::task_rec& rec = tasks_[id];
    rec.state = outcome;
    rec.record.executed_on = executed_on;
    rec.record.done_seq = event_seq_++;
    rec.record.done_time_ns = static_cast<std::uint64_t>(aurora::sim::now());
    // Delivered (or never will be): free it. (`= {}` would keep the capacity.)
    std::vector<std::byte>().swap(rec.msg);
    ++finished_count_;
    if (outcome == task_state::failed) {
        ++stats_.tasks_failed;
        // try_emplace keeps a dep-cascade cause recorded earlier.
        errors_.try_emplace(id, std::move(error));
    }
    for (const task_id s : rec.succs) {
        detail::task_rec& succ = tasks_[s];
        if (outcome == task_state::failed && !succ.dep_failed) {
            succ.dep_failed = true;
            errors_[s] = "dependency task " + std::to_string(id) +
                         " failed: " + errors_[id];
        }
        succ.dep_expired = succ.dep_expired || outcome == task_state::expired;
        AURORA_CHECK(succ.unmet > 0);
        if (--succ.unmet == 0) {
            release_ready(s);
        }
    }
}

bool executor::drain_once(std::uint32_t woke) {
    bool progress = false;
    // A pass woken after one of its steps starts there: everything before
    // it ran parked and found nothing.
    std::size_t harvest_from = 0;
    std::size_t dispatch_from = 0;
    std::uint32_t harvest_woke = no_step;
    std::uint32_t dispatch_woke = no_step;
    if (woke != no_step) {
        const auto kind = static_cast<step_kind>(woke & 7);
        if (kind == step_pause) {
            return false; // the pass's last step
        }
        if (kind <= step_probe) {
            harvest_from = woke >> 3;
            harvest_woke = woke;
        } else {
            harvest_from = num_targets_;
            dispatch_from = woke >> 3;
            dispatch_woke = woke;
        }
    }

    // 1. Host tasks run inline on the VH process (scatter/gather phases).
    while (woke == no_step && !host_ready_.empty()) {
        const task_id id = host_ready_.front();
        host_ready_.pop_front();
        if (past_deadline(id)) {
            expire_task(id);
        } else {
            run_host_task(id);
        }
        progress = true;
    }

    // 2. Harvest completed flights (lowest node first, FIFO per target).
    for (std::size_t t = harvest_from; t < num_targets_; ++t) {
        progress = harvest_target(t, t == harvest_from ? harvest_woke : no_step) ||
                   progress;
    }

    // 3. Fill the in-flight windows.
    for (std::size_t t = dispatch_from; t < num_targets_; ++t) {
        progress =
            dispatch_target(t, t == dispatch_from ? dispatch_woke : no_step) ||
            progress;
    }

    // Mirror the live queue state into the gauges once per tick.
    for (std::size_t t = 0; t < num_targets_; ++t) {
        met_.queue_depth[t]->set(
            static_cast<std::int64_t>(targets_[t].ready.size()));
        met_.inflight[t]->set(
            static_cast<std::int64_t>(targets_[t].inflight.size()));
    }

    if (!progress && waits_only_remote()) {
        aurora::sim::advance(rt_.costs().local_poll_ns);
    }
    return progress;
}

bool executor::waits_only_remote() {
    // Only the ambient runtime's polls cost virtual time; results from other
    // VHs arrive by themselves. An idle pass that polled no local engine but
    // waits on a remote one moves the clock itself, or wait_all would spin.
    if (num_vhs_ == 1) {
        return false;
    }
    bool local = false;
    bool remote = false;
    for (std::size_t t = 0; t < num_targets_; ++t) {
        const bool busy = !targets_[t].inflight.empty() ||
                          eng_.engine_health(t) ==
                              ham::offload::target_health::recovering;
        (vh_[t] == 0 ? local : remote) |= busy;
    }
    return remote && !local;
}

aurora::sim::time_ns executor::engines_moved(const void* self, std::uint64_t) {
    const auto& ex = *static_cast<const executor*>(self);
    return ex.eng_.engine_version() != ex.engines_seen_ ? 0 : aurora::sim::never;
}

void executor::plan_pass(aurora::sim::time_ns also_at) {
    plan_.clear();
    plan_.wake_at(also_at);
    engines_seen_ = eng_.engine_version();
    // The pass after an idle one: no host task is queued, every front
    // flight is still out, and each engine's dispatch stops where it did.
    for (std::size_t t = 0; t < num_targets_; ++t) {
        if (!targets_[t].inflight.empty()) {
            targets_[t].inflight.front().fut.plan_test(plan_,
                                                       tag_of(t, step_check));
        }
    }
    for (std::size_t t = 0; t < num_targets_; ++t) {
        plan_dispatch(t);
    }
    if (num_vhs_ > 1) {
        // The remote-only pause reads every engine's health, and so does
        // wait_all()'s stall check after the pass.
        plan_.wake_live(&engines_moved, this);
        if (waits_only_remote()) {
            plan_.step(rt_.costs().local_poll_ns, tag_of(0, step_pause));
        }
        plan_.wake_live(&engines_moved, this);
    }
}

void executor::plan_dispatch(std::size_t t) {
    const target_queues& tq = targets_[t];
    if (vh_[t] != 0) {
        plan_.wake_live(&engines_moved, this); // another VH drives its health
    }
    if (target_terminal(t)) {
        return; // evacuate() finds nothing queued
    }
    if (eng_.engine_health(t) == ham::offload::target_health::recovering) {
        eng_.plan_poll_recovery(t, plan_, tag_of(t, step_recovery));
        return;
    }
    if (tq.inflight.size() >= effective_window(t) || tq.ready.empty()) {
        return; // a full window, or nothing queued and nothing to steal
    }
    // The group dispatch would gather: it stays the same until one of its
    // tasks passes its deadline.
    const std::size_t n = group_size(tq.ready, slot_capacity(rt_));
    planned_group_[t] = static_cast<std::uint32_t>(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (const std::int64_t d = tasks_[tq.ready[i]].opts.deadline_ns; d > 0) {
            plan_.wake_at(d);
        }
    }
    if (n > 1) {
        plan_.step(rt_.costs().ham_msg_construct_ns, tag_of(t, step_construct));
    }
    eng_.plan_send(t, plan_, tag_of(t, step_send));
}

bool executor::park_idle(aurora::sim::time_ns also_at, bool& progress) {
    plan_pass(also_at);
    std::uint32_t woke = no_step;
    if (!plan_.park(woke)) {
        return false;
    }
    progress = drain_once(woke);
    return true;
}

void executor::run_host_task(task_id id) {
    AURORA_TRACE_SPAN("sched", "host_task");
    detail::task_rec& rec = tasks_[id];
    rec.state = task_state::inflight;
    rec.record.start_seq = event_seq_++;
    ++stats_.host_tasks;
    met_.host_tasks->add(1);

    aurora::sim::advance(rt_.costs().ham_msg_dispatch_ns);
    std::byte result[sizeof(ham::offload::protocol::result_header)];
    std::size_t result_size = 0;
    bool ok = true;
    std::string err;
    try {
        ham::execute_message(rt_.host_registry(), rec.msg.data(), result,
                             sizeof(result), &result_size);
    } catch (const std::exception& e) {
        ok = false;
        err = std::string("host task failed: ") + e.what();
        note_failure(err);
    }
    finish_task(id, ok ? task_state::done : task_state::failed, 0,
                std::move(err));
}

bool executor::harvest_target(std::size_t t, std::uint32_t woke) {
    target_queues& tq = targets_[t];
    bool progress = false;
    // The target loop serves messages in send order, so flights complete
    // FIFO: only the front flight can be newly done. Probing just that one
    // keeps the poll cost (and thus virtual time) independent of the window.
    while (!tq.inflight.empty()) {
        flight& f = tq.inflight.front();
        const bool landed = woke != no_step
                                ? f.fut.resume_test((woke & 7) == step_probe)
                                : f.fut.test();
        woke = no_step;
        if (!landed) {
            break;
        }
        retire_flight(t, f);
        tq.inflight.pop_front();
        progress = true;
    }
    return progress;
}

void executor::retire_flight(std::size_t t, flight& f) {
    AURORA_TRACE_SPAN("sched", "complete");
    bool ok = true;
    std::string err;
    try {
        f.fut.get();
    } catch (const ham::offload::target_failed_error& e) {
        // The target died with this flight un-acked: re-route its tasks to the
        // surviving targets instead of failing them. Delivery is at-least-once
        // — the dead target may have executed part of the flight already.
        if (reroute_flight(t, f)) {
            return;
        }
        ok = false;
        err = e.what();
        note_failure(err);
    } catch (const ham::offload::offload_error& e) {
        ok = false;
        err = e.what();
        note_failure(err);
    }
    AURORA_TRACE_COUNTER("sched", "tasks_completed", f.tasks.size());
    met_.tasks_completed->add(f.tasks.size());
    target_load& load = stats_.per_target[t];
    for (const task_id id : f.tasks) {
        if (ok) {
            ++load.tasks_executed;
            load.busy_cost_ns += tasks_[id].opts.cost_ns;
            if (tasks_[id].home != node_of(t)) {
                ++load.tasks_stolen_in;
            }
        }
        finish_task(id, ok ? task_state::done : task_state::failed, node_of(t),
                    err);
    }
}

std::size_t executor::group_size(const std::deque<task_id>& q,
                                 std::size_t cap) const {
    // batch_builder's arithmetic, without building.
    const auto bytes = [&](task_id id) {
        return ham::offload::protocol::batch_entry_bytes(tasks_[id].msg.size());
    };
    std::size_t used = sizeof(ham::offload::protocol::batch_header);
    if (!cfg_.batching || cfg_.max_batch <= 1 || used + bytes(q.front()) > cap) {
        return 1;
    }
    used += bytes(q.front());
    std::size_t n = 1;
    while (n < cfg_.max_batch && n < q.size() && !past_deadline(q[n]) &&
           used + bytes(q[n]) <= cap) {
        used += bytes(q[n]);
        ++n;
    }
    return n;
}

bool executor::dispatch_target(std::size_t t, std::uint32_t woke) {
    target_queues& tq = targets_[t];
    if (woke == no_step) {
        if (target_terminal(t)) {
            // A dead target dispatches nothing; anything still queued here
            // moves to the survivors (its in-flight work re-routes via
            // retire_flight).
            const bool moved = !tq.ready.empty();
            evacuate(t);
            return moved;
        }
        if (eng_.engine_health(t) == ham::offload::target_health::recovering) {
            // Drive the heal state machine (the probe advances virtual time
            // towards the re-attach deadline and performs the respawn +
            // replay when it arrives); queued tasks and parked flights wait
            // it out.
            eng_.engine_poll_recovery(t);
            return false;
        }
    } else if ((woke & 7) == step_recovery) {
        return false; // the recovery poll's pause was its last step
    }
    bool progress = false;

    const std::uint32_t win = effective_window(t);
    while (tq.inflight.size() < win) {
        std::size_t n = planned_group_[t]; // gathered before the step woken after
        if (woke == no_step) {
            if (tq.ready.empty()) {
                if (cfg_.policy != placement_policy::work_stealing ||
                    !steal_into(t)) {
                    break;
                }
            }
            // Cancellation point: expired work is dropped here, before it
            // can consume a message slot — counted, and its dependents
            // cascade.
            while (!tq.ready.empty() && past_deadline(tq.ready.front())) {
                const task_id late = tq.ready.front();
                tq.ready.pop_front();
                tq.pinned -= tasks_[late].opts.pinned ? 1U : 0U;
                expire_task(late);
                progress = true;
            }
            if (tq.ready.empty()) {
                continue; // the purge emptied the queue; try to steal again
            }
            n = group_size(tq.ready, slot_capacity(rt_));
        }

        // Gather the group from the queue front into the kept scratch: one
        // task goes out as a plain user message, two or more as one batch
        // message (a second construction cost pays for the wrapper).
        group_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const task_id id = tq.ready.front();
            group_.push_back(id);
            tq.ready.pop_front();
            tq.pinned -= tasks_[id].opts.pinned ? 1U : 0U;
        }
        if (n > 1) {
            batch_.reset(slot_capacity(rt_));
            for (const task_id id : group_) {
                batch_.append(tasks_[id].msg.data(),
                              static_cast<std::uint32_t>(tasks_[id].msg.size()));
            }
        }

        AURORA_TRACE_SPAN("sched", "dispatch");
        std::uint64_t ready_ns = 0;
        if (aurora::obs::enabled()) {
            ready_ns = tasks_[group_.front()].ready_at_ns;
            for (const task_id id : group_) {
                ready_ns = std::min(ready_ns, tasks_[id].ready_at_ns);
            }
        }
        const bool resumed = woke != no_step && (woke & 7) == step_send;
        if (n > 1 && woke == no_step) {
            aurora::sim::advance(rt_.costs().ham_msg_construct_ns);
        }
        woke = no_step;
        const void* msg = tasks_[group_.front()].msg.data();
        std::size_t len = tasks_[group_.front()].msg.size();
        auto kind = ham::offload::protocol::msg_kind::user;
        if (n > 1) {
            msg = batch_.finish();
            len = batch_.size();
            kind = ham::offload::protocol::msg_kind::batch;
        }
        flight f;
        const bool sent_ok =
            resumed ? eng_.resume_send(t, msg, len, kind, ready_ns, f.fut)
                    : eng_.engine_send(t, msg, len, kind, ready_ns, f.fut);
        if (!sent_ok) {
            // The round-robin slot is busy (e.g. host-task put/get traffic).
            // Put the group back in order and retry on the next drain.
            for (auto it = group_.rbegin(); it != group_.rend(); ++it) {
                tq.ready.push_front(*it);
                tq.pinned += tasks_[*it].opts.pinned ? 1U : 0U;
            }
            break;
        }

        target_load& load = stats_.per_target[t];
        ++load.messages_sent;
        if (n > 1) {
            ++load.batches_sent;
            stats_.batched_tasks += n;
            AURORA_TRACE_COUNTER("sched", "batched_tasks", n);
        }
        for (const task_id id : group_) {
            tasks_[id].state = task_state::inflight;
            tasks_[id].record.start_seq = event_seq_++;
        }

        f.tasks = group_;
        tq.inflight.push_back(std::move(f));
        progress = true;
    }
    return progress;
}

bool executor::steal_into(std::size_t thief) {
    // The engine with the most stealable (unpinned) ready tasks above
    // `floor`, on the thief's own VH or on the others; ties break towards
    // the lowest id for determinism.
    const auto deepest = [&](bool own_vh, std::size_t floor) {
        std::size_t victim = num_targets_;
        for (std::size_t t = 0; t < num_targets_; ++t) {
            if (t == thief || (vh_[t] == vh_[thief]) != own_vh) {
                continue;
            }
            const std::size_t stealable =
                targets_[t].ready.size() - targets_[t].pinned;
            if (stealable > floor) {
                floor = stealable;
                victim = t;
            }
        }
        return std::pair{victim, floor};
    };
    auto [victim, best] = deepest(true, 0);
    // Nothing local: the scope may allow crossing an inter-node link, but
    // only to a queue deep enough to be worth the link latency.
    const bool remote = victim == num_targets_;
    if (remote) {
        if (cfg_.scope != steal_scope::local_then_remote) {
            return false;
        }
        std::tie(victim, best) = deepest(
            false, std::max<std::size_t>(cfg_.remote_steal_threshold, 1) - 1);
        if (victim == num_targets_) {
            return false;
        }
    }

    // Take from the *back* of the victim's queue — the oldest tasks stay
    // local, the youngest migrate, as in classic work stealing. A local steal
    // takes up to half the stealable backlog (at least one task, at most one
    // batch worth); a remote one takes half, uncapped, so each crossing of
    // the link moves work in bulk.
    const std::size_t want =
        remote ? (best + 1) / 2
               : std::min<std::size_t>(std::max<std::size_t>(best / 2, 1),
                                       std::max<std::uint32_t>(cfg_.max_batch, 1));
    std::deque<task_id>& vq = targets_[victim].ready;
    std::vector<task_id> taken;
    for (auto it = vq.rbegin(); it != vq.rend() && taken.size() < want;) {
        const task_id id = *it;
        if (tasks_[id].opts.pinned) {
            ++it;
            continue;
        }
        it = std::make_reverse_iterator(vq.erase(std::next(it).base()));
        taken.push_back(id);
    }
    AURORA_CHECK(!taken.empty());
    // `taken` holds youngest-first; append oldest-first to preserve order.
    for (auto it = taken.rbegin(); it != taken.rend(); ++it) {
        targets_[thief].ready.push_back(*it);
    }
    ++stats_.steals;
    met_.steals->add(1);
    stats_.tasks_stolen += taken.size();
    if (remote) {
        stats_.tasks_stolen_remote += taken.size();
    }
    (remote ? met_.stolen_remote : met_.stolen_local)->add(taken.size());
    AURORA_TRACE_INSTANT("sched", "steal");
    AURORA_TRACE_COUNTER("sched", "stolen_tasks", taken.size());
    return true;
}

bool executor::target_usable(std::size_t t) const {
    const auto h = eng_.engine_health(t);
    return h != ham::offload::target_health::failed &&
           h != ham::offload::target_health::recovering;
}

bool executor::target_terminal(std::size_t t) const {
    return eng_.engine_health(t) == ham::offload::target_health::failed;
}

std::uint32_t executor::effective_window(std::size_t t) {
    // Reintegration ramp: a target fresh out of recovery starts with a window
    // of one and earns the full window back linearly as its clean-result
    // streak approaches recovery_streak (the same streak that later promotes
    // it to healthy).
    if (eng_.engine_health(t) != ham::offload::target_health::probation) {
        return window_;
    }
    const std::uint32_t streak =
        std::max<std::uint32_t>(rt_.options().recovery_streak, 1);
    const std::uint32_t progress = std::min(eng_.engine_probation(t), streak);
    return 1 + (window_ - 1) * progress / streak;
}

std::size_t executor::next_healthy(std::size_t near) {
    // A dispatchable engine — on `near`'s VH first, then on any VH. Failing
    // that, a recovering one will take queued work once its respawn lands:
    // park the task there rather than failing the run.
    for (const bool usable_only : {true, false}) {
        for (const bool same_vh : {true, false}) {
            for (std::size_t i = 0; i < num_targets_; ++i) {
                const std::size_t t = (failover_rr_ + i) % num_targets_;
                if (same_vh && vh_[t] != vh_[near]) {
                    continue;
                }
                if (usable_only ? target_usable(t) : !target_terminal(t)) {
                    failover_rr_ =
                        static_cast<std::uint32_t>((t + 1) % num_targets_);
                    return t;
                }
            }
        }
    }
    return num_targets_;
}

std::string executor::lost_target(task_id id, std::size_t t) const {
    return "pinned task " + std::to_string(id) + " lost its target " +
           std::to_string(node_of(t)) + ": " + eng_.engine_failure(t);
}

void executor::evacuate(std::size_t dead) {
    target_queues& tq = targets_[dead];
    if (tq.ready.empty()) {
        return;
    }
    AURORA_TRACE_INSTANT("sched", "evacuate");
    ++stats_.failovers;
    met_.failovers->add(1);
    std::deque<task_id> orphans;
    orphans.swap(tq.ready);
    tq.pinned = 0; // the pinned orphans fail below
    std::uint64_t moved = 0;
    for (const task_id id : orphans) {
        detail::task_rec& rec = tasks_[id];
        if (rec.opts.pinned) {
            std::string why = lost_target(id, dead);
            note_failure(why);
            finish_task(id, task_state::failed, rec.home, std::move(why));
            continue;
        }
        const std::size_t h = next_healthy(dead);
        if (h == num_targets_) {
            note_failure("no healthy offload targets left");
            finish_task(id, task_state::failed, rec.home,
                        "no healthy offload targets left");
            continue;
        }
        rec.home = node_of(h);
        targets_[h].ready.push_back(id);
        ++moved;
    }
    stats_.tasks_failed_over += moved;
    met_.tasks_failed_over->add(moved);
    AURORA_TRACE_COUNTER("sched", "tasks_failed_over", moved);
}

bool executor::reroute_flight(std::size_t dead, flight& f) {
    bool any = false;
    for (std::size_t t = 0; t < num_targets_; ++t) {
        any = any || (t != dead && target_usable(t));
    }
    if (!any) {
        return false; // nowhere to go; the caller fails the flight
    }
    AURORA_TRACE_INSTANT("sched", "failover");
    ++stats_.failovers;
    met_.failovers->add(1);
    std::uint64_t moved = 0;
    for (const task_id id : f.tasks) {
        detail::task_rec& rec = tasks_[id];
        if (rec.opts.pinned) {
            std::string why = lost_target(id, dead);
            note_failure(why);
            finish_task(id, task_state::failed, node_of(dead), std::move(why));
            continue;
        }
        const std::size_t h = next_healthy(dead);
        AURORA_CHECK(h != num_targets_); // pre-scan found a healthy target
        rec.home = node_of(h);
        rec.state = task_state::ready;
        targets_[h].ready.push_back(id);
        ++moved;
    }
    stats_.tasks_failed_over += moved;
    met_.tasks_failed_over->add(moved);
    AURORA_TRACE_COUNTER("sched", "tasks_failed_over", moved);
    return true;
}

} // namespace aurora::sched
