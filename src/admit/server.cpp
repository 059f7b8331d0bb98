#include "admit/server.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "offload/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/pass.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace aurora::admit {

namespace {

using ham::offload::admission_error;
using phase = detail::request_state::phase;

/// The executor configuration serving mode requires, whatever the caller
/// passed: the shared capacity is the backpressure bound, rejections are
/// typed (never blocking — the server pre-checks room, so the executor's own
/// shed path is a safety net), and one tenant's failure must not poison
/// another tenant's independent work.
sched::executor_config serving_exec(const server::config& cfg) {
    sched::executor_config e = cfg.exec;
    e.max_queued = cfg.capacity;
    e.backpressure = sched::backpressure_mode::shed;
    e.fail_fast = false;
    // No cross-request coalescing: a batch fails as a unit, so one tenant's
    // raising kernel would take down whatever happened to ride in its batch.
    e.batching = false;
    return e;
}

} // namespace

// --- request handle ---------------------------------------------------------

bool request::settled() const {
    return valid() && s_->ph != phase::queued && s_->ph != phase::inflight;
}

bool request::test() {
    AURORA_CHECK_MSG(valid(), "test() on an invalid request");
    if (!settled()) {
        srv_->poll();
    }
    return settled();
}

void request::wait() {
    AURORA_CHECK_MSG(valid(), "wait() on an invalid request");
    // Each poll advances virtual time (executor harvest / backend poll), so
    // queued deadlines fire and in-flight work lands; an admitted request
    // always settles (see drain()). After a poll that found nothing the
    // next ones run parked.
    sim::pass_loop loop("admit::request::wait");
    for (; !settled(); loop.begin()) {
        if (!srv_->poll()) {
            loop.park();
        }
    }
}

void request::get() {
    wait();
    switch (s_->ph) {
        case phase::done:
            return;
        case phase::expired:
            throw ham::offload::deadline_exceeded_error(s_->error);
        case phase::shed:
            throw admission_error(s_->error, s_->retry_after_ns);
        default:
            throw ham::offload::offload_error(s_->error);
    }
}

// --- server -----------------------------------------------------------------

server::server(config cfg) : cfg_(cfg), exec_(serving_exec(cfg)) {
    AURORA_CHECK_MSG(cfg_.capacity > 0, "admit capacity must be positive");
    auto* rt = ham::offload::runtime::current();
    AURORA_CHECK_MSG(rt != nullptr,
                     "admit::server must be constructed inside offload::run()");
    num_targets_ = rt->num_nodes() - 1;
    dispatch_window_ = cfg_.dispatch_window != 0
                           ? cfg_.dispatch_window
                           : std::max<std::size_t>(cfg_.capacity / 4, 1);
    dispatch_cost_ns_ = rt->costs().ham_msg_dispatch_ns;
    breakers_.reserve(num_targets_);
    for (std::size_t t = 0; t < num_targets_; ++t) {
        breakers_.emplace_back(cfg_.breaker);
    }

    namespace m = aurora::metrics;
    auto& reg = m::registry::global();
    for (std::size_t c = 0; c < num_qos_classes; ++c) {
        latency_ns_[c] = &reg.histogram_for(
            "aurora_admit_latency_ns",
            m::labels({{"class", to_string(static_cast<qos_class>(c))}}),
            "virtual ns from admission to successful settlement, per QoS class");
    }
    breaker_gauges_.resize(num_targets_);
    breaker_trips_.resize(num_targets_);
    trips_exported_.resize(num_targets_);
    for (std::size_t t = 0; t < num_targets_; ++t) {
        const std::string lbl =
            m::labels({{"node", std::to_string(t + 1)}});
        breaker_gauges_[t] = &reg.gauge_for(
            "aurora_admit_breaker_state", lbl,
            "admission breaker state (0=closed, 1=open, 2=half-open)");
        breaker_trips_[t] = &reg.counter_for(
            "aurora_admit_breaker_trips_total", lbl,
            "admission breaker trips (consecutive-failure threshold crossed)");
    }
    backlog_gauge_ = &reg.gauge_for(
        "aurora_admit_backlog", "",
        "requests queued in sessions plus unfinished in the scheduler");
    reg.gauge_for("aurora_admit_capacity", "",
                  "configured shared backlog capacity")
        .set(static_cast<std::int64_t>(cfg_.capacity));
}

server::tenant_instruments& server::instruments_for(const std::string& tenant) {
    const auto [it, inserted] = tenants_.try_emplace(tenant);
    if (inserted) {
        namespace m = aurora::metrics;
        auto& reg = m::registry::global();
        const std::string lbl = m::labels({{"tenant", tenant}});
        tenant_instruments& ti = it->second;
        ti.admitted = &reg.counter_for("aurora_admit_admitted_total", lbl,
                                       "requests accepted into tenant queues");
        ti.shed = &reg.counter_for(
            "aurora_admit_shed_total", lbl,
            "requests rejected or cancelled by admission control");
        ti.expired = &reg.counter_for(
            "aurora_admit_deadline_missed_total", lbl,
            "requests cancelled before dispatch: deadline passed");
        ti.completed = &reg.counter_for("aurora_admit_completed_total", lbl,
                                        "tenant requests executed successfully");
        ti.failed = &reg.counter_for("aurora_admit_failed_total", lbl,
                                     "tenant requests settled as failed");
        ti.queue_depth =
            &reg.gauge_for("aurora_admit_queue_depth", lbl,
                           "requests waiting in the tenant's session queues");
        ti.sessions_open = &reg.gauge_for("aurora_admit_sessions_open", lbl,
                                          "open sessions billed to the tenant");
    }
    return it->second;
}

session_id server::open(session_options opts) {
    AURORA_CHECK_MSG(opts.weight > 0, "session weight must be positive");
    AURORA_CHECK_MSG(opts.max_queued > 0, "session max_queued must be positive");
    session_rec& rec = sessions_.emplace_back();
    rec.opts = std::move(opts);
    rec.open = true;
    rec.met = &instruments_for(rec.opts.tenant);
    rec.met->sessions_open->add(1);
    ++open_sessions_;
    return sessions_.size();
}

void server::close(session_id sid) {
    session_rec& s = rec_for(sid);
    if (!s.open) {
        return; // idempotent
    }
    s.open = false;
    --open_sessions_;
    s.met->sessions_open->add(-1);
    // Queued work settles as shed — typed and counted; a waiting handle gets
    // admission_error from get(). In-flight work runs to completion.
    for (const request_ptr& r : s.queue) {
        expiry_stale_ = expiry_stale_ || r->deadline_ns == next_expiry_;
        r->ph = phase::shed;
        r->error =
            "session " + std::to_string(sid) + " closed before dispatch";
        r->msg = {};
        ++s.shed;
        ++stats_.shed;
        s.met->shed->add(1);
        if (r->probe) {
            breakers_[static_cast<std::size_t>(r->topts.affinity) - 1]
                .abort_probe();
        }
        aurora::obs::emit_now(aurora::obs::stage::shed, 0, r->serial, 0, 0);
    }
    s.met->queue_depth->add(-static_cast<std::int64_t>(s.queue.size()));
    queued_total_ -= s.queue.size();
    s.queue.clear();
    queued_sessions_.erase(sid);
}

session_stats server::stats(session_id sid) const {
    AURORA_CHECK_MSG(sid >= 1 && sid <= sessions_.size(),
                     "unknown session " << sid);
    const session_rec& s = sessions_[sid - 1];
    session_stats out;
    out.admitted = s.admitted;
    out.shed = s.shed;
    out.expired = s.expired;
    out.completed = s.completed;
    out.failed = s.failed;
    out.queued = s.queue.size();
    out.open = s.open;
    return out;
}

server::session_rec& server::rec_for(session_id sid) {
    AURORA_CHECK_MSG(sid >= 1 && sid <= sessions_.size(),
                     "unknown session " << sid);
    return sessions_[sid - 1];
}

std::int64_t server::occupancy_retry_hint() const {
    // One per-target share of the backlog at the dispatch cost — roughly the
    // virtual time until the backlog drains below the shed threshold if
    // completions keep pace. Deterministic by construction.
    return dispatch_cost_ns_ *
           static_cast<std::int64_t>(
               backlog() / std::max<std::size_t>(num_targets_, 1) + 1);
}

bool server::refused(session_rec& s, session_id sid,
                     const request_options& ro, bool& probe) {
    // Counts the refusal and leaves its text, the concatenation of `parts`,
    // in refusal_, whose capacity is reused.
    const auto refuse = [&](std::int64_t retry_after_ns, const auto&... parts) {
        ++s.shed;
        ++stats_.shed;
        s.met->shed->add(1);
        AURORA_TRACE_COUNTER("admit", "shed", 1);
        aurora::obs::emit_now(aurora::obs::stage::shed, 0, next_serial_++, 0, 0);
        refusal_.clear();
        ((refusal_ += parts), ...);
        refusal_retry_ns_ = retry_after_ns;
        return true;
    };
    if (!s.open) {
        return refuse(0, "session ", std::to_string(sid), " is closed");
    }
    if (s.opts.quota != 0 && s.admitted >= s.opts.quota) {
        return refuse(0, "session ", std::to_string(sid), " quota exhausted (",
                      std::to_string(s.opts.quota), " requests)");
    }
    if (s.queue.size() >= s.opts.max_queued) {
        return refuse(occupancy_retry_hint(), "session ", std::to_string(sid),
                      " queue full (", std::to_string(s.opts.max_queued),
                      " queued)");
    }
    // Priority-aware occupancy shedding: background gives way first, batch
    // next, latency only when the shared backlog is truly full.
    const std::size_t bl = backlog();
    const std::size_t cap = cfg_.capacity;
    switch (s.opts.cls) {
        case qos_class::background:
            if (bl * 100 >= cap * cfg_.shed_background_pct) {
                return refuse(occupancy_retry_hint(), "backlog ",
                              std::to_string(bl), "/", std::to_string(cap),
                              " above the background shed threshold");
            }
            break;
        case qos_class::batch:
            if (bl * 100 >= cap * cfg_.shed_batch_pct) {
                return refuse(occupancy_retry_hint(), "backlog ",
                              std::to_string(bl), "/", std::to_string(cap),
                              " above the batch shed threshold");
            }
            break;
        case qos_class::latency:
            if (bl >= cap) {
                return refuse(occupancy_retry_hint(), "backlog full (",
                              std::to_string(bl), "/", std::to_string(cap), ")");
            }
            break;
    }
    // Breaker check last, so allow() marks a half-open probe only when every
    // other admission gate already passed.
    if (ro.affinity != sched::any_node && ro.affinity > 0) {
        AURORA_CHECK_MSG(static_cast<std::size_t>(ro.affinity) <= num_targets_,
                         "request affinity " << ro.affinity
                                             << " is not a target node");
        breaker& b = breakers_[static_cast<std::size_t>(ro.affinity) - 1];
        const bool half_open = b.state() == breaker_state::half_open;
        if (!b.allow()) {
            // Open: the remaining cooldown. Half-open with the probe slot
            // taken: retry_after() is 0, but every resubmission sheds until
            // the probe settles — hint one dispatch cost so well-behaved
            // clients back off instead of spinning.
            return refuse(
                std::max<std::int64_t>(b.retry_after(), dispatch_cost_ns_),
                "circuit breaker open for node ", std::to_string(ro.affinity));
        }
        probe = half_open; // allow() passed in half_open: this IS the probe
    }
    return false;
}

request server::enqueue(session_rec& s, session_id sid,
                        std::vector<std::byte> msg, const request_options& ro,
                        bool probe) {
    auto r = std::make_shared<detail::request_state>();
    r->sid = sid;
    r->cls = s.opts.cls;
    r->serial = next_serial_++;
    r->submitted_at = sim::now();
    r->deadline_ns = ro.deadline_ns != 0
                         ? ro.deadline_ns
                         : s.opts.default_deadline_ns > 0
                               ? sim::now() + s.opts.default_deadline_ns
                               : 0;
    r->msg = std::move(msg);
    r->probe = probe;
    r->topts.affinity = ro.affinity;
    r->topts.pinned = ro.pinned;
    r->topts.cost_ns = ro.cost_ns;
    r->topts.deadline_ns = r->deadline_ns;
    if (r->deadline_ns > 0) {
        next_expiry_ = std::min(next_expiry_, r->deadline_ns);
    }
    s.queue.push_back(r);
    if (s.queue.size() == 1) {
        queued_sessions_.emplace(sid, &s);
    }
    ++queued_total_;
    s.met->queue_depth->add(1);
    ++s.admitted;
    ++stats_.admitted;
    s.met->admitted->add(1);
    // Opportunistic dispatch: an unloaded server gets sub-poll latency.
    dispatch_queued();
    return request(this, r);
}

void server::expire_request(session_rec& s, const request_ptr& r) {
    r->ph = phase::expired;
    r->error = "request deadline exceeded before dispatch (queued in session " +
               std::to_string(r->sid) + ")";
    r->msg = {};
    ++s.expired;
    ++stats_.expired;
    s.met->expired->add(1);
    AURORA_TRACE_COUNTER("admit", "expired", 1);
    if (r->probe) {
        breakers_[static_cast<std::size_t>(r->topts.affinity) - 1].abort_probe();
    }
    aurora::obs::emit_now(aurora::obs::stage::expired, 0, r->serial, 0, 0);
}

bool server::expire_queued() {
    if (expiry_stale_) {
        next_expiry_ = sim::never;
        for (const auto& [sid, s] : queued_sessions_) {
            for (const request_ptr& r : s->queue) {
                if (r->deadline_ns > 0) {
                    next_expiry_ = std::min(next_expiry_, r->deadline_ns);
                }
            }
        }
        expiry_stale_ = false;
    }
    if (!sim::pass::at(next_expiry_)) {
        return false;
    }
    const sim::time_ns now = sim::now();
    bool progress = false;
    next_expiry_ = sim::never;
    for (auto qit = queued_sessions_.begin(); qit != queued_sessions_.end();) {
        session_rec& s = *qit->second;
        for (auto it = s.queue.begin(); it != s.queue.end();) {
            const request_ptr& r = *it;
            if (r->deadline_ns > 0 && now >= r->deadline_ns) {
                expire_request(s, r);
                s.met->queue_depth->add(-1);
                it = s.queue.erase(it);
                --queued_total_;
                progress = true;
            } else {
                if (r->deadline_ns > 0) {
                    next_expiry_ = std::min(next_expiry_, r->deadline_ns);
                }
                ++it;
            }
        }
        qit = s.queue.empty() ? queued_sessions_.erase(qit) : std::next(qit);
    }
    return progress;
}

std::size_t server::exec_room() const noexcept {
    const std::size_t unfinished = exec_.unfinished();
    return dispatch_window_ > unfinished ? dispatch_window_ - unfinished : 0;
}

bool server::dispatch_queued() {
    bool progress = false;
    // Strict priority across classes; deficit weighted round robin within
    // one. A turn grants the session `weight` dispatch credits; when the
    // window fills mid-turn the leftover credit persists and the cursor
    // stays before the session, so it resumes first once room frees —
    // weights hold even when capacity opens one slot at a time. Iteration
    // order over the session ids is deterministic; sessions without queued
    // work would be skipped anyway, so only queued_sessions_ is walked.
    for (std::size_t c = 0; c < num_qos_classes; ++c) {
        const auto cls = static_cast<qos_class>(c);
        bool round_progress = true;
        while (round_progress && exec_room() > 0) {
            round_progress = false;
            // One full rotation starting after the cursor. A visited session
            // that empties leaves the index; the rest keep their order.
            session_id cursor = rr_after_[c];
            const std::size_t rotation = queued_sessions_.size();
            for (std::size_t step = 0; step < rotation && exec_room() > 0;
                 ++step) {
                auto it = queued_sessions_.upper_bound(cursor);
                if (it == queued_sessions_.end()) {
                    it = queued_sessions_.begin();
                }
                const session_id sid = it->first;
                session_rec& s = *it->second;
                cursor = sid;
                if (s.opts.cls != cls) {
                    continue;
                }
                if (s.quantum == 0) {
                    s.quantum = s.opts.weight;
                }
                while (s.quantum > 0 && !s.queue.empty() && exec_room() > 0) {
                    const request_ptr r = s.queue.front();
                    s.queue.pop_front();
                    expiry_stale_ = expiry_stale_ || r->deadline_ns == next_expiry_;
                    --queued_total_;
                    s.met->queue_depth->add(-1);
                    if (r->deadline_ns > 0 && sim::now() >= r->deadline_ns) {
                        // Expiry costs the session no credit — it freed the
                        // slot rather than using it.
                        expire_request(s, r);
                        continue;
                    }
                    try {
                        r->tid = exec_.submit_serialized(std::move(r->msg),
                                                         r->topts, nullptr, 0);
                    } catch (const admission_error& e) {
                        // Defensive: the room check makes this unreachable,
                        // but never let an admitted request vanish.
                        r->ph = phase::shed;
                        r->error = e.what();
                        r->retry_after_ns = e.retry_after_ns();
                        ++s.shed;
                        ++stats_.shed;
                        s.met->shed->add(1);
                        if (r->probe) {
                            breakers_[static_cast<std::size_t>(
                                          r->topts.affinity) -
                                      1]
                                .abort_probe();
                        }
                        continue;
                    }
                    r->ph = phase::inflight;
                    r->msg = {};
                    inflight_.push_back(r);
                    --s.quantum;
                    progress = true;
                    round_progress = true;
                }
                if (exec_room() == 0 && s.quantum > 0 && !s.queue.empty()) {
                    // Window filled mid-turn: keep the cursor and the credit
                    // so this session is served first when capacity frees.
                    return progress;
                }
                s.quantum = 0;
                rr_after_[c] = sid;
                if (s.queue.empty()) {
                    queued_sessions_.erase(sid);
                }
            }
        }
    }
    return progress;
}

bool server::reconcile() {
    bool progress = false;
    for (auto it = inflight_.begin(); it != inflight_.end();) {
        const request_ptr r = *it;
        if (!exec_.finished(r->tid)) {
            ++it;
            continue;
        }
        session_rec& s = rec_for(r->sid);
        const sched::task_state st = exec_.state_of(r->tid);
        const sched::node_t on = exec_.record_of(r->tid).executed_on;
        breaker* b = on >= 1 && static_cast<std::size_t>(on) <= breakers_.size()
                         ? &breakers_[static_cast<std::size_t>(on) - 1]
                         : nullptr;
        // A probe that never reached its engine (rerouted, expired) settles
        // the outcome breaker normally but must free the probe slot on the
        // engine it was probing, or that breaker wedges half-open.
        if (r->probe && on != r->topts.affinity) {
            breakers_[static_cast<std::size_t>(r->topts.affinity) - 1]
                .abort_probe();
        }
        switch (st) {
            case sched::task_state::done:
                r->ph = phase::done;
                ++s.completed;
                ++stats_.completed;
                s.met->completed->add(1);
                latency_ns_[static_cast<std::size_t>(r->cls)]->record(
                    static_cast<std::uint64_t>(
                        std::max<std::int64_t>(sim::now() - r->submitted_at, 0)));
                if (b != nullptr) {
                    b->record_success();
                }
                break;
            case sched::task_state::expired:
                r->ph = phase::expired;
                r->error =
                    "request deadline exceeded before dispatch (scheduler "
                    "queue, node " +
                    std::to_string(on) + ")";
                ++s.expired;
                ++stats_.expired;
                s.met->expired->add(1);
                if (r->probe && b != nullptr) {
                    b->abort_probe();
                }
                aurora::obs::emit_now(aurora::obs::stage::expired, 0, r->serial,
                                      0, 0);
                break;
            default: { // failed
                r->ph = phase::failed;
                // Carry the executor's root cause so request::get() rethrows
                // it, matching the diagnostics of the non-serving wait_all().
                const std::string& why = exec_.error_of(r->tid);
                r->error = "request failed on node " + std::to_string(on) +
                           (why.empty() ? "" : ": " + why);
                ++s.failed;
                ++stats_.failed;
                s.met->failed->add(1);
                if (b != nullptr) {
                    b->record_failure();
                }
                break;
            }
        }
        it = inflight_.erase(it);
        progress = true;
    }
    return progress;
}

void server::refresh_gauges() {
    for (std::size_t t = 0; t < num_targets_; ++t) {
        breaker_gauges_[t]->set(
            static_cast<std::int64_t>(breakers_[t].state()));
        const std::uint64_t trips = breakers_[t].trips();
        if (trips > trips_exported_[t]) {
            breaker_trips_[t]->add(trips - trips_exported_[t]);
            trips_exported_[t] = trips;
        }
    }
    backlog_gauge_->set(static_cast<std::int64_t>(backlog()));
}

breaker_state server::breaker_of(sched::node_t node) {
    AURORA_CHECK_MSG(node >= 1 &&
                         static_cast<std::size_t>(node) <= breakers_.size(),
                     "node " << node << " has no breaker");
    return breakers_[static_cast<std::size_t>(node) - 1].state();
}

bool server::poll() {
    bool progress = expire_queued();
    progress = dispatch_queued() || progress;
    progress = exec_.poll() || progress;
    progress = reconcile() || progress;
    refresh_gauges();
    return progress;
}

void server::drain() {
    AURORA_TRACE_SPAN("admit", "drain");
    sim::pass_loop loop("admit::server::drain");
    for (; queued_total_ > 0 || !inflight_.empty(); loop.begin()) {
        if (!poll()) {
            loop.park();
        }
    }
    // Settle anything the executor still tracks (e.g. work submitted through
    // scheduler() directly) so the underlying runtime can quiesce too.
    for (; exec_.unfinished() > 0; loop.begin()) {
        if (!exec_.poll()) {
            loop.park();
        }
    }
}

} // namespace aurora::admit
