#include "offload/runtime.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "offload/app_image.hpp"
#include "offload/backend_queue.hpp"
#include "offload/backend_vedma.hpp"
#include "offload/backend_veo.hpp"
#include "sim/engine.hpp"
#include "sim/pass.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "veos/veos.hpp"

namespace ham::offload {

const aurora::context_local<runtime*> runtime::current_;

/// Backing-region supplier for a target's arena: one backend allocate_bytes
/// per region instead of one per user buffer. Failure is reported as 0 (the
/// arena turns it into a clean oom_error); a dead or mid-recovery target
/// supplies nothing.
struct runtime::target_arena_source final : aurora::mem::region_source {
    explicit target_arena_source(target_state& ts) : t(ts) {}

    std::uint64_t alloc_region(std::uint64_t bytes) override {
        if (t.be == nullptr || t.health == target_health::failed ||
            t.health == target_health::recovering) {
            return 0;
        }
        try {
            return t.be->allocate_bytes(bytes);
        } catch (const aurora::check_error&) {
            return 0; // target memory exhausted — surface as arena OOM
        }
    }

    void free_region(std::uint64_t addr, std::uint64_t /*bytes*/) override {
        if (t.be == nullptr || t.health == target_health::failed ||
            t.health == target_health::recovering) {
            return; // the incarnation (and its memory) is already gone
        }
        t.be->free_bytes(addr);
    }

    target_state& t;
};

namespace {

/// Initial virtual backoff after a transient send-post failure; doubles per
/// consecutive retry of the same message.
constexpr std::int64_t send_backoff_ns = 20'000;
/// Upper bound for recovery's doubled re-attach backoff.
constexpr std::int64_t recovery_backoff_max_ns = 10'000'000;
/// Transfers below this stay on the staged path: a first-touch zero-copy
/// transfer pays two DMAATB registrations, which only amortises on big or
/// repeated transfers.
constexpr std::uint64_t zero_copy_min_bytes = 32 * 1024;

std::string failed_what(node_t node, const std::string& reason) {
    std::string what = "offload target node " + std::to_string(node) + " failed";
    if (!reason.empty()) {
        what += ": " + reason;
    }
    return what;
}

} // namespace

void runtime::bind_instruments(target_state& t, node_t node) {
    namespace m = aurora::metrics;
    auto& reg = m::registry::global();
    const std::string lbl = m::labels(
        {{"backend", to_string(opt_.backend)}, {"node", std::to_string(node)}});
    auto ctr = [&](const char* name, const char* help) {
        return &reg.counter_for(name, lbl, help);
    };
    t.met.messages_sent =
        ctr("aurora_offload_messages_total", "user offload messages sent");
    t.met.batches_sent =
        ctr("aurora_offload_batches_total", "coalesced batch messages sent");
    t.met.results_received =
        ctr("aurora_offload_results_total", "results collected from targets");
    t.met.bytes_put =
        ctr("aurora_offload_bytes_put_total", "bytes written to targets (put)");
    t.met.bytes_got =
        ctr("aurora_offload_bytes_got_total", "bytes read from targets (get)");
    t.met.data_chunks = ctr("aurora_offload_data_chunks_total",
                            "pipelined data-path chunks transferred");
    t.met.retransmits = ctr("aurora_offload_retransmits_total",
                            "reply-timeout-driven retransmissions");
    t.met.corrupt_retries = ctr("aurora_offload_corrupt_retries_total",
                                "checksum NACKs answered by resend");
    t.met.send_retries = ctr("aurora_offload_send_retries_total",
                             "transient send-post retries");
    t.met.retries_suppressed =
        ctr("aurora_offload_retries_suppressed_total",
            "retransmits deferred because the retry token bucket was empty");
    t.met.roundtrip_ns = &reg.histogram_for(
        "aurora_offload_roundtrip_ns", lbl,
        "virtual ns from message post to result arrival, per slot");
    t.met.msg_bytes = &reg.histogram_for("aurora_offload_msg_bytes", lbl,
                                         "serialized offload message sizes");
    t.met.health = &reg.gauge_for(
        "aurora_target_health", lbl,
        "target health state (0=healthy, 1=degraded, 2=failed, 3=recovering, "
        "4=probation)");
    t.met.inflight = &reg.gauge_for(
        "aurora_offload_inflight", lbl,
        "slots holding an uncollected request");
    t.met.queue_depth = &reg.gauge_for(
        "aurora_offload_queue_depth", lbl,
        "results arrived but not yet collected");
    t.met.recoveries = ctr("aurora_heal_recoveries_total",
                           "completed target recoveries (respawn + replay)");
    t.met.recovery_attempts = ctr("aurora_heal_recovery_attempts_total",
                                  "re-attach attempts during recovery");
    t.met.replayed = ctr("aurora_heal_replayed_total",
                         "un-acked messages replayed after a respawn");
    t.met.epoch = &reg.gauge_for("aurora_heal_epoch", lbl,
                                 "current target incarnation (0 = initial)");
    t.met.mttr_ns = &reg.histogram_for(
        "aurora_heal_mttr_ns", lbl,
        "virtual ns from failure detection to first post-recovery result");
    t.met.base.messages_sent = t.met.messages_sent->value();
    t.met.base.batches_sent = t.met.batches_sent->value();
    t.met.base.results_received = t.met.results_received->value();
    t.met.base.bytes_put = t.met.bytes_put->value();
    t.met.base.bytes_got = t.met.bytes_got->value();
    t.met.base.data_chunks = t.met.data_chunks->value();
    t.met.base.retransmits = t.met.retransmits->value();
    t.met.base.corrupt_retries = t.met.corrupt_retries->value();
    t.met.base.send_retries = t.met.send_retries->value();
    t.met.base.recoveries = t.met.recoveries->value();
    t.met.base.replayed = t.met.replayed->value();
}

void runtime::note_stage(target_state& t, node_t node, aurora::obs::stage s,
                         std::uint64_t ticket, std::uint32_t slot,
                         std::uint32_t info, sim::time_ns at) {
    const auto slot16 = static_cast<std::uint16_t>(slot);
    t.flight->note(s, ticket, slot16, t.epoch, info);
    if (aurora::obs::enabled()) {
        aurora::obs::emit(s, gid(node), ticket, slot16, t.epoch,
                          static_cast<std::uint64_t>(at));
    }
}

void runtime::set_health(target_state& t, target_health h) {
    t.health = h;
    ++health_version_;
    if (t.met.health != nullptr) {
        t.met.health->set(static_cast<std::int64_t>(h));
    }
}

void runtime::reset_streak(target_state& t) {
    t.ok_streak = 0;
    ++health_version_;
}

runtime::runtime(sim::simulation& sim, aurora::veos::veos_system* sys,
                 const ham::handler_registry& host_reg, runtime_options opt)
    : sim_(sim), sys_(sys), host_reg_(host_reg), opt_(std::move(opt)) {
    AURORA_CHECK_MSG(sim::in_simulation(),
                     "the HAM-Offload runtime must run on a simulated VH process");
    AURORA_CHECK_MSG(opt_.backend == backend_kind::loopback ||
                         opt_.backend == backend_kind::tcp || sys_ != nullptr,
                     "VEO/VE-DMA backends need a veos_system");
    AURORA_CHECK_MSG(!opt_.targets.empty(), "runtime_options.targets is empty");
    AURORA_CHECK_MSG(opt_.msg_slots >= 1 && opt_.msg_slots <= 0xFFFE,
                     "msg_slots must be in [1, 65534]");
    AURORA_CHECK_MSG(opt_.msg_size >= 256 && opt_.msg_size % 8 == 0,
                     "msg_size must be >= 256 and 8-byte aligned");
    AURORA_CHECK_MSG(opt_.msg_size <= protocol::max_flag_len,
                     "msg_size exceeds the 24-bit flag length field");
    if (sys_ != nullptr && opt_.backend != backend_kind::loopback &&
        opt_.backend != backend_kind::tcp) {
        for (const int t : opt_.targets) {
            AURORA_CHECK_MSG(t >= 0 && t < sys_->num_ve(),
                             "target VE " << t << " does not exist (machine has "
                                          << sys_->num_ve() << " VEs)");
        }
    }
    costs_ = sys_ != nullptr ? sys_->plat().costs() : sim::cost_model{};

    auto& inj = aurora::fault::injector::instance();
    if (inj.active() && opt_.reply_timeout_ns == 0) {
        // Injection without timeouts would hang on the first dropped message.
        opt_.reply_timeout_ns = 1'000'000;
    }
    // The refill period is a divisor: keep it positive.
    opt_.retry_budget_refill_ns =
        std::max<std::int64_t>(opt_.retry_budget_refill_ns, 1);
    // Recovery needs the pending-wire copies to replay, so it implies the
    // resilient bookkeeping even without an injector or timeouts.
    resilient_ = inj.active() || opt_.reply_timeout_ns > 0 || opt_.recovery.enabled;

    node_t node = 1;
    for (const int target : opt_.targets) {
        auto state = std::make_unique<target_state>();
        // The backend-facing identity: fault schedules, target contexts and
        // metric labels all see the cluster-unique id (aurora::net tenants
        // set node_base; the single-machine default keeps gid == node).
        const node_t gid = static_cast<node_t>(opt_.node_base) + node;
        // Black box: shared across incarnations and runtimes via the
        // process-wide registry, so a postmortem survives our teardown.
        aurora::obs::flight_ring& flight =
            aurora::obs::flight_registry::ring_for(std::uint16_t(gid));
        state->flight = &flight;
        try {
            if (inj.take_attach_failure(int(gid))) {
                throw target_attach_error("injected attach failure on node " +
                                          std::to_string(gid));
            }
            switch (opt_.backend) {
                case backend_kind::loopback:
                case backend_kind::tcp:
                    state->be = std::make_unique<backend_queue>(
                        sim_, queue_target_image_registry(), costs_, opt_, gid,
                        flight);
                    break;
                case backend_kind::veo:
                    state->be = std::make_unique<backend_veo>(
                        *sys_, target, gid, opt_, flight);
                    break;
                case backend_kind::vedma:
                    state->be = std::make_unique<backend_vedma>(
                        *sys_, target, gid, opt_, flight);
                    break;
            }
            state->slot_ticket.assign(state->be->slot_count(), 0);
        } catch (const target_attach_error& e) {
            // Recoverable: the runtime continues with the remaining targets;
            // this node is born failed and every send to it throws.
            state->be = nullptr;
            state->slot_ticket.assign(opt_.msg_slots, 0);
            state->health = target_health::failed;
            state->fail_reason = e.what();
        }
        state->slot_sent_ns.assign(state->slot_ticket.size(), 0);
        state->slot_posted_ns.assign(state->slot_ticket.size(), 0);
        state->retry_tokens = opt_.retry_budget;
        state->retry_refill_at = sim::now();
        bind_instruments(*state, gid);
        set_health(*state, state->health);
        targets_.push_back(std::move(state));
        ++node;
    }
    const bool any_attached =
        std::any_of(targets_.begin(), targets_.end(),
                    [](const auto& t) { return t->be != nullptr; });
    if (!any_attached) {
        throw target_attach_error("all offload targets failed to attach: " +
                                  targets_.front()->fail_reason);
    }
}

runtime::~runtime() {
    try {
        shutdown();
    } catch (const sim::simulation_aborted&) {
        // unwinding an aborted simulation — nothing more to do
    }
}

void runtime::shutdown() {
    if (shut_down_) {
        return;
    }
    // Graceful path: give every recovering target its chance to respawn and
    // finish the replayed work before the terminate handshake (drain() is a
    // no-op when nothing is outstanding). Only then disable recovery.
    if (opt_.recovery.enabled) {
        drain();
    }
    shut_down_ = true;
    // Terminate every live target: a control message through the regular slot
    // discipline, acknowledged by a result message. Failed targets were fenced
    // already; unattached ones never started.
    for (std::size_t i = 0; i < targets_.size(); ++i) {
        target_state& t = *targets_[i];
        const auto node = static_cast<node_t>(i + 1);
        if (t.be == nullptr) {
            continue;
        }
        if (t.health == target_health::failed) {
            t.be->abandon();
            continue;
        }
        if (t.arena != nullptr) {
            // Return the backing regions while the target process is still
            // alive: after the terminate handshake there is no process to
            // free against. Lingering user buffers (if any) are dropped with
            // their regions; mem-correctness CI asserts bytes_in_use == 0.
            t.arena->release_all();
        }
        AURORA_TRACE_SPAN("offload", "terminate");
        try {
            const std::uint32_t slot = acquire_slot(t, node);
            const std::uint64_t ticket =
                post_on_slot(t, node, slot, nullptr, 0,
                             protocol::msg_kind::terminate);
            std::vector<std::byte> ack;
            wait_collect_until(node, ticket, slot, ack, detail::no_deadline);
        } catch (const target_failed_error&) {
            // The target died during the handshake — fail_target fenced it.
        }
        if (t.health != target_health::failed) {
            t.be->shutdown();
        }
    }
}

runtime::target_state& runtime::state_for(node_t node) {
    AURORA_CHECK_MSG(node >= 1 && std::size_t(node) <= targets_.size(),
                     "node " << node << " is not an offload target (have "
                             << targets_.size() << " targets)");
    return *targets_[std::size_t(node - 1)];
}

backend& runtime::backend_for(node_t node) {
    target_state& t = state_for(node);
    AURORA_CHECK_MSG(t.be != nullptr, "node " << node << " never attached");
    return *t.be;
}

node_descriptor runtime::descriptor(node_t node) const {
    if (node == 0) {
        node_descriptor d;
        d.name = "host";
        d.device_type = "Intel Xeon Gold 6126 (VH)";
        d.node = 0;
        d.ve_id = -1;
        return d;
    }
    AURORA_CHECK_MSG(node >= 1 && std::size_t(node) <= targets_.size(),
                     "no node " << node);
    const target_state& t = *targets_[std::size_t(node - 1)];
    if (t.be == nullptr) {
        node_descriptor d;
        d.name = "node" + std::to_string(node);
        d.device_type = "unattached";
        d.node = node;
        d.ve_id = -1;
        return d;
    }
    return t.be->descriptor();
}

target_health runtime::health(node_t node) {
    return state_for(node).health;
}

std::uint32_t runtime::probation_progress(node_t node) {
    return state_for(node).ok_streak;
}

std::uint8_t runtime::target_epoch(node_t node) {
    return state_for(node).epoch;
}

const std::string& runtime::failure_reason(node_t node) {
    return state_for(node).fail_reason;
}

void runtime::ensure_sendable(target_state& t, node_t node) {
    if (t.health == target_health::failed || t.be == nullptr) {
        throw target_failed_error(failed_what(node, t.fail_reason));
    }
}

void runtime::note_transient_fault(target_state& t) {
    reset_streak(t);
    if (t.health == target_health::healthy) {
        set_health(t, target_health::degraded);
    }
}

void runtime::settle_failed(target_state& t, std::uint64_t ticket,
                            const std::string& why) {
    protocol::result_header h;
    h.status = protocol::status::target_failed;
    std::vector<std::byte> bytes(sizeof(h) + why.size());
    std::memcpy(bytes.data(), &h, sizeof(h));
    std::memcpy(bytes.data() + sizeof(h), why.data(), why.size());
    t.arrived.emplace(ticket, std::move(bytes));
    t.met.queue_depth->add(1);
}

void runtime::fail_target(node_t node, const std::string& why) {
    target_state& t = state_for(node);
    if (t.health == target_health::failed) {
        return;
    }
    set_health(t, target_health::failed);
    t.fail_reason = why;
    t.mttr_pending = false; // the failure never healed; no repair to time
    AURORA_TRACE_COUNTER("offload", "targets_failed", 1);
    // Fence: make sure the target process exits its loop at the next fault
    // check and stops touching shared state, then tear the transport down.
    aurora::fault::injector::instance().kill_now(opt_.node_base + int(node));
    if (t.be != nullptr) {
        t.be->abandon();
    }
    if (t.arena != nullptr) {
        // The backing memory died with the process: drop the bookkeeping
        // without handing regions back to a backend that no longer has them.
        t.arena->abandon();
    }
    // Settle every outstanding request — in flight or queued for replay —
    // with a synthetic failed result so no future ever blocks on this target.
    for (std::uint32_t s = 0; s < t.slot_ticket.size(); ++s) {
        const std::uint64_t ticket = t.slot_ticket[s];
        if (ticket == 0) {
            continue;
        }
        settle_failed(t, ticket, why);
        note_stage(t, node, aurora::obs::stage::failed, ticket, s, 0, sim::now());
        t.slot_ticket[s] = 0;
        t.slot_sent_ns[s] = 0; // synthetic settlements are not round-trips
        t.slot_posted_ns[s] = 0;
        t.met.inflight->add(-1);
    }
    for (const replay_entry& e : t.replay) {
        settle_failed(t, e.ticket, why);
        note_stage(t, node, aurora::obs::stage::failed, e.ticket, 0, 0,
                   sim::now());
    }
    t.replay.clear();
    t.pending.clear();
    // Black-box dump: the killed requests' partial timelines, straight from
    // the always-on ring (opt-in via HAM_AURORA_OBS_POSTMORTEM_DIR).
    aurora::obs::dump_postmortem_to_env(gid(node), "target_failed", t.epoch,
                                        why);
}

void runtime::on_failure(target_state& t, node_t node, const std::string& why) {
    if (opt_.recovery.enabled && !shut_down_ && t.be != nullptr &&
        t.health != target_health::failed) {
        begin_recovery(t, node, why);
    } else {
        fail_target(node, why);
    }
}

std::int64_t runtime::recovery_backoff(std::uint32_t attempts) const {
    const std::int64_t base = std::max<std::int64_t>(opt_.recovery.backoff_ns, 1);
    const std::int64_t grown = base << std::min<std::uint32_t>(attempts, 6);
    return std::min(grown, std::max(recovery_backoff_max_ns, base));
}

void runtime::begin_recovery(target_state& t, node_t node,
                             const std::string& why) {
    if (t.health != target_health::recovering) {
        // First detection of this failure (re-entry happens when a respawned
        // incarnation dies again mid-replay — the clock keeps its original
        // start so the MTTR covers the whole outage).
        t.failed_at = sim::now();
        t.mttr_pending = true;
        t.recover_attempts = 0;
        t.fail_reason = why;
        AURORA_TRACE_COUNTER("offload", "targets_recovering", 1);
    }
    set_health(t, target_health::recovering);
    reset_streak(t);
    // Fence the dead incarnation and reap its process; quiesce() keeps the
    // delivered-result state harvestable (unlike abandon()).
    aurora::fault::injector::instance().kill_now(opt_.node_base + int(node));
    t.be->quiesce();
    if (t.arena != nullptr) {
        // Epoch teardown: the dead incarnation's VE memory is gone; the arena
        // restarts empty and grows fresh regions from the respawned process.
        t.arena->abandon();
    }
    // Results posted just before the death may still be inside the transport;
    // give them their modeled latency before the final drain reads the slots.
    if (const std::int64_t grace = t.be->result_grace_ns(); grace > 0) {
        sim::advance(grace);
    }
    for (std::uint32_t s = 0; s < t.slot_ticket.size(); ++s) {
        if (t.slot_ticket[s] != 0) {
            harvest_slot(t, s, node);
        }
    }
    // Partition what is still un-acknowledged: user/batch messages with a
    // retained wire copy replay on the next incarnation under their original
    // tickets (exactly-once: the kill fires before execution, so none of
    // these ever ran); anything else settles as failed.
    for (std::uint32_t s = 0; s < t.slot_ticket.size(); ++s) {
        const std::uint64_t ticket = t.slot_ticket[s];
        if (ticket == 0) {
            continue;
        }
        auto it = t.pending.find(s);
        if (it != t.pending.end() &&
            (it->second.kind == protocol::msg_kind::user ||
             it->second.kind == protocol::msg_kind::batch)) {
            t.replay.push_back(
                {ticket, std::move(it->second.wire), it->second.kind});
        } else {
            settle_failed(t, ticket, why);
            note_stage(t, node, aurora::obs::stage::failed, ticket, s, 0,
                       sim::now());
        }
        t.slot_ticket[s] = 0;
        t.slot_sent_ns[s] = 0;
        t.slot_posted_ns[s] = 0;
        t.met.inflight->add(-1);
    }
    t.pending.clear();
    // Black-box dump at the moment of loss: what the dead incarnation had in
    // flight, before the replay rewrites the slots.
    aurora::obs::dump_postmortem_to_env(gid(node), "recovering", t.epoch, why);
    t.next_attempt_at = sim::now() + recovery_backoff(t.recover_attempts);
}

bool runtime::maybe_recover(target_state& t, node_t node) {
    if (t.health != target_health::recovering ||
        !sim::pass::at(t.next_attempt_at)) {
        return false;
    }
    if (t.recover_attempts >= opt_.recovery.max_attempts) {
        fail_target(node, "recovery attempts exhausted: " + t.fail_reason);
        return false;
    }
    ++t.recover_attempts;
    t.met.recovery_attempts->add(1);
    auto& inj = aurora::fault::injector::instance();
    inj.revive(opt_.node_base + int(node));
    const std::uint8_t epoch = protocol::next_epoch(t.epoch);
    try {
        if (inj.take_attach_failure(opt_.node_base + int(node))) {
            throw target_attach_error("injected attach failure during "
                                      "recovery of node " +
                                      std::to_string(node));
        }
        AURORA_TRACE_SPAN("offload", "respawn");
        t.be->respawn(epoch);
    } catch (const target_attach_error& e) {
        if (t.recover_attempts >= opt_.recovery.max_attempts) {
            fail_target(node, std::string("recovery attempts exhausted: ") +
                                  e.what());
        } else {
            t.next_attempt_at = sim::now() + recovery_backoff(t.recover_attempts);
        }
        return false;
    }
    t.epoch = epoch;
    t.met.epoch->set(epoch);
    set_health(t, target_health::probation);
    reset_streak(t);
    t.fail_reason.clear();
    t.met.recoveries->add(1);
    // Replay in ticket order into slots 0.. — the order the fresh target
    // polls its receive slots. Entries stay queued until their repost lands,
    // so a terminal failure mid-replay still settles every ticket.
    std::sort(t.replay.begin(), t.replay.end(),
              [](const replay_entry& a, const replay_entry& b) {
                  return a.ticket < b.ticket;
              });
    std::uint32_t slot = 0;
    while (!t.replay.empty()) {
        if (t.health != target_health::probation) {
            return false; // died again mid-replay; the rest stays queued
        }
        replay_entry& e = t.replay.front();
        try {
            attempt_send(t, node, slot, e.wire.data(), e.wire.size(), e.kind,
                         /*retransmit=*/false);
        } catch (const target_failed_error&) {
            return false;
        }
        t.slot_ticket[slot] = e.ticket;
        t.slot_sent_ns[slot] = sim::now();
        t.slot_posted_ns[slot] = sim::now();
        // A replayed post: same ticket, fresh incarnation. The repost and the
        // wire send collapse into one instant here.
        note_stage(t, node, aurora::obs::stage::post, e.ticket, slot,
                   static_cast<std::uint32_t>(e.wire.size()), sim::now());
        aurora::obs::emit_now(aurora::obs::stage::sent, gid(node), e.ticket,
                              static_cast<std::uint16_t>(slot), epoch);
        t.met.inflight->add(1);
        pending_send p;
        p.kind = e.kind;
        p.attempts = 1;
        p.sent_at = sim::now();
        p.wire = std::move(e.wire);
        t.pending[slot] = std::move(p);
        t.met.replayed->add(1);
        t.replay.erase(t.replay.begin());
        ++slot;
    }
    t.rr = slot % static_cast<std::uint32_t>(t.slot_ticket.size());
    t.recover_attempts = 0;
    return true;
}

void runtime::wait_usable(target_state& t, node_t node) {
    while (t.health == target_health::recovering) {
        if (sim::now() < t.next_attempt_at) {
            sim::sleep_until(t.next_attempt_at);
        }
        maybe_recover(t, node);
    }
    ensure_sendable(t, node);
}

void runtime::drain() {
    AURORA_TRACE_SPAN("offload", "drain");
    for (std::size_t i = 0; i < targets_.size(); ++i) {
        target_state& t = *targets_[i];
        const auto node = static_cast<node_t>(i + 1);
        if (t.be == nullptr) {
            continue;
        }
        const auto slots = static_cast<std::uint32_t>(t.slot_ticket.size());
        sim::pass_loop loop("offload::runtime::drain");
        for (;; loop.begin()) {
            if (t.health == target_health::recovering) {
                if (sim::now() < t.next_attempt_at) {
                    sim::sleep_until(t.next_attempt_at);
                }
                maybe_recover(t, node);
                continue;
            }
            if (t.health == target_health::failed) {
                break;
            }
            bool outstanding = false;
            for (std::uint32_t s = 0; s < slots; ++s) {
                if (t.slot_ticket[s] != 0) {
                    harvest_slot(t, s, node);
                }
                outstanding |= t.slot_ticket[s] != 0;
            }
            if (resilient_) {
                check_deadlines(t, node);
            }
            if (!outstanding && t.replay.empty() &&
                t.health != target_health::recovering) {
                break;
            }
            loop.park(costs_.local_poll_ns);
        }
    }
}

bool runtime::harvest_slot(target_state& t, std::uint32_t slot, node_t node) {
    if (t.slot_ticket[slot] == 0) {
        return false;
    }
    std::vector<std::byte> bytes;
    if (t.be == nullptr || !t.be->test_result(slot, bytes)) {
        return false;
    }
    return absorb_result(t, slot, node, bytes);
}

bool runtime::absorb_result(target_state& t, std::uint32_t slot, node_t node,
                            std::vector<std::byte>& bytes) {
    if (resilient_ && bytes.size() >= sizeof(protocol::result_header)) {
        protocol::result_header h;
        std::memcpy(&h, bytes.data(), sizeof(h));
        if (h.status == protocol::status::corrupt_retry) {
            if (t.health == target_health::recovering) {
                // NACK from the dead incarnation, surfaced by the final
                // drain: discard it — the message replays after the respawn.
                return false;
            }
            // Checksum NACK: the target refused the message without executing
            // it and advanced its generation — resend the clean frame fresh.
            t.met.corrupt_retries->add(1);
            note_transient_fault(t);
            auto it = t.pending.find(slot);
            if (it == t.pending.end() || it->second.attempts > opt_.max_retries) {
                on_failure(t, node, "checksum retries exhausted on slot " +
                                        std::to_string(slot));
                // Terminal: the synthetic result is in `arrived`. Recovering:
                // the ticket moved to the replay queue, still outstanding.
                return t.health == target_health::failed;
            }
            pending_send& p = it->second;
            try {
                attempt_send(t, node, slot, p.wire.data(), p.wire.size(), p.kind,
                             /*retransmit=*/false);
            } catch (const target_failed_error&) {
                return true;
            }
            ++p.attempts;
            p.sent_at = sim::now();
            return false; // still outstanding
        }
    }
    if (resilient_) {
        t.pending.erase(slot);
        if (t.health == target_health::degraded ||
            t.health == target_health::probation) {
            ++t.ok_streak;
            ++health_version_;
            if (t.ok_streak >= opt_.recovery_streak) {
                set_health(t, target_health::healthy);
            }
        }
    }
    if (t.mttr_pending && t.health != target_health::recovering) {
        // First real result after the respawn: the outage is repaired.
        const sim::time_ns mttr = sim::now() - t.failed_at;
        t.met.mttr_ns->record(mttr > 0 ? static_cast<std::uint64_t>(mttr) : 0);
        t.mttr_pending = false;
    }
    if (t.slot_sent_ns[slot] != 0) {
        const sim::time_ns rtt = sim::now() - t.slot_sent_ns[slot];
        t.met.roundtrip_ns->record(
            rtt > 0 ? static_cast<std::uint64_t>(rtt) : 0);
        t.slot_sent_ns[slot] = 0;
    }
    note_stage(t, node, aurora::obs::stage::harvest, t.slot_ticket[slot], slot,
               static_cast<std::uint32_t>(bytes.size()), sim::now());
    t.slot_posted_ns[slot] = 0;
    t.arrived.emplace(t.slot_ticket[slot], std::move(bytes));
    t.slot_ticket[slot] = 0;
    t.met.inflight->add(-1);
    t.met.queue_depth->add(1);
    return true;
}

bool runtime::take_retry_token(target_state& t) {
    if (opt_.retry_budget == 0) {
        return true; // no bucket configured
    }
    // Mint the tokens earned since the last accounting point, then advance
    // that point by exactly the minted amount so fractional progress toward
    // the next token is never lost.
    const sim::time_ns now = sim::now();
    if (t.retry_tokens < opt_.retry_budget && now > t.retry_refill_at) {
        const auto minted = static_cast<std::uint64_t>(
            (now - t.retry_refill_at) / opt_.retry_budget_refill_ns);
        const std::uint64_t take = std::min<std::uint64_t>(
            minted, opt_.retry_budget - t.retry_tokens);
        t.retry_tokens += static_cast<std::uint32_t>(take);
        t.retry_refill_at = t.retry_tokens == opt_.retry_budget
                                ? now
                                : t.retry_refill_at +
                                      static_cast<std::int64_t>(take) *
                                          opt_.retry_budget_refill_ns;
    }
    if (t.retry_tokens == 0) {
        return false;
    }
    --t.retry_tokens;
    return true;
}

io_status runtime::attempt_send(target_state& t, node_t node, std::uint32_t slot,
                                const void* wire, std::size_t len,
                                protocol::msg_kind kind, bool retransmit) {
    ensure_sendable(t, node);
    auto& inj = aurora::fault::injector::instance();
    std::int64_t backoff = send_backoff_ns;
    for (std::uint32_t attempt = 0;; ++attempt) {
        io_status st;
        {
            AURORA_TRACE_SPAN("offload", "send");
            st = t.be->send_message(slot, wire, len, kind, retransmit);
        }
        if (st == io_status::ok) {
            return io_status::ok;
        }
        if (st == io_status::down || attempt >= opt_.max_retries) {
            const std::string why = st == io_status::down
                                        ? "transport down"
                                        : "send retries exhausted on slot " +
                                              std::to_string(slot);
            on_failure(t, node, why);
            // Whether the target went terminal or into recovery, this post
            // did not happen — the caller must not assume a ticket exists.
            throw target_failed_error(failed_what(node, why));
        }
        // Transient post failure: back off (virtual time) and retry. The send
        // path cannot defer (the caller holds the slot), so an empty token
        // bucket paces the retry by waiting out refills in virtual time.
        t.met.send_retries->add(1);
        note_transient_fault(t);
        while (!take_retry_token(t)) {
            t.met.retries_suppressed->add(1);
            sim::advance(opt_.retry_budget_refill_ns);
        }
        sim::advance(backoff);
        // Decorrelated jitter de-synchronises retry herds after a shared
        // stall; plain doubling is kept when injection is off so the
        // established deterministic schedules stay byte-identical.
        backoff = inj.active() && opt_.retry_jitter
                      ? inj.jitter_backoff(send_backoff_ns, backoff,
                                           send_backoff_ns << 6)
                      : backoff * 2;
    }
}

std::uint64_t runtime::post_on_slot(target_state& t, node_t node,
                                    std::uint32_t slot, const void* msg,
                                    std::size_t len, protocol::msg_kind kind) {
    ensure_sendable(t, node);
    // The post begins here: queue_wait ends and the send stage (framing +
    // wire transmission, including transient retries) is attributed to it.
    const sim::time_ns posted_at = sim::now();
    auto& inj = aurora::fault::injector::instance();
    const bool checksummed = inj.active() &&
                             (kind == protocol::msg_kind::user ||
                              kind == protocol::msg_kind::batch);
    std::vector<std::byte> framed;
    const auto* wire = static_cast<const std::byte*>(msg);
    std::size_t wire_len = len;
    if (checksummed) {
        // The overflow arm of the check (framed_len > len) keeps the wrapped
        // length out of resize()/memcpy below.
        const std::size_t framed_len = len + protocol::checksum_bytes;
        AURORA_CHECK_MSG(framed_len > len && framed_len <= opt_.msg_size,
                         "message too large for the fault-mode checksum trailer");
        framed.resize(framed_len);
        if (len > 0) {
            std::memcpy(framed.data(), msg, len);
        }
        const std::uint64_t sum = protocol::fnv1a(framed.data(), len);
        std::memcpy(framed.data() + len, &sum, protocol::checksum_bytes);
        wire = framed.data();
        wire_len = framed.size();
    }
    // Transmit — possibly a corrupted copy. `pending` retains the clean frame,
    // so a NACK-driven resend always recovers.
    if (checksummed && inj.should_corrupt()) {
        std::vector<std::byte> mangled(wire, wire + wire_len);
        inj.corrupt_byte(mangled.data(), mangled.size());
        attempt_send(t, node, slot, mangled.data(), wire_len, kind,
                     /*retransmit=*/false);
    } else {
        attempt_send(t, node, slot, wire, wire_len, kind, /*retransmit=*/false);
    }
    const std::uint64_t ticket = t.next_ticket++;
    t.slot_ticket[slot] = ticket;
    t.slot_sent_ns[slot] = sim::now();
    t.slot_posted_ns[slot] = posted_at;
    t.met.inflight->add(1);
    note_stage(t, node, aurora::obs::stage::post, ticket, slot,
               static_cast<std::uint32_t>(wire_len), posted_at);
    aurora::obs::emit_now(aurora::obs::stage::sent, gid(node), ticket,
                          static_cast<std::uint16_t>(slot), t.epoch);
    if (resilient_) {
        pending_send p;
        p.wire.assign(wire, wire + wire_len);
        p.kind = kind;
        p.attempts = 1;
        p.sent_at = sim::now();
        if (inj.active() && opt_.retry_jitter && opt_.reply_timeout_ns > 0) {
            p.window_jitter_ns = inj.jitter_backoff(
                1, opt_.reply_timeout_ns / 6, opt_.reply_timeout_ns / 2);
        }
        t.pending[slot] = std::move(p);
    }
    return ticket;
}

std::int64_t runtime::reply_window(const pending_send& p) const {
    return (opt_.reply_timeout_ns << std::min<std::uint32_t>(p.attempts - 1, 6)) +
           p.window_jitter_ns;
}

sim::time_ns runtime::deadline_due(const target_state& t) const {
    if (!resilient_ || opt_.reply_timeout_ns <= 0 ||
        t.health == target_health::failed) {
        return sim::never;
    }
    sim::time_ns due = sim::never;
    for (const auto& [slot, p] : t.pending) {
        due = std::min(due, p.sent_at + reply_window(p));
    }
    return due;
}

void runtime::check_deadlines(target_state& t, node_t node) {
    if (!sim::pass::at(deadline_due(t))) {
        return; // no reply window closed yet
    }
    auto& inj = aurora::fault::injector::instance();
    const sim::time_ns now = sim::now();
    for (auto it = t.pending.begin(); it != t.pending.end(); ++it) {
        const std::uint32_t slot = it->first;
        pending_send& p = it->second;
        // The reply window doubles per attempt (capped) so a slow-but-alive
        // target is not hammered into failure; the per-attempt jitter stretch
        // keeps pending slots that stalled together from all retransmitting
        // on the same poll.
        if (now - p.sent_at < reply_window(p)) {
            continue;
        }
        if (p.attempts > opt_.max_retries) {
            on_failure(t, node, "reply timeout: retries exhausted on slot " +
                                    std::to_string(slot));
            return; // the failure handler cleared `pending`
        }
        // Storm suppression: an empty retry bucket defers this retransmit to
        // a later sweep instead of piling more load on a struggling target.
        // Deferrals are counted, never silent, and cost no attempt.
        if (!take_retry_token(t)) {
            t.met.retries_suppressed->add(1);
            continue;
        }
        t.met.retransmits->add(1);
        note_transient_fault(t);
        try {
            // Same generation: the receiver still expects it (the lost flag
            // consumed the bump), so a spurious retransmit is idempotent.
            attempt_send(t, node, slot, p.wire.data(), p.wire.size(), p.kind,
                         /*retransmit=*/true);
        } catch (const target_failed_error&) {
            return;
        }
        ++p.attempts;
        p.sent_at = sim::now();
        if (inj.active() && opt_.retry_jitter) {
            const std::int64_t base =
                opt_.reply_timeout_ns << std::min<std::uint32_t>(p.attempts - 1, 6);
            p.window_jitter_ns = inj.jitter_backoff(1, base / 6, base / 2);
        }
    }
}

std::uint32_t runtime::acquire_slot(target_state& t, node_t node) {
    // Strict round-robin: the target polls its receive slots in order, so the
    // host must fill them in the same order (Sec. III-D: the host does all
    // buffer bookkeeping).
    AURORA_TRACE_SPAN("offload", "slot_wait");
    const std::uint32_t slot = t.rr;
    if (t.slot_ticket[slot] != 0) {
        sim::pass_loop loop("offload::runtime::acquire_slot");
        for (; t.slot_ticket[slot] != 0; loop.begin()) {
            if (harvest_slot(t, slot, node)) {
                break;
            }
            if (resilient_) {
                check_deadlines(t, node);
                if (t.slot_ticket[slot] == 0) {
                    break; // fail_target settled the slot
                }
            }
            loop.park(costs_.local_poll_ns);
        }
    }
    t.rr = (t.rr + 1) % static_cast<std::uint32_t>(t.slot_ticket.size());
    return slot;
}

const runtime::target_statistics& runtime::statistics(node_t node) {
    // The registry is the single source of truth; subtracting the attach-time
    // baselines turns its process-wide cumulative counters into this
    // runtime's counts, so statistics(), runtime_stats(), /metrics and
    // `aurora_info --check` can never disagree.
    target_state& t = state_for(node);
    const target_statistics& b = t.met.base;
    t.stats.messages_sent = t.met.messages_sent->value() - b.messages_sent;
    t.stats.batches_sent = t.met.batches_sent->value() - b.batches_sent;
    t.stats.results_received =
        t.met.results_received->value() - b.results_received;
    t.stats.bytes_put = t.met.bytes_put->value() - b.bytes_put;
    t.stats.bytes_got = t.met.bytes_got->value() - b.bytes_got;
    t.stats.data_chunks = t.met.data_chunks->value() - b.data_chunks;
    t.stats.retransmits = t.met.retransmits->value() - b.retransmits;
    t.stats.corrupt_retries =
        t.met.corrupt_retries->value() - b.corrupt_retries;
    t.stats.send_retries = t.met.send_retries->value() - b.send_retries;
    t.stats.recoveries = t.met.recoveries->value() - b.recoveries;
    t.stats.replayed = t.met.replayed->value() - b.replayed;
    return t.stats;
}

runtime::target_runtime_stats runtime::runtime_stats(node_t node) {
    const target_statistics& st = statistics(node);
    target_state& t = state_for(node);
    target_runtime_stats s;
    s.slots_total = static_cast<std::uint32_t>(t.slot_ticket.size());
    for (const std::uint64_t ticket : t.slot_ticket) {
        s.in_flight += ticket != 0 ? 1 : 0;
    }
    s.queue_depth = static_cast<std::uint32_t>(t.arrived.size());
    s.completed = st.results_received;
    s.health = t.health;
    s.retransmits = st.retransmits;
    s.corrupt_retries = st.corrupt_retries;
    s.send_retries = st.send_retries;
    s.recoveries = st.recoveries;
    s.replayed = st.replayed;
    s.epoch = t.epoch;
    return s;
}

runtime::sent_message runtime::send_on_slot(target_state& t, std::uint32_t slot,
                                            const void* msg, std::size_t len,
                                            protocol::msg_kind kind, node_t node) {
    AURORA_CHECK_MSG(kind == protocol::msg_kind::user ||
                         kind == protocol::msg_kind::batch,
                     "only user and batch messages go through send_message");
    const std::uint64_t ticket = post_on_slot(t, node, slot, msg, len, kind);
    AURORA_TRACE_COUNTER("offload", "sent_bytes", len);
    t.met.messages_sent->add(1);
    t.met.msg_bytes->record(len);
    if (kind == protocol::msg_kind::batch) {
        t.met.batches_sent->add(1);
    }
    return {ticket, slot};
}

runtime::sent_message runtime::send_message(node_t node, const void* msg,
                                            std::size_t len,
                                            protocol::msg_kind kind) {
    target_state& t = state_for(node);
    for (;;) {
        wait_usable(t, node);
        const std::uint32_t slot = acquire_slot(t, node);
        if (t.health == target_health::recovering) {
            // The target died while we waited for the slot; the successful
            // recovery resets the round-robin cursor, so just start over.
            continue;
        }
        return send_on_slot(t, slot, msg, len, kind, node);
    }
}

bool runtime::try_send_message(node_t node, const void* msg, std::size_t len,
                               sent_message& out, protocol::msg_kind kind) {
    target_state& t = state_for(node);
    if (t.health == target_health::failed || t.be == nullptr) {
        return false;
    }
    if (t.health == target_health::recovering && !maybe_recover(t, node)) {
        // Guarantee virtual-time progress toward the backoff deadline so a
        // non-blocking polling loop (aurora::sched) cannot spin forever.
        sim::pass::step(costs_.local_poll_ns);
        return false;
    }
    if (resilient_) {
        check_deadlines(t, node);
        if (t.health != target_health::healthy &&
            t.health != target_health::degraded &&
            t.health != target_health::probation) {
            return false;
        }
    }
    return send_on_cursor(t, node, msg, len, out, kind);
}

bool runtime::send_on_cursor(target_state& t, node_t node, const void* msg,
                             std::size_t len, sent_message& out,
                             protocol::msg_kind kind) {
    // The host must fill slots in strict round-robin order (Sec. III-D), so
    // only the cursor slot is a candidate; harvest it opportunistically.
    const std::uint32_t slot = t.rr;
    if (t.slot_ticket[slot] != 0 && !harvest_slot(t, slot, node)) {
        return false;
    }
    if (t.health == target_health::failed ||
        t.health == target_health::recovering) {
        return false; // the harvest itself declared the target lost
    }
    t.rr = (t.rr + 1) % static_cast<std::uint32_t>(t.slot_ticket.size());
    out = send_on_slot(t, slot, msg, len, kind, node);
    return true;
}

std::uint32_t runtime::slots_available(node_t node) {
    target_state& t = state_for(node);
    if (t.health == target_health::failed || t.be == nullptr) {
        return 0;
    }
    if (t.health == target_health::recovering && !maybe_recover(t, node)) {
        sim::pass::step(costs_.local_poll_ns); // progress toward the backoff
        return 0;
    }
    if (resilient_) {
        check_deadlines(t, node);
    }
    const auto slots = static_cast<std::uint32_t>(t.slot_ticket.size());
    for (std::uint32_t s = 0; s < slots; ++s) {
        if (t.slot_ticket[s] != 0) {
            harvest_slot(t, s, node);
        }
    }
    if (t.health == target_health::failed ||
        t.health == target_health::recovering) {
        return 0;
    }
    std::uint32_t available = 0;
    for (std::uint32_t i = 0; i < slots; ++i) {
        if (t.slot_ticket[(t.rr + i) % slots] != 0) {
            break;
        }
        ++available;
    }
    return available;
}

bool runtime::try_collect(node_t node, std::uint64_t ticket, std::uint32_t slot,
                          std::vector<std::byte>& out) {
    sim::pass::step(costs_.ham_future_check_ns);
    return collect_checked(state_for(node), node, ticket, slot, out);
}

bool runtime::collect_checked(target_state& t, node_t node, std::uint64_t ticket,
                              std::uint32_t slot, std::vector<std::byte>& out) {
    if (t.health == target_health::recovering) {
        maybe_recover(t, node);
    }
    if (resilient_) {
        check_deadlines(t, node);
    }
    if (take_arrived(t, node, ticket, slot, out)) {
        return true;
    }
    const std::uint32_t live = live_slot(t, ticket, slot);
    if (live < t.slot_ticket.size()) {
        // Still outstanding on its slot unless this probe brings it.
        return harvest_slot(t, live, node) &&
               take_arrived(t, node, ticket, slot, out);
    }
    // Not arrived and not on a slot: only legal while the ticket sits in the
    // replay queue of an active recovery. Anything else means the result was
    // consumed twice.
    const bool queued =
        std::any_of(t.replay.begin(), t.replay.end(),
                    [&](const replay_entry& e) { return e.ticket == ticket; });
    AURORA_CHECK_MSG(queued,
                     "future references a result that was already consumed");
    return false;
}

bool runtime::take_arrived(target_state& t, node_t node, std::uint64_t ticket,
                           std::uint32_t slot, std::vector<std::byte>& out) {
    const auto it = t.arrived.find(ticket);
    if (it == t.arrived.end()) {
        return false;
    }
    out = std::move(it->second);
    t.arrived.erase(it);
    t.met.results_received->add(1);
    t.met.queue_depth->add(-1);
    AURORA_TRACE_COUNTER("offload", "result_bytes", out.size());
    aurora::obs::emit_now(aurora::obs::stage::collect, gid(node), ticket,
                          static_cast<std::uint16_t>(slot), t.epoch);
    return true;
}

std::uint32_t runtime::live_slot(const target_state& t, std::uint64_t ticket,
                                 std::uint32_t hint) {
    if (hint < t.slot_ticket.size() && t.slot_ticket[hint] == ticket) {
        return hint;
    }
    const auto pos = std::find(t.slot_ticket.begin(), t.slot_ticket.end(), ticket);
    return static_cast<std::uint32_t>(pos - t.slot_ticket.begin());
}

bool runtime::wait_collect_until(node_t node, std::uint64_t ticket,
                                 std::uint32_t slot, std::vector<std::byte>& out,
                                 sim::time_ns deadline_ns) {
    AURORA_TRACE_SPAN("offload", "wait_result");
    target_state& t = state_for(node);
    sim::pass_loop loop("offload::runtime::wait_collect_until");
    for (;; loop.begin()) {
        if (try_collect(node, ticket, slot, out)) {
            return true;
        }
        if (t.health == target_health::failed || t.be == nullptr) {
            // Safety net — fail_target settles outstanding tickets, so this
            // request must predate the runtime knowing the ticket.
            throw target_failed_error(failed_what(node, t.fail_reason));
        }
        if (sim::pass::at(deadline_ns)) {
            return false;
        }
        if (t.health == target_health::recovering &&
            sim::now() < t.next_attempt_at) {
            sim::sleep_until(std::min(t.next_attempt_at, deadline_ns));
            continue;
        }
        // The loop's pause besides the probe (on veo the probe's
        // veo_read_mem dominates).
        loop.park(costs_.local_poll_ns);
    }
}

void runtime::ensure_arena(target_state& t, node_t node) {
    if (t.arena != nullptr) {
        return;
    }
    t.arena_src = std::make_unique<target_arena_source>(t);
    aurora::mem::arena_options ao;
    ao.label = "node" + std::to_string(opt_.node_base + int(node));
    t.arena = std::make_unique<aurora::mem::arena>(*t.arena_src, ao);
}

std::uint64_t runtime::allocate_raw(node_t node, std::uint64_t bytes) {
    if (node == this_node()) {
        // Host allocation: buffer_ptr on node 0 wraps a real pointer.
        auto block = std::make_unique<std::byte[]>(bytes); // zeroed
        const auto addr = reinterpret_cast<std::uint64_t>(block.get());
        host_heap_.emplace(addr, std::move(block));
        return addr;
    }
    target_state& t = state_for(node);
    wait_usable(t, node);
    if (!opt_.mem_arena) {
        return t.be->allocate_bytes(bytes);
    }
    // aurora::mem: carve the buffer out of a registration-stable backing
    // region. Exhaustion surfaces as a clean oom_error, never an abort.
    ensure_arena(t, node);
    return t.arena->allocate(bytes);
}

void runtime::free_raw(node_t node, std::uint64_t addr) {
    if (node == this_node()) {
        // Idempotent: a buffer_ptr settled twice (e.g. once on the
        // target_failed_error path and again by its owner) must not abort,
        // so an unknown address is ignored.
        host_heap_.erase(addr);
        return;
    }
    target_state& t = state_for(node);
    if (t.health == target_health::failed ||
        t.health == target_health::recovering || t.be == nullptr) {
        return; // the target (incarnation) is gone; its memory went with it
    }
    if (t.arena != nullptr) {
        // Arena frees are idempotent, and an address the arena has never seen
        // (a buffer of a dead incarnation, or a second settlement) is a
        // counted no-op rather than a backend fault.
        t.arena->free(addr);
        return;
    }
    t.be->free_bytes(addr);
}

void runtime::put_raw(node_t node, const void* src, std::uint64_t dst_addr,
                      std::uint64_t len) {
    if (node == this_node()) {
        sim::advance(sim::transfer_ns(len, costs_.vh_memcpy_gib));
        std::memcpy(reinterpret_cast<void*>(dst_addr), src, len);
        return;
    }
    target_state& t = state_for(node);
    wait_usable(t, node);
    t.met.bytes_put->add(len);
    AURORA_TRACE_SPAN("offload", "put");
    AURORA_TRACE_COUNTER("offload", "put_bytes", len);
    if (t.be->has_dma_data_path() && len > 0) {
        if (!zero_copy_transfer(t, node, const_cast<void*>(src), dst_addr, len,
                                /*is_put=*/true)) {
            pipelined_transfer(node, const_cast<void*>(src), dst_addr, len,
                               /*is_put=*/true);
        }
        return;
    }
    t.be->put_bytes(src, dst_addr, len);
}

void runtime::get_raw(node_t node, std::uint64_t src_addr, void* dst,
                      std::uint64_t len) {
    if (node == this_node()) {
        sim::advance(sim::transfer_ns(len, costs_.vh_memcpy_gib));
        std::memcpy(dst, reinterpret_cast<const void*>(src_addr), len);
        return;
    }
    target_state& t = state_for(node);
    wait_usable(t, node);
    t.met.bytes_got->add(len);
    AURORA_TRACE_SPAN("offload", "get");
    AURORA_TRACE_COUNTER("offload", "get_bytes", len);
    if (t.be->has_dma_data_path() && len > 0) {
        if (!zero_copy_transfer(t, node, dst, src_addr, len,
                                /*is_put=*/false)) {
            pipelined_transfer(node, dst, src_addr, len, /*is_put=*/false);
        }
        return;
    }
    t.be->get_bytes(src_addr, dst, len);
}

bool runtime::zero_copy_transfer(target_state& t, node_t node, void* host_buf,
                                 std::uint64_t target_addr, std::uint64_t len,
                                 bool is_put) {
    if (!t.be->supports_zero_copy() || t.arena == nullptr ||
        len < zero_copy_min_bytes) {
        return false;
    }
    // The VE-side DMA engine moves 8-byte-aligned ranges; an unaligned host
    // pointer cannot be registered usefully, and a ragged tail (< 8 B) rides
    // the staged path after the burst.
    const auto host_base = reinterpret_cast<std::uint64_t>(host_buf);
    if (host_base % 8 != 0) {
        return false;
    }
    const std::uint64_t main = len & ~std::uint64_t{7};
    if (main == 0) {
        return false;
    }
    const auto region = t.arena->region_of(target_addr);
    if (!region || target_addr + main > region->base + region->len) {
        return false; // not an arena buffer (or crosses its backing region)
    }

    AURORA_TRACE_SPAN("offload", "zero_copy_transfer");
    protocol::data_msg m;
    m.target_addr = target_addr;
    m.len = main;
    m.host_base = host_base;
    m.host_len = main;
    m.region_base = region->base;
    m.region_len = region->len;

    // One control message covers the whole burst: the VE registers both ends
    // (through its cache) and drives chained DMA descriptors between them.
    const std::uint32_t slot = acquire_slot(t, node);
    const std::uint64_t ticket =
        post_on_slot(t, node, slot, &m, sizeof(m),
                     is_put ? protocol::msg_kind::data_put
                            : protocol::msg_kind::data_get);
    t.met.data_chunks->add(1);
    std::vector<std::byte> ack;
    wait_collect_until(node, ticket, slot, ack, detail::no_deadline);
    if (resilient_ && ack.size() >= sizeof(protocol::result_header)) {
        protocol::result_header h;
        std::memcpy(&h, ack.data(), sizeof(h));
        if (h.status != protocol::status::ok) {
            throw target_failed_error(
                "zero-copy transfer to node " + std::to_string(node) +
                " failed" +
                (t.fail_reason.empty() ? "" : ": " + t.fail_reason));
        }
    }
    if (main < len) {
        pipelined_transfer(node, static_cast<std::byte*>(host_buf) + main,
                           target_addr + main, len - main, is_put);
    }
    return true;
}

void runtime::pipelined_transfer(node_t node, void* host_buf,
                                 std::uint64_t target_addr, std::uint64_t len,
                                 bool is_put) {
    // Extension data path: chunk the transfer through the backend's staging
    // window, pipelining host staging copies with VE-side user-DMA moves.
    AURORA_TRACE_SPAN("offload", "pipelined_transfer");
    target_state& t = state_for(node);
    backend& be = *t.be;
    const std::uint64_t chunk = be.staging_chunk_bytes();
    const std::uint32_t window = be.staging_chunk_count();
    AURORA_CHECK(chunk > 0 && window > 0);

    struct pending {
        bool active = false;
        std::uint64_t ticket = 0;
        std::uint32_t slot = 0;
        std::uint64_t host_off = 0;
        std::uint64_t chunk_len = 0;
    };
    std::vector<pending> inflight(window);
    auto* bytes = static_cast<std::byte*>(host_buf);

    auto retire = [&](pending& p) {
        std::vector<std::byte> ack;
        wait_collect_until(node, p.ticket, p.slot, ack, detail::no_deadline);
        if (resilient_ && ack.size() >= sizeof(protocol::result_header)) {
            protocol::result_header h;
            std::memcpy(&h, ack.data(), sizeof(h));
            if (h.status != protocol::status::ok) {
                throw target_failed_error(
                    "bulk transfer chunk to node " + std::to_string(node) +
                    " failed" +
                    (t.fail_reason.empty() ? "" : ": " + t.fail_reason));
            }
        }
        if (!is_put) {
            be.stage_get(std::uint32_t(&p - inflight.data()), bytes + p.host_off,
                         p.chunk_len);
        }
        p.active = false;
    };

    std::uint64_t off = 0;
    std::uint32_t w = 0;
    while (off < len) {
        const std::uint64_t clen = std::min(chunk, len - off);
        pending& p = inflight[w];
        if (p.active) {
            retire(p);
        }
        if (is_put) {
            be.stage_put(w, bytes + off, clen);
        }
        protocol::data_msg m;
        m.target_addr = target_addr + off;
        m.staging_off = std::uint64_t(w) * chunk;
        m.len = clen;
        const std::uint32_t slot = acquire_slot(t, node);
        p.ticket = post_on_slot(t, node, slot, &m, sizeof(m),
                                is_put ? protocol::msg_kind::data_put
                                       : protocol::msg_kind::data_get);
        p.slot = slot;
        p.host_off = off;
        p.chunk_len = clen;
        p.active = true;
        t.met.data_chunks->add(1);
        off += clen;
        w = (w + 1) % window;
    }
    for (pending& p : inflight) {
        if (p.active) {
            retire(p);
        }
    }
}

} // namespace ham::offload
