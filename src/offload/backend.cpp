#include "offload/backend.hpp"

#include "sim/engine.hpp"
#include "sim/pass.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace ham::offload {

namespace {

/// Virtual timestamp when available; transport latencies are meaningless
/// outside the simulation, so callers skip the histogram then.
[[nodiscard]] std::int64_t vnow() noexcept {
    return sim::in_simulation() ? sim::now() : -1;
}

} // namespace

backend_metrics::backend_metrics(const char* backend_name, node_t node,
                                 const char* poll_trace_name)
    : poll_trace_name_(poll_trace_name) {
    namespace m = aurora::metrics;
    auto& reg = m::registry::global();
    const std::string lbl = m::labels(
        {{"backend", backend_name}, {"node", std::to_string(node)}});
    send_ns_ = &reg.histogram_for("aurora_backend_send_ns", lbl,
                                  "virtual ns per transport send");
    recv_ns_ = &reg.histogram_for("aurora_backend_recv_ns", lbl,
                                  "virtual ns per successful result probe");
    sends_ = &reg.counter_for("aurora_backend_sends_total", lbl,
                              "transport sends posted");
    polls_ = &reg.counter_for("aurora_backend_polls_total", lbl,
                              "result probes (test_result calls)");
    bytes_out_ = &reg.counter_for("aurora_backend_bytes_out_total", lbl,
                                  "message payload bytes sent");
    bytes_in_ = &reg.counter_for("aurora_backend_bytes_in_total", lbl,
                                 "result payload bytes received");
}

backend_metrics::send_timer::send_timer(backend_metrics& m,
                                        std::size_t len) noexcept
    : m_(m), len_(len), t0_(vnow()) {}

backend_metrics::send_timer::~send_timer() {
    m_.sends_->add(1);
    m_.bytes_out_->add(len_);
    if (t0_ >= 0) {
        const std::int64_t dt = sim::now() - t0_;
        m_.send_ns_->record(dt > 0 ? static_cast<std::uint64_t>(dt) : 0);
    }
}

void backend_metrics::count_polls(std::uint64_t n) noexcept {
    polls_->add(n);
#if !defined(HAM_AURORA_TRACE_DISABLED)
    aurora::trace::count("backend", poll_trace_name_, n);
#endif
}

backend_metrics::poll_timer::poll_timer(backend_metrics& m,
                                        sim::time_ns started) noexcept
    : m_(m), t0_(started) {}

void backend_metrics::poll_timer::arrived(std::size_t len) noexcept {
    arrived_ = true;
    arrived_len_ = len;
}

backend_metrics::poll_timer::~poll_timer() {
    if (!arrived_) {
        return;
    }
    m_.bytes_in_->add(arrived_len_);
    if (t0_ >= 0) {
        const std::int64_t dt = sim::now() - t0_;
        m_.recv_ns_->record(dt > 0 ? static_cast<std::uint64_t>(dt) : 0);
    }
}

namespace {
sim::time_ns result_due_of(const void* be, std::uint64_t slot) {
    return static_cast<const backend*>(be)->result_due(
        static_cast<std::uint32_t>(slot));
}

void count_probes_of(void* be, std::uint64_t slot, std::uint64_t n) {
    static_cast<backend*>(be)->count_skipped_probes(
        static_cast<std::uint32_t>(slot), n);
}
} // namespace

bool backend::test_result(std::uint32_t slot, std::vector<std::byte>& out) {
    if (const sim::duration_ns ns = probe_ns(slot); ns > 0) {
        sim::pass::step(ns);
    }
    const bool due = sim::pass::live(&result_due_of, this, slot);
    sim::pass::tally(&count_probes_of, this, slot);
    return due && read_result(slot, out);
}

void backend::respawn(std::uint8_t) {
    AURORA_CHECK_MSG(false, "this backend cannot respawn its target");
}

bool backend::inject_stale_flag(std::uint32_t, std::uint8_t) { return false; }

void backend::stage_put(std::uint32_t, const void*, std::uint64_t) {
    AURORA_CHECK_MSG(false, "this backend has no DMA data path");
}

void backend::stage_get(std::uint32_t, void*, std::uint64_t) {
    AURORA_CHECK_MSG(false, "this backend has no DMA data path");
}

} // namespace ham::offload
