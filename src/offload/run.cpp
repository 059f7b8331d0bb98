#include "offload/run.hpp"

#include <cstring>

#include "ham/execution_context.hpp"
#include "metrics/http_listener.hpp"
#include "metrics/prometheus.hpp"
#include "offload/app_image.hpp"
#include "offload/runtime.hpp"
#include "obs/timeline.hpp"
#include "offload/target.hpp"
#include "trace/summary.hpp"
#include "util/check.hpp"
#include "veos/veos.hpp"

namespace ham::offload {

namespace {

/// The body of one host process: contexts, runtime, user main, teardown.
int run_app_body(aurora::sim::platform& plat, aurora::veos::veos_system& sys,
                 const runtime_options& opt, const std::function<int()>& host_main) {
    // The host binary's translation tables.
    const ham::handler_registry& host_reg = host_image_registry();
    ham::execution_context::scope image_scope(host_reg);

    direct_memory hmem;
    target_context host_ctx(0, target_context::device::vh, &hmem, &plat.costs());
    target_context::scope ctx_scope(host_ctx);

    runtime rt(plat.sim(), &sys, host_reg, opt);
    runtime::scope rt_scope(rt);
    return host_main();
    // runtime destructor performs the orderly shutdown handshake.
}

} // namespace

int detail::run_impl(aurora::sim::platform& plat, const runtime_options& opt,
                     const std::function<int()>& host_main) {
    AURORA_CHECK(host_main != nullptr);
    int exit_code = -1;

    // Telemetry endpoint (HAM_AURORA_METRICS_PORT): the real-time listener
    // thread serves /metrics while the virtual-time workload runs.
    aurora::metrics::maybe_start_from_env();

    aurora::veos::veos_system sys(plat);
    if (sys.find_image(app_image_name) == nullptr) {
        sys.install_image(ham_app_image());
    }

    plat.sim().spawn("VH.host", [&] {
        exit_code = run_app_body(plat, sys, opt, host_main);
    });
    plat.sim().run();
    // Every producer has quiesced; honour HAM_AURORA_TRACE_FILE/_SUMMARY and
    // HAM_AURORA_METRICS_JSON, then keep the scrape endpoint up for
    // HAM_AURORA_METRICS_LINGER_S real seconds.
    aurora::trace::flush_to_env();
    // Timeline reassembly feeds the aurora_obs_* histograms, so it must run
    // between the trace flush (lanes quiesced) and the metrics flush.
    aurora::obs::flush_to_env();
    aurora::metrics::flush_to_env();
    aurora::metrics::linger_from_env();
    return exit_code;
}

app_launcher::app_launcher(aurora::sim::platform& plat)
    : plat_(plat), sys_(std::make_unique<aurora::veos::veos_system>(plat)) {
    if (sys_->find_image(app_image_name) == nullptr) {
        sys_->install_image(ham_app_image());
    }
}

app_launcher::~app_launcher() = default;

app_handle& app_launcher::launch(const runtime_options& opt,
                                 std::function<int()> host_main,
                                 const std::string& name) {
    AURORA_CHECK(host_main != nullptr);
    apps_.push_back(std::make_unique<app_handle>());
    app_handle& handle = *apps_.back();
    plat_.sim().spawn(name, [this, opt, main = std::move(host_main), &handle] {
        handle.exit_code_ = run_app_body(plat_, *sys_, opt, main);
        handle.finished_ = true;
    });
    return handle;
}

} // namespace ham::offload
