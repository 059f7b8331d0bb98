#include "offload/target.hpp"

#include <algorithm>

#include "sim/engine.hpp"

namespace ham::offload {

const aurora::context_local<target_context*> target_context::current_;

void compute_hint(double flops, double bytes, bool vectorised) {
    if (!sim::in_simulation()) {
        return;
    }
    const target_context* ctx = target_context::current();
    // Outside offload code (plain host code), model the VH.
    const bool on_ve = ctx != nullptr && ctx->dev() == target_context::device::ve;
    sim::cost_model fallback;
    const sim::cost_model& cm = (ctx != nullptr && ctx->costs() != nullptr)
                                    ? *ctx->costs()
                                    : fallback;

    double gflops = on_ve ? cm.ve_peak_gflops : cm.vh_peak_gflops;
    const double mem_gb = on_ve ? cm.ve_mem_bw_gb : cm.vh_mem_bw_gb;
    if (on_ve && !vectorised) {
        // Scalar code runs poorly on the VE (paper Sec. I).
        gflops /= 256.0 * cm.ve_scalar_slowdown;
    } else if (!vectorised) {
        gflops /= 8.0; // scalar vs AVX-512 on the VH
    }

    const double t_compute_ns = flops / gflops;            // GFLOP/s = FLOP/ns
    const double t_memory_ns = bytes / mem_gb;             // GB/s = B/ns
    sim::advance(sim::duration_ns(std::max(t_compute_ns, t_memory_ns)));
}

} // namespace ham::offload
