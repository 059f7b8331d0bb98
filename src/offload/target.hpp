// Target-side execution context.
//
// On the real machine, offloaded code dereferences target pointers natively.
// In the simulation, target memory may be simulated HBM2 behind an address
// translation, so buffer_ptr<T> accesses route through the target_context
// that the target message loop installs in its simulated process. The context
// also carries the device's compute-throughput model so kernels can charge
// realistic execution time with compute_hint().
#pragma once

#include <cstdint>

#include "offload/types.hpp"
#include "sim/cost_model.hpp"
#include "util/context_local.hpp"

namespace ham::offload {

/// Abstract access to the executing node's memory.
class target_memory {
public:
    virtual ~target_memory() = default;
    virtual void read(std::uint64_t addr, void* dst, std::uint64_t len) = 0;
    virtual void write(std::uint64_t addr, const void* src, std::uint64_t len) = 0;
};

/// Per-process context while executing on an offload target (or the host).
class target_context {
public:
    enum class device { vh, ve };

    target_context(node_t node, device dev, target_memory* mem,
                   const sim::cost_model* costs)
        : node_(node), dev_(dev), mem_(mem), costs_(costs) {}

    [[nodiscard]] node_t node() const noexcept { return node_; }
    [[nodiscard]] device dev() const noexcept { return dev_; }
    [[nodiscard]] target_memory* memory() const noexcept { return mem_; }
    [[nodiscard]] const sim::cost_model* costs() const noexcept { return costs_; }

    /// The context of the executing simulated process or thread (nullptr
    /// outside offload code).
    [[nodiscard]] static target_context* current() noexcept {
        return current_.get();
    }

    /// RAII installation.
    class scope {
    public:
        explicit scope(target_context& ctx) : previous_(current_.get()) {
            current_.set(&ctx);
        }
        ~scope() { current_.set(previous_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        target_context* previous_;
    };

private:
    static const aurora::context_local<target_context*> current_;

    node_t node_;
    device dev_;
    target_memory* mem_;
    const sim::cost_model* costs_;
};

/// Charge the modeled execution time of a kernel doing `flops` floating point
/// operations over `bytes` of memory traffic on the current device (Table I
/// throughputs). `vectorised` selects vector vs scalar execution on the VE.
/// No-op outside a simulated process.
void compute_hint(double flops, double bytes, bool vectorised = true);

} // namespace ham::offload
