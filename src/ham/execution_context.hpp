// The "current binary" of the executing context.
//
// Real HAM binaries have exactly one handler table each; the simulation runs
// both program images in one process, so library code needs to know which
// image's translation tables apply: the VH image in the host process, the VE
// image in a VE process. The offload runtime installs the right registry per
// simulated process. Simulated processes are fibers sharing one OS thread,
// so the registry is an aurora::context_local: one value per simulated
// process, and one per plain thread outside a simulation.
#pragma once

#include "ham/handler_registry.hpp"
#include "util/check.hpp"
#include "util/context_local.hpp"

namespace ham {

class execution_context {
public:
    /// The registry of the image this context is "executing in".
    [[nodiscard]] static const handler_registry& registry() {
        const handler_registry* reg = current_.get();
        AURORA_CHECK_MSG(reg != nullptr,
                         "no HAM execution context installed in this context");
        return *reg;
    }

    [[nodiscard]] static bool installed() noexcept {
        return current_.get() != nullptr;
    }

    /// RAII installation of an image registry for the current context.
    class scope {
    public:
        explicit scope(const handler_registry& reg) : previous_(current_.get()) {
            current_.set(&reg);
        }
        ~scope() { current_.set(previous_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        const handler_registry* previous_;
    };

private:
    static const aurora::context_local<const handler_registry*> current_;
};

} // namespace ham
