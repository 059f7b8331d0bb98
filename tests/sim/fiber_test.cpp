// Engine tests for what must follow a simulated process across fiber
// switches: libstdc++'s exception state, context_local values (the HAM
// execution context and the offload target context), the unwinding of
// suspended processes on abort, and teardown of a simulation that never ran.
#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ham/execution_context.hpp"
#include "offload/target.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace aurora::sim {
namespace {

using namespace aurora::sim::literals;
using ham::offload::target_context;

std::string what_of(const std::exception_ptr& e) {
    try {
        std::rethrow_exception(e);
    } catch (const std::exception& x) {
        return x.what();
    }
}

TEST(EngineFiber, CaughtExceptionsFollowTheProcess) {
    // "a" enters its handler first and leaves it first, while "b" is still
    // inside its own: the handlers exit in non-LIFO order across processes.
    simulation s;
    std::vector<std::string> seen;
    auto handler = [&](const char* what, duration_ns hold) {
        try {
            throw std::runtime_error(what);
        } catch (const std::runtime_error&) {
            advance(hold); // suspended inside the handler
            seen.push_back(what_of(std::current_exception()));
        }
        EXPECT_EQ(std::current_exception(), nullptr);
    };
    s.spawn("a", [&] { handler("from a", 100_ns); });
    s.spawn("b", [&] {
        advance(10_ns);
        handler("from b", 200_ns);
    });
    s.run();
    EXPECT_EQ(seen, (std::vector<std::string>{"from a", "from b"}));
}

TEST(EngineFiber, UnwindingStateFollowsTheProcess) {
    // "a" suspends in a destructor that runs while its exception unwinds;
    // "b" runs meanwhile and has no exception in flight.
    struct suspend_while_unwinding {
        int* during = nullptr;
        ~suspend_while_unwinding() {
            advance(100_ns);
            *during = std::uncaught_exceptions();
        }
    };
    simulation s;
    int a_during = -1;
    int b_saw = -1;
    bool a_caught = false;
    s.spawn("a", [&] {
        try {
            suspend_while_unwinding guard{&a_during};
            throw std::runtime_error("unwinding");
        } catch (const std::runtime_error&) {
            a_caught = true;
        }
    });
    s.spawn("b", [&] {
        advance(50_ns);
        b_saw = std::uncaught_exceptions();
    });
    s.run();
    EXPECT_EQ(a_during, 1);
    EXPECT_EQ(b_saw, 0);
    EXPECT_TRUE(a_caught);
}

TEST(EngineFiber, EachProcessSeesTheContextItInstalled) {
    const auto reg_main =
        ham::handler_registry::build({.address_base = 0x400000, .layout_seed = 0});
    const auto reg_a =
        ham::handler_registry::build({.address_base = 0x500000, .layout_seed = 1});
    const auto reg_b =
        ham::handler_registry::build({.address_base = 0x600000, .layout_seed = 2});
    target_context ctx_a(0, target_context::device::vh, nullptr, nullptr);
    target_context ctx_b(1, target_context::device::ve, nullptr, nullptr);

    // The thread that calls run() keeps its own installation throughout.
    ham::execution_context::scope main_image(reg_main);
    simulation s;
    int checks = 0;
    auto body = [&](const ham::handler_registry& reg, target_context& ctx) {
        // A process starts with nothing installed.
        EXPECT_FALSE(ham::execution_context::installed());
        EXPECT_EQ(target_context::current(), nullptr);
        ham::execution_context::scope image(reg);
        target_context::scope tc(ctx);
        for (int i = 0; i < 5; ++i) {
            advance(10_ns); // the other process runs in between
            EXPECT_EQ(&ham::execution_context::registry(), &reg);
            EXPECT_EQ(target_context::current(), &ctx);
            ++checks;
        }
    };
    s.spawn("a", [&] { body(reg_a, ctx_a); });
    s.spawn("b", [&] { body(reg_b, ctx_b); });
    s.run();
    EXPECT_EQ(checks, 10);
    EXPECT_EQ(&ham::execution_context::registry(), &reg_main);
    EXPECT_EQ(target_context::current(), nullptr);
}

TEST(EngineFiber, AbortUnwindsSuspendedProcessesBeforeRethrow) {
    struct guard {
        std::vector<std::string>* log;
        std::string name;
        ~guard() {
            // Calling into the engine after the abort fails at once.
            try {
                advance(1_ns);
                log->push_back(name + " advanced");
            } catch (const simulation_aborted&) {
                log->push_back(name + " unwound");
            }
        }
    };
    simulation s;
    event never(s);
    std::vector<std::string> log;
    s.spawn("sleeper", [&] {
        guard g{&log, "sleeper"};
        advance(1_s);
        log.push_back("sleeper woke");
    });
    s.spawn("waiter", [&] {
        guard g{&log, "waiter"};
        never.wait();
    });
    s.spawn("boom", [] {
        advance(10_ns);
        throw std::runtime_error("kaboom");
    });
    try {
        s.run();
        FAIL() << "run() should rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "kaboom");
    }
    std::sort(log.begin(), log.end());
    EXPECT_EQ(log, (std::vector<std::string>{"sleeper unwound", "waiter unwound"}));
    EXPECT_EQ(s.now(), 10);
}

TEST(EngineFiber, SimulationDestroyedWithoutRunReleasesProcesses) {
    auto token = std::make_shared<int>(0);
    {
        simulation s;
        for (int i = 0; i < 4; ++i) {
            s.spawn("p" + std::to_string(i), [token] { advance(1_ns); });
        }
        EXPECT_EQ(token.use_count(), 5);
    }
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace aurora::sim
