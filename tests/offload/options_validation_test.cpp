// Runtime-option validation: misconfigurations fail fast with clear errors.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "offload/offload.hpp"
#include "tests/offload/test_kernels.hpp"

namespace ham::offload {
namespace {

/// Sets an environment variable for the enclosing scope, then restores it.
class scoped_env {
public:
    scoped_env(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) {
            old_ = old;
        }
        ::setenv(name, value, 1);
    }
    ~scoped_env() {
        if (old_) {
            ::setenv(name_, old_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    scoped_env(const scoped_env&) = delete;
    scoped_env& operator=(const scoped_env&) = delete;

private:
    const char* name_;
    std::optional<std::string> old_;
};

void expect_run_rejects(runtime_options opt, const char* needle) {
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    try {
        run(plat, opt, [] {});
        FAIL() << "expected rejection: " << needle;
    } catch (const aurora::check_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(OptionsValidation, EmptyTargetsRejected) {
    runtime_options opt;
    opt.targets.clear();
    expect_run_rejects(opt, "targets is empty");
}

TEST(OptionsValidation, ZeroSlotsRejected) {
    runtime_options opt;
    opt.msg_slots = 0;
    expect_run_rejects(opt, "msg_slots");
}

TEST(OptionsValidation, TinyMsgSizeRejected) {
    runtime_options opt;
    opt.msg_size = 64;
    expect_run_rejects(opt, "msg_size");
}

TEST(OptionsValidation, MisalignedMsgSizeRejected) {
    runtime_options opt;
    opt.msg_size = 1001;
    expect_run_rejects(opt, "msg_size");
}

TEST(OptionsValidation, NonexistentVeRejected) {
    runtime_options opt;
    opt.targets = {3}; // test machine has a single VE
    expect_run_rejects(opt, "does not exist");
}

TEST(OptionsValidation, BadSocketRejected) {
    runtime_options opt;
    opt.vh_socket = 5; // test machine has one socket
    expect_run_rejects(opt, "socket");
}

TEST(OptionsValidation, MinimalValidConfigurationWorks) {
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    runtime_options opt;
    opt.msg_slots = 1;
    opt.msg_size = 256;
    EXPECT_EQ(run(plat, opt, [] {
        EXPECT_EQ(sync(1, ham::f2f<&testkernels::add>(1, 2)), 3);
    }), 0);
}

TEST(RuntimeOptions, EnvironmentDoesNotOverrideTheCallersOptions) {
    // The runtime runs with the options its caller passed: variables named
    // like its settings change nothing.
    const scoped_env heal("HAM_AURORA_HEAL", "1");
    const scoped_env retries("HAM_AURORA_FAULT_MAX_RETRIES", "9");

    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    runtime_options opt;
    opt.backend = backend_kind::loopback;
    opt.reply_timeout_ns = 3'000'000;
    opt.max_retries = 2;
    opt.retry_budget = 4;
    opt.retry_budget_refill_ns = 250'000;
    opt.retry_jitter = true;
    opt.recovery.max_attempts = 5;
    opt.recovery.backoff_ns = 100'000;
    run(plat, opt, [&] {
        const runtime_options& got = runtime::current()->options();
        EXPECT_EQ(got.reply_timeout_ns, opt.reply_timeout_ns);
        EXPECT_EQ(got.max_retries, opt.max_retries);
        EXPECT_EQ(got.retry_budget, opt.retry_budget);
        EXPECT_EQ(got.retry_budget_refill_ns, opt.retry_budget_refill_ns);
        EXPECT_EQ(got.retry_jitter, opt.retry_jitter);
        EXPECT_EQ(got.recovery.enabled, opt.recovery.enabled);
        EXPECT_EQ(got.recovery.max_attempts, opt.recovery.max_attempts);
        EXPECT_EQ(got.recovery.backoff_ns, opt.recovery.backoff_ns);
    });
}

} // namespace
} // namespace ham::offload
