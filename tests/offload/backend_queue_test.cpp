// Tests of the queue backend, once per kind it serves: the generic TCP/IP
// backend (paper Fig. 1) and the in-process loopback.
#include <numeric>

#include <gtest/gtest.h>

#include "offload/offload.hpp"
#include "tests/offload/test_kernels.hpp"

namespace ham::offload {
namespace {

namespace tk = testkernels;

class QueueBackend : public ::testing::TestWithParam<backend_kind> {
protected:
    [[nodiscard]] runtime_options opts() const {
        runtime_options opt;
        opt.backend = GetParam();
        return opt;
    }

    void run_on_kind(const std::function<void()>& body) {
        aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
        ASSERT_EQ(run(plat, opts(), body), 0);
    }
};

/// Mean virtual cost of a warm empty offload on `kind`.
double empty_offload_ns(backend_kind kind) {
    double c = 0.0;
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    runtime_options opt;
    opt.backend = kind;
    run(plat, opt, [&] {
        sync(1, ham::f2f<&tk::empty_kernel>());
        const aurora::sim::time_ns t0 = aurora::sim::now();
        for (int i = 0; i < 10; ++i) sync(1, ham::f2f<&tk::empty_kernel>());
        c = double(aurora::sim::now() - t0) / 10;
    });
    return c;
}

TEST_P(QueueBackend, SyncOffload) {
    run_on_kind([] { EXPECT_EQ(sync(1, ham::f2f<&tk::add>(40, 2)), 42); });
}

TEST_P(QueueBackend, AsyncSequenceInOrder) {
    run_on_kind([] {
        std::vector<future<int>> fs;
        for (int i = 0; i < 12; ++i) {
            fs.push_back(async(1, ham::f2f<&tk::add>(i, 100)));
        }
        for (int i = 0; i < 12; ++i) {
            EXPECT_EQ(fs[std::size_t(i)].get(), 100 + i);
        }
    });
}

TEST_P(QueueBackend, PutGetRoundTrip) {
    run_on_kind([] {
        std::vector<std::int64_t> v(500);
        std::iota(v.begin(), v.end(), -250);
        auto buf = allocate<std::int64_t>(1, v.size());
        put(v.data(), buf, v.size()).get();
        std::vector<std::int64_t> back(v.size());
        get(buf, back.data(), back.size()).get();
        EXPECT_EQ(v, back);
        free(buf);
    });
}

TEST_P(QueueBackend, OffloadCostCoversTheWireRoundTrip) {
    // One offload pays at least a message hop and a result hop, each with its
    // delivery latency: tens of microseconds over TCP, far above the DMA
    // protocol; a few hundred nanoseconds of hand-offs on loopback.
    const bool tcp = GetParam() == backend_kind::tcp;
    run_on_kind([tcp] {
        sync(1, ham::f2f<&tk::empty_kernel>()); // warm-up
        const aurora::sim::time_ns t0 = aurora::sim::now();
        sync(1, ham::f2f<&tk::empty_kernel>());
        const double cost = double(aurora::sim::now() - t0);
        const aurora::sim::cost_model cm;
        EXPECT_GE(cost, tcp ? double(2 * (cm.tcp_per_msg_ns + cm.tcp_half_rtt_ns))
                            : double(2 * cm.local_poll_ns));
        EXPECT_LT(cost, tcp ? 200'000.0 : 6'000.0);
    });
}

TEST_P(QueueBackend, LatencyOrderingVsOtherBackends) {
    // loopback < vedma < tcp < veo: the specialised DMA protocol beats the
    // generic network path; the VEO software stack is the slowest.
    const double self = empty_offload_ns(GetParam());
    const double dma = empty_offload_ns(backend_kind::vedma);
    if (GetParam() == backend_kind::loopback) {
        EXPECT_LT(self, dma);
    } else {
        EXPECT_LT(dma, self);
        EXPECT_LT(self, empty_offload_ns(backend_kind::veo));
    }
}

TEST_P(QueueBackend, DescriptorIdentifiesTheKind) {
    const bool tcp = GetParam() == backend_kind::tcp;
    run_on_kind([tcp] {
        const node_descriptor d = get_node_descriptor(1);
        EXPECT_EQ(d.name, tcp ? "tcp-1" : "loopback-1");
        EXPECT_EQ(d.device_type, tcp ? "generic TCP/IP peer" : "in-process loopback");
        EXPECT_EQ(d.ve_id, -1);
    });
}

TEST_P(QueueBackend, TargetExceptionPropagates) {
    run_on_kind([] {
        auto f = async(1, ham::f2f<&tk::failing_kernel>());
        EXPECT_THROW((void)f.get(), offload_error);
    });
}

TEST_P(QueueBackend, PinnedVirtualCosts) {
    // Each kind's exact virtual costs on the test machine. The switch count
    // covers the whole run (start-up and teardown included), so a stray
    // zero-length advance — a yield — shows even where it costs no time.
    // Result waits park between probes (sim::poll), so both kinds switch
    // only when a message, a result or a transfer moves.
    struct pinned {
        aurora::sim::duration_ns sync_ns;
        aurora::sim::duration_ns put_get_ns;
        std::uint64_t switches;
    };
    const pinned want = GetParam() == backend_kind::tcp ? pinned{83'903, 102'052, 15}
                                                        : pinned{2'400, 694, 15};
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    aurora::sim::duration_ns sync_ns = 0;
    aurora::sim::duration_ns put_get_ns = 0;
    ASSERT_EQ(run(plat, opts(),
                  [&] {
                      sync(1, ham::f2f<&tk::empty_kernel>()); // warm-up
                      aurora::sim::time_ns t0 = aurora::sim::now();
                      sync(1, ham::f2f<&tk::empty_kernel>());
                      sync_ns = aurora::sim::now() - t0;
                      std::vector<std::byte> v(4096, std::byte{0x5A});
                      std::vector<std::byte> back(v.size());
                      auto buf = allocate<std::byte>(1, v.size());
                      t0 = aurora::sim::now();
                      put(v.data(), buf, v.size()).get();
                      get(buf, back.data(), back.size()).get();
                      put_get_ns = aurora::sim::now() - t0;
                      EXPECT_EQ(v, back);
                      free(buf);
                  }),
              0);
    EXPECT_EQ(sync_ns, want.sync_ns);
    EXPECT_EQ(put_get_ns, want.put_get_ns);
    EXPECT_EQ(plat.sim().stats().context_switches, want.switches);
}

INSTANTIATE_TEST_SUITE_P(Kinds, QueueBackend,
                         ::testing::Values(backend_kind::loopback,
                                           backend_kind::tcp),
                         [](const auto& param_info) {
                             return std::string(to_string(param_info.param));
                         });

} // namespace
} // namespace ham::offload
