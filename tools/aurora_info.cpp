// aurora_info — inspect the simulated platform and its calibrated cost model.
//
//   build/tools/aurora_info                  # platform + cost model dump
//   build/tools/aurora_info --check          # quick end-to-end self-check
//   build/tools/aurora_info --check --wait-healthy <ns>
//                                            # after the self-check offloads,
//                                            # keep poking each target with
//                                            # empty kernels (driving recovery
//                                            # and the probation streak) until
//                                            # every target reports healthy or
//                                            # <ns> of virtual time pass; a
//                                            # timeout fails the check
//   build/tools/aurora_info --trace-summary  # traced offload mix + aggregated
//                                            # per-phase latency summary
//   build/tools/aurora_info --metrics        # run the self-check workload and
//                                            # dump the metrics registry as
//                                            # Prometheus text (exit != 0 when
//                                            # any target ended up failed)
//   build/tools/aurora_info --mem            # run a data-plane workload and
//                                            # dump the aurora::mem registry
//                                            # (arenas, registration caches,
//                                            # staging pools); exit != 0 when
//                                            # any arena still reports bytes
//                                            # in use after teardown
//   build/tools/aurora_info --cluster [--nodes N] [--ves N] [--link PROFILE]
//                                            # boot an aurora::net cluster,
//                                            # echo through every (VH, VE)
//                                            # engine, and print the per-node
//                                            # health/link rollup
//   build/tools/aurora_info --flight         # run a chaos workload (one VE is
//                                            # killed mid-run), then dump every
//                                            # target's flight-recorder black
//                                            # box as postmortem JSON
//   build/tools/aurora_info --admit          # run a multi-tenant overload
//                                            # workload through aurora::admit
//                                            # (a hostile background tenant, a
//                                            # latency victim, deadlines, one
//                                            # engine failing requests) and
//                                            # print the per-tenant rollup plus
//                                            # per-engine breaker states; exit
//                                            # != 0 when any breaker is still
//                                            # open at the end
//
// Useful when recalibrating: every constant of src/sim/cost_model.hpp is
// printed with its derived secondary quantities (sustained rates, round
// trips), and --check runs one offload per backend to confirm the stack is
// alive. --trace-summary force-enables aurora::trace, runs a representative
// offload mix per backend, and prints the per-phase span statistics (also
// honouring HAM_AURORA_TRACE_FILE for the full Chrome JSON).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "admit/server.hpp"
#include "fault/fault.hpp"
#include "mem/registry.hpp"
#include "metrics/metrics.hpp"
#include "obs/flight.hpp"
#include "metrics/prometheus.hpp"
#include "net/net.hpp"
#include "offload/offload.hpp"
#include "sim/platform.hpp"
#include "trace/chrome_export.hpp"
#include "trace/summary.hpp"
#include "trace/trace.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace {

using namespace aurora;

void empty_kernel() {}

void dump_cost_model() {
    const sim::cost_model cm;
    text_table t({"Constant", "Value", "Derived / paper anchor"});
    auto ns = [](sim::duration_ns v) { return format_ns(v); };

    t.add_row({"pcie_one_way_ns", ns(cm.pcie_one_way_ns),
               "RTT 1.2 us (Sec. V-A)"});
    t.add_row({"upi_one_way_ns", ns(cm.upi_one_way_ns),
               "~7 ops/offload => <= 1 us delta"});
    t.add_row({"ve_dma_post_ns + latency", ns(cm.ve_dma_post_ns + cm.ve_dma_latency_ns),
               "small-transfer DMA floor"});
    t.add_row({"ve_dma_read/write_gib",
               std::to_string(cm.ve_dma_read_gib) + " / " +
                   std::to_string(cm.ve_dma_write_gib),
               "Table IV: 10.6 / 11.1 GiB/s"});
    t.add_row({"lhm_word_ns", ns(cm.lhm_word_ns), "8 B / 745 ns = 0.01 GiB/s"});
    t.add_row({"shm_word_ns", ns(cm.shm_word_ns), "8 B / 125 ns = 0.06 GiB/s"});
    t.add_row({"veo_write/read_base_ns",
               ns(cm.veo_write_base_ns) + " / " + ns(cm.veo_read_base_ns),
               "privileged-DMA software cost"});
    t.add_row({"veo_write/read_link_gib",
               std::to_string(cm.veo_write_link_gib) + " / " +
                   std::to_string(cm.veo_read_link_gib),
               "Table IV: 9.9 / 10.4 GiB/s"});
    t.add_row({"veo_call submit/dispatch/completion",
               ns(cm.veo_call_submit_ns) + " / " + ns(cm.veo_call_dispatch_ns) +
                   " / " + ns(cm.veo_call_completion_ns),
               "Fig. 9 native VEO ~80 us"});
    t.add_row({"ham msg construct/dispatch/iter/future",
               ns(cm.ham_msg_construct_ns) + " / " + ns(cm.ham_msg_dispatch_ns) +
                   " / " + ns(cm.ham_runtime_iteration_ns) + " / " +
                   ns(cm.ham_future_check_ns),
               "framework overhead (~5 us of the 6.1)"});
    t.add_row({"tcp half-RTT / per-msg",
               ns(cm.tcp_half_rtt_ns) + " / " + ns(cm.tcp_per_msg_ns),
               "generic backend baseline"});
    std::printf("%s", t.str().c_str());
}

/// Drive every target back to `healthy` or give up after `budget_ns` of
/// virtual time. Sending an empty kernel both advances a recovering target's
/// heal state machine and, once it reaches probation, grows the clean-result
/// streak that promotes it. Returns false on timeout or terminal failure.
bool wait_healthy(ham::offload::runtime& rt, sim::duration_ns budget_ns) {
    const sim::time_ns deadline = sim::now() + budget_ns;
    for (;;) {
        bool all_healthy = true;
        for (ham::offload::node_t n = 1;
             n < static_cast<ham::offload::node_t>(rt.num_nodes()); ++n) {
            const auto h = rt.health(n);
            if (h == ham::offload::target_health::healthy) {
                continue;
            }
            all_healthy = false;
            if (h == ham::offload::target_health::failed) {
                return false; // terminal: no amount of waiting helps
            }
            try {
                ham::offload::sync(n, ham::f2f<&empty_kernel>());
            } catch (const ham::offload::offload_error&) {
                // Terminal failure surfaces on the next health() poll.
            }
        }
        if (all_healthy) {
            return true;
        }
        if (sim::now() >= deadline) {
            return false;
        }
    }
}

int self_check(bool quiet = false, sim::duration_ns wait_healthy_ns = -1) {
    int failures = 0;
    for (const auto kind :
         {ham::offload::backend_kind::loopback, ham::offload::backend_kind::tcp,
          ham::offload::backend_kind::veo, ham::offload::backend_kind::vedma}) {
        sim::platform plat(sim::platform_config::test_machine());
        ham::offload::runtime_options opt;
        opt.backend = kind;
        double us = 0.0;
        bool healthy_in_time = true;
        ham::offload::runtime::target_runtime_stats rs;
        const int rc = ham::offload::run(plat, opt, [&] {
            ham::offload::sync(1, ham::f2f<&empty_kernel>());
            const sim::time_ns t0 = sim::now();
            ham::offload::sync(1, ham::f2f<&empty_kernel>());
            us = double(sim::now() - t0) / 1000.0;
            auto& rt = *ham::offload::runtime::current();
            if (wait_healthy_ns >= 0) {
                healthy_in_time = wait_healthy(rt, wait_healthy_ns);
            }
            rs = rt.runtime_stats(1);
        });
        if (!quiet) {
            std::printf("  %-9s offload round trip: %8.2f us  %s   "
                        "[health %s, slots %u, in-flight %u, queued %u, "
                        "completed %llu, retransmits %llu, epoch %u, "
                        "recoveries %llu, replayed %llu]\n",
                        ham::offload::to_string(kind), us,
                        rc == 0 && healthy_in_time ? "OK" : "FAILED",
                        ham::offload::to_string(rs.health), rs.slots_total,
                        rs.in_flight, rs.queue_depth,
                        static_cast<unsigned long long>(rs.completed),
                        static_cast<unsigned long long>(rs.retransmits),
                        static_cast<unsigned>(rs.epoch),
                        static_cast<unsigned long long>(rs.recoveries),
                        static_cast<unsigned long long>(rs.replayed));
            if (!healthy_in_time) {
                std::fprintf(stderr,
                             "aurora_info: %s target not healthy within "
                             "%lld virtual ns\n",
                             ham::offload::to_string(kind),
                             static_cast<long long>(wait_healthy_ns));
            }
        }
        failures += (rc == 0 && healthy_in_time) ? 0 : 1;
    }
    return failures;
}

/// --metrics: exercise every backend once, then expose the registry the way
/// a Prometheus scrape would see it. Exit code reflects both the workload
/// result and the final target health gauges, so CI can gate on it.
int metrics_dump() {
    const int failures = self_check(/*quiet=*/true);
    const auto families = aurora::metrics::registry::global().snapshot();
    aurora::metrics::dump_prometheus(families, std::cout);
    int failed_targets = 0;
    for (const auto& fam : families) {
        if (fam.name != "aurora_target_health") {
            continue;
        }
        for (const auto& s : fam.series) {
            if (s.value ==
                static_cast<std::int64_t>(ham::offload::target_health::failed)) {
                std::fprintf(stderr, "aurora_info: target {%s} is failed\n",
                             s.labels.c_str());
                ++failed_targets;
            }
        }
    }
    return failures + failed_targets;
}

double add_one(double x) { return x + 1.0; }

/// --mem: exercise the zero-copy data plane (arena churn plus warm
/// transfers), snapshot the aurora::mem registry while the runtime is live
/// (arenas and caches deregister on destruction), and verify that teardown
/// returned every byte.
int mem_dump() {
    sim::platform plat(sim::platform_config::test_machine());
    ham::offload::runtime_options opt;
    opt.backend = ham::offload::backend_kind::vedma;
    opt.vedma_dma_data_path = true; // zero-copy needs the VE-driven path
    mem::mem_registry::snapshot snap;
    const int rc = ham::offload::run(plat, opt, [&] {
        // Churn a few sizes so split/coalesce and bin reuse show up.
        std::vector<ham::offload::buffer_ptr<double>> churn;
        for (int i = 0; i < 16; ++i) {
            churn.push_back(ham::offload::allocate<double>(1, 256u << (i % 5)));
        }
        for (auto& b : churn) {
            ham::offload::free(b);
        }
        // Warm transfers so the VE registration cache accumulates hits.
        constexpr std::size_t n = 64 * 1024;
        auto buf = ham::offload::allocate<double>(1, n);
        std::vector<double> host(n, 1.5);
        for (int i = 0; i < 8; ++i) {
            ham::offload::put(host.data(), buf, n).get();
            ham::offload::get(buf, host.data(), n).get();
        }
        snap = mem::mem_registry::global().snap();
        ham::offload::free(buf);
    });

    std::printf("aurora::mem registry (captured while the runtime was live)\n\n");
    {
        text_table t({"arena", "in use", "reserved", "peak", "allocs", "frees",
                      "dbl-free", "regions", "splits", "coalesces"});
        for (const auto& a : snap.arenas) {
            t.add_row({a.label, format_bytes(a.stats.bytes_in_use),
                       format_bytes(a.stats.bytes_reserved),
                       format_bytes(a.stats.peak_bytes_in_use),
                       std::to_string(a.stats.allocs),
                       std::to_string(a.stats.frees),
                       std::to_string(a.stats.double_frees),
                       std::to_string(a.stats.regions),
                       std::to_string(a.stats.splits),
                       std::to_string(a.stats.coalesces)});
        }
        std::printf("%s\n", t.str().c_str());
    }
    {
        text_table t({"reg-cache", "cap", "entries", "pinned", "hits",
                      "misses", "evictions", "hit rate"});
        for (const auto& c : snap.caches) {
            char rate[16];
            std::snprintf(rate, sizeof(rate), "%.1f%%",
                          c.stats.hit_rate() * 100.0);
            t.add_row({c.label, std::to_string(c.stats.capacity),
                       std::to_string(c.stats.entries),
                       std::to_string(c.stats.pinned),
                       std::to_string(c.stats.hits),
                       std::to_string(c.stats.misses),
                       std::to_string(c.stats.evictions), rate});
        }
        std::printf("%s\n", t.str().c_str());
    }

    // After teardown the registry is empty, but the per-arena gauges persist:
    // any residual bytes_in_use is memory the runtime failed to settle.
    std::int64_t residual = 0;
    for (const auto& fam : aurora::metrics::registry::global().snapshot()) {
        if (fam.name != "aurora_mem_bytes_in_use") {
            continue;
        }
        for (const auto& series : fam.series) {
            residual += series.value;
        }
    }
    std::printf("bytes in use after teardown: %lld %s\n",
                static_cast<long long>(residual),
                residual == 0 ? "(clean)" : "(LEAK)");
    return rc + (residual == 0 ? 0 : 1);
}

/// --cluster: boot an aurora::net cluster on the simulated machine, push one
/// echo offload through every (VH, VE) engine over the chosen link profile,
/// and print the per-node rollup the cluster derives from its gateways.
int cluster_info(int nodes, int ves, const std::string& link_name) {
    const net::link_profile link = net::link_profile::by_name(link_name);
    std::printf("aurora::net cluster — %d node(s) x %d VE(s)\n", nodes, ves);
    std::printf("link %-12s : half RTT %s, per msg %s, %.1f GiB/s, "
                "window %u\n\n",
                link.name.c_str(), format_ns(link.half_rtt_ns).c_str(),
                format_ns(link.per_msg_ns).c_str(), link.bandwidth_gib,
                link.window);

    sim::platform plat(sim::platform_config::test_machine());
    ham::offload::runtime_options opt;
    opt.backend = ham::offload::backend_kind::loopback;
    opt.targets.assign(std::size_t(ves), 0);
    int bad_echoes = 0;
    int unhealthy = 0;
    const int rc = ham::offload::run(plat, opt, [&] {
        net::cluster_options copt;
        copt.nodes = nodes;
        copt.ves_per_node = ves;
        copt.link = link;
        net::cluster c(plat, copt);
        for (int vh = 0; vh < nodes; ++vh) {
            for (int ve = 1; ve <= ves; ++ve) {
                if (c.async(vh, ve, ham::f2f<&add_one>(41.0)).get() != 42.0) {
                    ++bad_echoes;
                }
            }
        }
        text_table t({"node", "VEs", "health", "healthy", "recovering",
                      "failed", "link depth", "outstanding"});
        for (int vh = 0; vh < nodes; ++vh) {
            const net::node_status s = c.status(vh);
            if (s.health != ham::offload::target_health::healthy) {
                ++unhealthy;
            }
            t.add_row({std::to_string(vh), std::to_string(s.ves_total),
                       ham::offload::to_string(s.health),
                       std::to_string(s.ves_healthy),
                       std::to_string(s.ves_recovering),
                       std::to_string(s.ves_failed),
                       vh == 0 ? "-" : std::to_string(s.link_depth),
                       std::to_string(c.outstanding(vh))});
        }
        std::printf("%s", t.str().c_str());
    });
    std::printf("\necho through %d engine(s): %s\n", nodes * ves,
                bad_echoes == 0 && rc == 0 ? "OK" : "FAILED");
    return rc + bad_echoes + unhealthy;
}

/// Run a representative traced offload mix and print the aggregated
/// per-phase summary (spans, counters, drop accounting).
int trace_summary() {
    trace::set_enabled(true);
    trace::collector::instance().reset();

    for (const auto kind : {ham::offload::backend_kind::loopback,
                            ham::offload::backend_kind::vedma}) {
        sim::platform plat(sim::platform_config::test_machine());
        ham::offload::runtime_options opt;
        opt.backend = kind;
        const int rc = ham::offload::run(plat, opt, [&] {
            for (int i = 0; i < 8; ++i) {
                ham::offload::sync(1, ham::f2f<&empty_kernel>());
            }
            auto fut = ham::offload::async(1, ham::f2f<&add_one>(41.0));
            if (fut.get() != 42.0) {
                return 1;
            }
            // Exercise the data path so put/get phases show up too.
            auto buf = ham::offload::allocate<double>(1, 256);
            std::vector<double> host(256, 1.5);
            ham::offload::put(host.data(), buf, 256);
            ham::offload::get(buf, host.data(), 256);
            ham::offload::free(buf);
            return 0;
        });
        if (rc != 0) {
            std::fprintf(stderr, "trace-summary workload failed (backend %d)\n",
                         static_cast<int>(kind));
            return 1;
        }
    }

    const trace::summary s = trace::summarize();
    std::printf("%s", trace::summary_text(s).c_str());
    if (const auto path = aurora::env_string("HAM_AURORA_TRACE_FILE")) {
        trace::write_chrome_json_file(*path);
        std::printf("\nChrome trace written to %s\n", path->c_str());
    }
    return s.events == 0 ? 1 : 0;
}

/// --flight: exercise the always-on black box. Runs a loopback workload in
/// which one VE is deterministically killed mid-run, then dumps every
/// target's flight-recorder ring as postmortem JSON ("on_demand" kind) —
/// including the killed VE, whose ring shows the requests that were in
/// flight when it died. No tracing env vars required: the rings record
/// unconditionally.
int flight_dump() {
    constexpr int num_ves = 3;
    fault::config chaos;
    chaos.enabled = true;
    chaos.seed = 42;
    auto& inj = fault::injector::instance();
    inj.configure(chaos);
    inj.kill_after_messages(2, 3); // VE 2 dies holding its 3rd message

    sim::platform plat(sim::platform_config::test_machine());
    ham::offload::runtime_options opt;
    opt.backend = ham::offload::backend_kind::loopback;
    opt.targets.assign(num_ves, 0);
    opt.reply_timeout_ns = 200'000;
    opt.max_retries = 3;
    const int rc = ham::offload::run(plat, opt, [&] {
        for (int round = 0; round < 6; ++round) {
            for (int ve = 1; ve <= num_ves; ++ve) {
                try {
                    ham::offload::sync(ham::offload::node_t(ve),
                                       ham::f2f<&empty_kernel>());
                } catch (const ham::offload::offload_error&) {
                    // The killed VE's requests fail over / replay; the black
                    // box keeps their partial history either way.
                }
            }
        }
    });
    inj.reset();

    // The registry outlives the runtime, so the dump happens after teardown —
    // exactly how a postmortem inspection works.
    const auto nodes = obs::flight_registry::nodes();
    std::printf("[");
    bool first = true;
    for (const std::uint16_t n : nodes) {
        const obs::flight_ring* ring = obs::flight_registry::find(n);
        if (ring == nullptr || ring->pushed() == 0) {
            continue;
        }
        std::printf("%s\n%s", first ? "" : ",",
                    obs::postmortem_json(n, "on_demand", 0, "").c_str());
        first = false;
    }
    std::printf("\n]\n");
    if (first) {
        std::fprintf(stderr, "aurora_info: no flight-recorder events — the "
                             "black box should be always-on\n");
        return 1;
    }
    return rc;
}

void busy_kernel(std::int64_t ns) { sim::advance(ns); }

void faulty_kernel() { throw std::runtime_error("engine fault"); }

/// --admit: drive the tenant control plane through its whole policy surface —
/// class-priority shedding under a hostile background flood, per-request
/// deadlines expiring in a saturated queue, and a per-engine circuit breaker
/// tripping on a failure streak and closing again through half-open probes.
/// Exit code counts workload failures plus breakers still open at the end
/// (a stuck-open breaker means an engine nobody can be placed on).
int admit_info() {
    sim::platform plat(sim::platform_config::test_machine());
    ham::offload::runtime_options opt;
    opt.backend = ham::offload::backend_kind::loopback;
    opt.targets = {0, 0};
    int stuck_open = 0;
    const int rc = ham::offload::run(plat, opt, [&] {
        admit::server::config cfg;
        cfg.capacity = 32;
        admit::server srv(cfg);

        struct tenant_row {
            const char* name;
            admit::session_id sid;
        };
        admit::session_options so;
        so.tenant = "victim";
        so.cls = admit::qos_class::latency;
        so.weight = 4;
        so.max_queued = 16;
        const admit::session_id victim = srv.open(so);
        so = {};
        so.tenant = "bulk";
        so.cls = admit::qos_class::batch;
        so.weight = 2;
        so.max_queued = 16;
        const admit::session_id bulk = srv.open(so);
        so = {};
        so.tenant = "aggressor";
        so.cls = admit::qos_class::background;
        so.max_queued = 64;
        const admit::session_id aggressor = srv.open(so);

        // Overload rounds: the aggressor floods, the victim submits a steady
        // trickle under a deadline tight enough that saturation misses it.
        for (int round = 0; round < 8; ++round) {
            for (int i = 0; i < 24; ++i) {
                try {
                    srv.submit(aggressor, ham::f2f<&busy_kernel>(
                                              std::int64_t(30'000)));
                } catch (const ham::offload::admission_error&) {
                    // Expected: background work sheds first under load.
                }
            }
            for (int i = 0; i < 4; ++i) {
                try {
                    srv.submit(bulk,
                               ham::f2f<&busy_kernel>(std::int64_t(20'000)));
                } catch (const ham::offload::admission_error&) {
                }
                admit::request_options ro;
                ro.deadline_ns = sim::now() + 120'000;
                try {
                    srv.submit(victim, ham::f2f<&empty_kernel>(), ro);
                } catch (const ham::offload::admission_error&) {
                }
            }
            for (int i = 0; i < 3; ++i) {
                srv.poll();
            }
        }
        srv.drain();

        // Breaker exercise: one session fails requests on engine 1 until its
        // breaker trips, then closes it again through half-open probes.
        so = {};
        so.tenant = "flaky";
        so.cls = admit::qos_class::latency;
        const admit::session_id flaky = srv.open(so);
        admit::request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        for (std::uint32_t i = 0; i < cfg.breaker.failure_threshold; ++i) {
            srv.submit(flaky, ham::f2f<&faulty_kernel>(), pin1).wait();
        }
        const bool tripped =
            srv.breaker_of(1) == admit::breaker_state::open;
        bool shed_while_open = false;
        try {
            srv.submit(flaky, ham::f2f<&empty_kernel>(), pin1);
        } catch (const ham::offload::admission_error&) {
            shed_while_open = true;
        }
        sim::advance(cfg.breaker.cooldown_ns);
        for (std::uint32_t i = 0; i < cfg.breaker.probe_successes; ++i) {
            srv.submit(flaky, ham::f2f<&empty_kernel>(), pin1).wait();
        }
        const bool reclosed =
            srv.breaker_of(1) == admit::breaker_state::closed;
        srv.drain();

        std::printf("aurora::admit — %zu sessions, capacity %zu, "
                    "backlog %zu after drain\n\n",
                    srv.open_sessions(), cfg.capacity, srv.backlog());
        text_table t({"tenant", "class", "admitted", "completed", "shed",
                      "deadline missed", "failed", "queued"});
        const tenant_row rows[] = {{"victim", victim},
                                   {"bulk", bulk},
                                   {"aggressor", aggressor},
                                   {"flaky", flaky}};
        for (const tenant_row& r : rows) {
            const admit::session_stats ss = srv.stats(r.sid);
            const char* cls = r.sid == victim || r.sid == flaky ? "latency"
                              : r.sid == bulk                   ? "batch"
                                                                : "background";
            t.add_row({r.name, cls, std::to_string(ss.admitted),
                       std::to_string(ss.completed), std::to_string(ss.shed),
                       std::to_string(ss.expired), std::to_string(ss.failed),
                       std::to_string(ss.queued)});
        }
        std::printf("%s\n", t.str().c_str());

        text_table bt({"engine", "breaker"});
        for (ham::offload::node_t n = 1;
             n < static_cast<ham::offload::node_t>(
                     ham::offload::runtime::current()->num_nodes());
             ++n) {
            const admit::breaker_state st = srv.breaker_of(n);
            bt.add_row({std::to_string(n), admit::to_string(st)});
            stuck_open += st == admit::breaker_state::open ? 1 : 0;
        }
        std::printf("%s\n", bt.str().c_str());
        std::printf("breaker lifecycle: tripped %s, shed-while-open %s, "
                    "re-closed %s\n",
                    tripped ? "OK" : "FAILED",
                    shed_while_open ? "OK" : "FAILED",
                    reclosed ? "OK" : "FAILED");
        if (!tripped || !shed_while_open || !reclosed) {
            ++stuck_open; // count a broken lifecycle as a failure too
        }
    });
    return rc + stuck_open;
}

} // namespace

int main(int argc, char** argv) {
    if (argc > 1 && std::strcmp(argv[1], "--trace-summary") == 0) {
        return trace_summary();
    }
    if (argc > 1 && std::strcmp(argv[1], "--metrics") == 0) {
        return metrics_dump();
    }
    if (argc > 1 && std::strcmp(argv[1], "--mem") == 0) {
        return mem_dump();
    }
    if (argc > 1 && std::strcmp(argv[1], "--flight") == 0) {
        return flight_dump();
    }
    if (argc > 1 && std::strcmp(argv[1], "--admit") == 0) {
        return admit_info();
    }
    if (argc > 1 && std::strcmp(argv[1], "--cluster") == 0) {
        int nodes = 3, ves = 2;
        std::string link = "ib-hdr";
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
                nodes = std::atoi(argv[++i]);
            } else if (std::strcmp(argv[i], "--ves") == 0 && i + 1 < argc) {
                ves = std::atoi(argv[++i]);
            } else if (std::strcmp(argv[i], "--link") == 0 && i + 1 < argc) {
                link = argv[++i];
            } else {
                std::fprintf(stderr,
                             "aurora_info: --cluster options: --nodes N "
                             "--ves N --link ib-hdr|roce|ethernet-tcp\n");
                return 2;
            }
        }
        if (nodes < 1 || ves < 1) {
            std::fprintf(stderr, "aurora_info: --nodes/--ves must be >= 1\n");
            return 2;
        }
        return cluster_info(nodes, ves, link);
    }
    bool check = false;
    aurora::sim::duration_ns wait_healthy_ns = -1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--wait-healthy") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "aurora_info: --wait-healthy needs a virtual-ns "
                             "budget\n");
                return 2;
            }
            wait_healthy_ns = std::atoll(argv[++i]);
        } else {
            std::fprintf(stderr, "aurora_info: unknown option %s\n", argv[i]);
            return 2;
        }
    }
    if (wait_healthy_ns >= 0 && !check) {
        std::fprintf(stderr, "aurora_info: --wait-healthy requires --check\n");
        return 2;
    }
    sim::platform plat(sim::platform_config::a300_8());
    std::printf("%s\n", plat.description().c_str());
    dump_cost_model();
    if (check) {
        std::printf("\nSelf-check (one offload per backend):\n");
        return self_check(/*quiet=*/false, wait_healthy_ns);
    }
    return 0;
}
