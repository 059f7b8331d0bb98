// aurora_top — live terminal monitor for the aurora::metrics registry.
//
//   build/tools/aurora_top                       # self-contained demo workload
//   build/tools/aurora_top --demo --chaos        # demo + injected VE death
//   build/tools/aurora_top --url localhost:9464  # watch a running process
//   build/tools/aurora_top --url localhost:9464 --once
//
// Two sources, one renderer: --demo drives a multi-VE scheduler workload in
// rounds and renders a frame from the in-process registry after each round;
// --url scrapes an embedded /metrics endpoint (HAM_AURORA_METRICS_PORT) over
// HTTP and renders the same display. Either way the screen shows, per
// offload target: message/result totals, round-trip p50/p99 derived from the
// exported histogram buckets, queue depths, and the health state — plus
// scheduler and fault-injection totals.
//
//   --frames N       frames to render (demo rounds / scrapes; default 4)
//   --interval-ms N  real-time delay between scrapes (default 1000)
//   --once           single frame (implies --frames 1)
#include <arpa/inet.h>
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "admit/server.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "metrics/prometheus.hpp"
#include "net/net.hpp"
#include "offload/offload.hpp"
#include "sched/executor.hpp"
#include "sim/platform.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace off = ham::offload;

namespace {

// --- minimal Prometheus text parser -----------------------------------------

struct sample {
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0.0;
};

/// Parse one exposition document: `name{k="v",...} value` lines; comments
/// and malformed lines are skipped (a monitor must not die on one).
std::vector<sample> parse_prom(const std::string& text) {
    std::vector<sample> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) {
            eol = text.size();
        }
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#') {
            continue;
        }
        sample s;
        std::size_t i = line.find_first_of("{ ");
        if (i == std::string::npos) {
            continue;
        }
        s.name = line.substr(0, i);
        if (line[i] == '{') {
            const std::size_t close = line.find('}', i);
            if (close == std::string::npos) {
                continue;
            }
            std::size_t p = i + 1;
            while (p < close) {
                const std::size_t eq = line.find('=', p);
                if (eq == std::string::npos || eq > close) {
                    break;
                }
                const std::string key = line.substr(p, eq - p);
                std::size_t vstart = eq + 2; // skip ="
                std::string val;
                while (vstart < close && line[vstart] != '"') {
                    if (line[vstart] == '\\' && vstart + 1 < close) {
                        ++vstart;
                    }
                    val += line[vstart++];
                }
                s.labels[key] = val;
                p = vstart + 1;
                if (p < close && line[p] == ',') {
                    ++p;
                }
            }
            i = line.find(' ', close);
            if (i == std::string::npos) {
                continue;
            }
        }
        s.value = std::atof(line.c_str() + i + 1);
        out.push_back(std::move(s));
    }
    return out;
}

// --- percentiles from exported cumulative buckets ---------------------------

struct bucket_set {
    /// (inclusive upper bound `le`, cumulative count) in exposition order.
    std::vector<std::pair<double, double>> le;
    double count = 0.0;
};

/// Same interpolation as histogram::snapshot::percentile: each `le` bound is
/// an inclusive upper, so the bucket below it starts at prev_le + 1.
double bucket_percentile(const bucket_set& b, double q) {
    if (b.count <= 0.0) {
        return 0.0;
    }
    const double rank =
        std::min(b.count, std::max(1.0, std::ceil(q / 100.0 * b.count)));
    double prev_le = 0.0, prev_cum = 0.0;
    for (const auto& [le, cum] : b.le) {
        if (cum >= rank && cum > prev_cum) {
            const double lo = prev_le + 1.0;
            const double hi = std::isinf(le) ? prev_le + 1.0 : le;
            return lo + (hi - lo) * (rank - prev_cum) / (cum - prev_cum);
        }
        prev_le = std::isinf(le) ? prev_le : le;
        prev_cum = cum;
    }
    return prev_le;
}

// --- frame assembly ----------------------------------------------------------

struct view {
    std::map<std::string, double> scalars; ///< name{labels} -> value
    std::map<std::string, bucket_set> hists; ///< name{labels minus le}
};

std::string series_key(const sample& s, const char* skip_label = nullptr) {
    std::string key = s.name;
    for (const auto& [k, v] : s.labels) {
        if (skip_label != nullptr && k == skip_label) {
            continue;
        }
        key += '|' + k + '=' + v;
    }
    return key;
}

view build_view(const std::vector<sample>& samples) {
    view v;
    for (const auto& s : samples) {
        if (s.name.size() > 7 &&
            s.name.compare(s.name.size() - 7, 7, "_bucket") == 0) {
            const auto it = s.labels.find("le");
            if (it == s.labels.end()) {
                continue; // truncated bucket line lost its le="..." label
            }
            sample base = s;
            base.name.resize(base.name.size() - 7);
            bucket_set& b = v.hists[series_key(base, "le")];
            const double le = it->second == "+Inf"
                                  ? INFINITY
                                  : std::atof(it->second.c_str());
            b.le.emplace_back(le, s.value);
            b.count = std::max(b.count, s.value);
        } else {
            v.scalars[series_key(s)] = s.value;
        }
    }
    return v;
}

double scalar_or(const view& v, const std::string& key, double fallback = 0.0) {
    const auto it = v.scalars.find(key);
    return it == v.scalars.end() ? fallback : it->second;
}

const char* health_name(double h) {
    return h >= 2.0 ? "FAILED" : h >= 1.0 ? "degraded" : "healthy";
}

/// aurora_net_node_health exports the full target_health enum per VH node.
const char* node_health_name(double h) {
    switch (static_cast<int>(h)) {
    case 0: return "healthy";
    case 1: return "degraded";
    case 2: return "FAILED";
    case 3: return "recovering";
    case 4: return "probation";
    default: return "?";
    }
}

void render(const std::string& prom_text, int frame, bool clear) {
    const std::vector<sample> samples = parse_prom(prom_text);
    if (clear) {
        std::printf("\x1b[H\x1b[2J");
    }
    if (samples.empty()) {
        // An empty or entirely-comment scrape (endpoint warming up, or a
        // response cut off mid-transfer) renders as an explicit note, never
        // as a crash or a silently blank screen.
        std::printf("aurora_top — frame %d\n\n", frame);
        std::printf("  (scrape returned no samples — endpoint warming up or "
                    "truncated; retrying)\n");
        return;
    }
    const view v = build_view(samples);

    // Discover the (backend, node) pairs present in the export.
    std::vector<std::pair<std::string, std::string>> targets;
    for (const auto& [key, val] : v.scalars) {
        (void)val;
        if (key.rfind("aurora_offload_messages_total|", 0) != 0) {
            continue;
        }
        std::string backend, node;
        std::size_t p = key.find("backend=");
        if (p != std::string::npos) {
            backend = key.substr(p + 8, key.find('|', p) - p - 8);
        }
        p = key.find("node=");
        if (p != std::string::npos) {
            node = key.substr(p + 5, key.find('|', p) - p - 5);
        }
        targets.emplace_back(backend, node);
    }
    std::sort(targets.begin(), targets.end());

    std::printf("aurora_top — frame %d\n\n", frame);
    aurora::text_table t({"target", "msgs", "results", "rtt p50 us",
                          "rtt p99 us", "in-flight", "queued", "retx",
                          "health"});
    auto fmt_us = [](double ns) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", ns / 1000.0);
        return std::string(buf);
    };
    for (const auto& [backend, node] : targets) {
        const std::string lbl = "|backend=" + backend + "|node=" + node;
        const auto hit = v.hists.find("aurora_offload_roundtrip_ns" + lbl);
        const bucket_set empty;
        const bucket_set& h = hit == v.hists.end() ? empty : hit->second;
        t.add_row(
            {backend + ":" + node,
             std::to_string(static_cast<long long>(
                 scalar_or(v, "aurora_offload_messages_total" + lbl))),
             std::to_string(static_cast<long long>(
                 scalar_or(v, "aurora_offload_results_total" + lbl))),
             fmt_us(bucket_percentile(h, 50.0)),
             fmt_us(bucket_percentile(h, 99.0)),
             std::to_string(static_cast<long long>(
                 scalar_or(v, "aurora_offload_inflight" + lbl))),
             std::to_string(static_cast<long long>(
                 scalar_or(v, "aurora_offload_queue_depth" + lbl))),
             std::to_string(static_cast<long long>(
                 scalar_or(v, "aurora_offload_retransmits_total" + lbl))),
             health_name(scalar_or(v, "aurora_target_health" + lbl))});
    }
    std::printf("%s", t.str().c_str());

    // Per-VH-node cluster rollup (aurora::net), when the export carries it:
    // node health plus the node's inter-node link depth and gateway totals.
    std::vector<std::string> net_nodes;
    const std::string health_prefix = "aurora_net_node_health|node=";
    for (const auto& [key, val] : v.scalars) {
        (void)val;
        if (key.rfind(health_prefix, 0) == 0) {
            net_nodes.push_back(key.substr(health_prefix.size()));
        }
    }
    if (!net_nodes.empty()) {
        std::sort(net_nodes.begin(), net_nodes.end(),
                  [](const std::string& a, const std::string& b) {
                      return std::atoi(a.c_str()) < std::atoi(b.c_str());
                  });
        aurora::text_table ct({"VH node", "health", "link depth", "forwarded",
                               "results back"});
        for (const std::string& n : net_nodes) {
            // The link gauge is labelled {link="0-N",profile=...}; the
            // profile is whatever the cluster was calibrated with, so match
            // on the link prefix only.
            double depth = 0.0;
            bool has_link = false;
            const std::string link_prefix =
                "aurora_net_link_queue_depth|link=0-" + n + "|";
            for (const auto& [key, val] : v.scalars) {
                if (key.rfind(link_prefix, 0) == 0) {
                    depth = std::max(depth, val);
                    has_link = true;
                }
            }
            ct.add_row(
                {n,
                 node_health_name(scalar_or(v, health_prefix + n)),
                 has_link ? std::to_string(static_cast<long long>(depth)) : "-",
                 std::to_string(static_cast<long long>(scalar_or(
                     v, "aurora_net_frames_forwarded_total|node=" + n))),
                 std::to_string(static_cast<long long>(scalar_or(
                     v, "aurora_net_results_returned_total|node=" + n)))});
        }
        std::printf("\ncluster:\n%s", ct.str().c_str());
        std::printf("stolen tasks: %lld local, %lld remote   rerouted: %lld\n",
                    static_cast<long long>(scalar_or(
                        v, "aurora_sched_stolen_tasks_total|scope=local")),
                    static_cast<long long>(scalar_or(
                        v, "aurora_sched_stolen_tasks_total|scope=remote")),
                    static_cast<long long>(scalar_or(
                        v, "aurora_sched_tasks_failed_over_total")));
    }

    // Per-tenant admission rollup (aurora::admit), when the export carries
    // it: queue depth, shed/deadline-miss counts and the per-engine breaker
    // states that explain why a tenant's work is (not) being placed.
    std::vector<std::string> tenants;
    const std::string adm_prefix = "aurora_admit_sessions_open|tenant=";
    for (const auto& [key, val] : v.scalars) {
        (void)val;
        if (key.rfind(adm_prefix, 0) == 0) {
            tenants.push_back(key.substr(adm_prefix.size()));
        }
    }
    if (!tenants.empty()) {
        std::sort(tenants.begin(), tenants.end());
        aurora::text_table at({"tenant", "sessions", "queued", "admitted",
                               "completed", "shed", "ddl missed", "failed"});
        for (const std::string& tn : tenants) {
            const std::string lbl = "|tenant=" + tn;
            at.add_row(
                {tn,
                 std::to_string(static_cast<long long>(
                     scalar_or(v, "aurora_admit_sessions_open" + lbl))),
                 std::to_string(static_cast<long long>(
                     scalar_or(v, "aurora_admit_queue_depth" + lbl))),
                 std::to_string(static_cast<long long>(
                     scalar_or(v, "aurora_admit_admitted_total" + lbl))),
                 std::to_string(static_cast<long long>(
                     scalar_or(v, "aurora_admit_completed_total" + lbl))),
                 std::to_string(static_cast<long long>(
                     scalar_or(v, "aurora_admit_shed_total" + lbl))),
                 std::to_string(static_cast<long long>(scalar_or(
                     v, "aurora_admit_deadline_missed_total" + lbl))),
                 std::to_string(static_cast<long long>(
                     scalar_or(v, "aurora_admit_failed_total" + lbl)))});
        }
        std::printf("\nadmit (backlog %lld / %lld):\n%s",
                    static_cast<long long>(scalar_or(v, "aurora_admit_backlog")),
                    static_cast<long long>(
                        scalar_or(v, "aurora_admit_capacity")),
                    at.str().c_str());
        std::string breakers = "breakers:";
        const std::string brk_prefix = "aurora_admit_breaker_state|node=";
        for (const auto& [key, val] : v.scalars) {
            if (key.rfind(brk_prefix, 0) != 0) {
                continue;
            }
            const int st = static_cast<int>(val);
            breakers += " node " + key.substr(brk_prefix.size()) + "=" +
                        (st == 0   ? "closed"
                         : st == 1 ? "OPEN"
                                   : "half-open");
        }
        std::printf("%s\n", breakers.c_str());
    }

    double sched_depth = 0.0;
    for (const auto& [key, val] : v.scalars) {
        if (key.rfind("aurora_sched_queue_depth|", 0) == 0) {
            sched_depth += val;
        }
    }
    double faults = 0.0;
    for (const auto& [key, val] : v.scalars) {
        if (key.rfind("aurora_fault_injected_total", 0) == 0) {
            faults += val;
        }
    }
    std::printf("\nsched: %lld completed, %lld host, %lld steals, "
                "%lld failovers, %lld queued   faults injected: %lld\n",
                static_cast<long long>(
                    scalar_or(v, "aurora_sched_tasks_completed_total")),
                static_cast<long long>(
                    scalar_or(v, "aurora_sched_host_tasks_total")),
                static_cast<long long>(scalar_or(v, "aurora_sched_steals_total")),
                static_cast<long long>(
                    scalar_or(v, "aurora_sched_failovers_total")),
                static_cast<long long>(sched_depth),
                static_cast<long long>(faults));
}

// --- --url mode: scrape an embedded endpoint ---------------------------------

bool http_get_metrics(const std::string& host, int port, std::string& out) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    hostent* he = ::gethostbyname(host.c_str());
    if (he != nullptr && he->h_addr_list[0] != nullptr) {
        std::memcpy(&addr.sin_addr, he->h_addr_list[0],
                    sizeof(addr.sin_addr));
    } else {
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return false;
    }
    const std::string req = "GET /metrics HTTP/1.1\r\nHost: " + host +
                            "\r\nConnection: close\r\n\r\n";
    if (::send(fd, req.data(), req.size(), 0) < 0) {
        ::close(fd);
        return false;
    }
    std::string resp;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const std::size_t body = resp.find("\r\n\r\n");
    if (body == std::string::npos || resp.rfind("HTTP/1.1 200", 0) != 0) {
        return false;
    }
    out = resp.substr(body + 4);
    return true;
}

int watch_url(const std::string& url, int frames, int interval_ms, bool clear) {
    const std::size_t colon = url.rfind(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr, "aurora_top: --url expects HOST:PORT\n");
        return 2;
    }
    const std::string host = url.substr(0, colon);
    const int port = std::atoi(url.c_str() + colon + 1);
    int good_frames = 0;
    for (int f = 1; f <= frames; ++f) {
        std::string text;
        if (!http_get_metrics(host, port, text)) {
            // A single failed or truncated scrape is not fatal for a
            // monitor: note it and try again next frame. Only a run where
            // every scrape failed exits non-zero.
            std::fprintf(stderr, "aurora_top: scrape of %s failed (frame %d)\n",
                         url.c_str(), f);
        } else {
            render(text, f, clear);
            ++good_frames;
        }
        if (f < frames) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(interval_ms));
        }
    }
    return good_frames > 0 ? 0 : 1;
}

// --- --demo mode: drive a workload and watch the in-process registry ---------

void demo_kernel(std::uint64_t flops) {
    off::compute_hint(double(flops), double(flops) * 8.0);
}

int run_demo(int frames, bool chaos, bool clear) {
    if (chaos) {
        aurora::fault::config fc;
        fc.enabled = true;
        fc.seed = 7;
        aurora::fault::injector::instance().configure(fc);
        // Node 2's VE dies mid-demo; the scheduler fails its work over.
        aurora::fault::injector::instance().kill_after_messages(2, 3);
    }
    aurora::sim::platform plat(aurora::sim::platform_config::a300_8());
    off::runtime_options opt;
    opt.backend = off::backend_kind::vedma;
    opt.targets = {0, 1, 2, 3};
    const int rc = off::run(plat, opt, [&]() -> int {
        aurora::sched::executor ex;
        std::uint64_t cost = 200'000;
        for (int f = 1; f <= frames; ++f) {
            for (int i = 0; i < 24; ++i) {
                ex.submit(ham::f2f<&demo_kernel>(cost + std::uint64_t(i) * 50'000));
            }
            ex.wait_all();
            render(aurora::metrics::prometheus_text(
                       aurora::metrics::registry::global()),
                   f, clear);
            std::printf("virtual time: %s\n",
                        aurora::format_ns(aurora::sim::now()).c_str());
        }
        return 0;
    });
    if (chaos) {
        aurora::fault::injector::instance().reset();
    }
    return rc;
}

/// --demo --cluster: the same round-driven demo over an aurora::net cluster
/// (2 remote VH nodes x 2 VEs), so the per-node rollup renders from live
/// gateway metrics. --chaos kills a remote VE mid-demo; with recovery
/// enabled the node degrades and heals in the rollup.
int run_cluster_demo(int frames, bool chaos, bool clear) {
    if (chaos) {
        aurora::fault::config fc;
        fc.enabled = true;
        fc.seed = 7;
        aurora::fault::injector::instance().configure(fc);
        // VH 1's VE 1 (global id 3) dies mid-demo and gets respawned.
        aurora::fault::injector::instance().kill_after_messages(3, 8);
    }
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    off::runtime_options opt;
    opt.backend = off::backend_kind::loopback;
    opt.targets = {0, 0};
    const int rc = off::run(plat, opt, [&]() -> int {
        aurora::net::cluster_options copt;
        copt.nodes = 3;
        copt.ves_per_node = 2;
        if (chaos) {
            copt.remote.reply_timeout_ns = 100'000;
            copt.remote.recovery.enabled = true;
            copt.remote.recovery.backoff_ns = 50'000;
            copt.remote.recovery_streak = 4;
        }
        aurora::net::cluster c(plat, copt);
        aurora::net::cluster_executor ex(c, {});
        for (int f = 1; f <= frames; ++f) {
            for (int i = 0; i < 24; ++i) {
                // Pile the round onto VH 1 so remote steals show up.
                ex.submit(ham::f2f<&demo_kernel>(200'000 +
                                                 std::uint64_t(i) * 50'000),
                          /*affinity_vh=*/1);
            }
            ex.wait_all();
            render(aurora::metrics::prometheus_text(
                       aurora::metrics::registry::global()),
                   f, clear);
            std::printf("virtual time: %s\n",
                        aurora::format_ns(aurora::sim::now()).c_str());
        }
        return 0;
    });
    if (chaos) {
        aurora::fault::injector::instance().reset();
    }
    return rc;
}

void top_faulty_kernel() { throw std::runtime_error("engine fault"); }

/// --demo --admit: round-driven multi-tenant serving demo. A latency victim,
/// a batch tenant and a hostile background flood share one admission server;
/// with --chaos one round also fails requests on engine 1 until its breaker
/// trips (it re-closes through half-open probes in later rounds). Exits
/// non-zero when any breaker is still open after the final frame.
int run_admit_demo(int frames, bool chaos, bool clear) {
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    off::runtime_options opt;
    opt.backend = off::backend_kind::loopback;
    opt.targets = {0, 0};
    int stuck_open = 0;
    const int rc = off::run(plat, opt, [&]() -> int {
        namespace adm = aurora::admit;
        adm::server::config cfg;
        cfg.capacity = 32;
        // Short cooldown so the tripped breaker can walk open -> half-open ->
        // closed within the demo's few hundred microseconds of virtual time.
        cfg.breaker.cooldown_ns = 50'000;
        adm::server srv(cfg);
        adm::session_options so;
        so.tenant = "victim";
        so.cls = adm::qos_class::latency;
        so.weight = 4;
        const adm::session_id victim = srv.open(so);
        so = {};
        so.tenant = "bulk";
        so.cls = adm::qos_class::batch;
        so.weight = 2;
        const adm::session_id bulk = srv.open(so);
        so = {};
        so.tenant = "aggressor";
        so.cls = adm::qos_class::background;
        so.max_queued = 64;
        const adm::session_id aggressor = srv.open(so);
        adm::request_options pin1;
        pin1.affinity = 1;
        pin1.pinned = true;
        for (int f = 1; f <= frames; ++f) {
            for (int i = 0; i < 24; ++i) {
                try {
                    srv.submit(aggressor,
                               ham::f2f<&demo_kernel>(std::uint64_t(30'000)));
                } catch (const off::admission_error&) {
                }
            }
            for (int i = 0; i < 4; ++i) {
                try {
                    srv.submit(bulk,
                               ham::f2f<&demo_kernel>(std::uint64_t(20'000)));
                    adm::request_options ro;
                    ro.deadline_ns = aurora::sim::now() + 150'000;
                    srv.submit(victim, ham::f2f<&demo_kernel>(
                                           std::uint64_t(5'000)), ro);
                } catch (const off::admission_error&) {
                }
            }
            if (chaos && f == 1) {
                // Fail enough pinned requests on engine 1 to trip its breaker.
                for (std::uint32_t i = 0; i < cfg.breaker.failure_threshold;
                     ++i) {
                    try {
                        srv.submit(victim, ham::f2f<&top_faulty_kernel>(),
                                   pin1).wait();
                    } catch (const off::admission_error&) {
                    }
                }
            }
            srv.drain();
            if (chaos && f > 1) {
                // Probe the tripped engine so the breaker can half-open and
                // close again before the run ends.
                aurora::sim::advance(cfg.breaker.cooldown_ns);
                try {
                    srv.submit(victim, ham::f2f<&demo_kernel>(
                                           std::uint64_t(1'000)), pin1).wait();
                } catch (const off::admission_error&) {
                }
            }
            render(aurora::metrics::prometheus_text(
                       aurora::metrics::registry::global()),
                   f, clear);
            std::printf("virtual time: %s\n",
                        aurora::format_ns(aurora::sim::now()).c_str());
        }
        for (off::node_t n = 1;
             n < static_cast<off::node_t>(
                     off::runtime::current()->num_nodes());
             ++n) {
            stuck_open +=
                srv.breaker_of(n) == adm::breaker_state::open ? 1 : 0;
        }
        return 0;
    });
    return rc + stuck_open;
}

} // namespace

int main(int argc, char** argv) {
    bool demo = true, chaos = false, once = false, cluster = false;
    bool admit = false;
    std::string url;
    int frames = 4, interval_ms = 1000;
    for (int a = 1; a < argc; ++a) {
        const char* arg = argv[a];
        if (std::strcmp(arg, "--demo") == 0) {
            demo = true;
        } else if (std::strcmp(arg, "--chaos") == 0) {
            chaos = true;
        } else if (std::strcmp(arg, "--cluster") == 0) {
            cluster = true;
        } else if (std::strcmp(arg, "--admit") == 0) {
            admit = true;
        } else if (std::strcmp(arg, "--once") == 0) {
            once = true;
        } else if (std::strcmp(arg, "--url") == 0 && a + 1 < argc) {
            url = argv[++a];
            demo = false;
        } else if (std::strcmp(arg, "--frames") == 0 && a + 1 < argc) {
            frames = std::atoi(argv[++a]);
        } else if (std::strcmp(arg, "--interval-ms") == 0 && a + 1 < argc) {
            interval_ms = std::atoi(argv[++a]);
        } else {
            std::fprintf(stderr,
                         "usage: aurora_top [--demo [--chaos] [--cluster] "
                         "[--admit]] [--url HOST:PORT] [--frames N] "
                         "[--interval-ms N] [--once]\n");
            return 2;
        }
    }
    if (once) {
        frames = 1;
    }
    frames = std::max(frames, 1);
    const bool clear = ::isatty(1) != 0;
    if (!demo) {
        return watch_url(url, frames, interval_ms, clear);
    }
    if (admit) {
        return run_admit_demo(frames, chaos, clear);
    }
    if (cluster) {
        return run_cluster_demo(frames, chaos, clear);
    }
    return run_demo(frames, chaos, clear);
}
