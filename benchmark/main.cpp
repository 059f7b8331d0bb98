// aurora_bench — one workload per process, end-to-end and per-layer.
//
//   aurora_bench --workload <name> --seed <n> [--seconds <s>]
//                [--trace <file>] [--smoke]
//
// The process scrubs HAM_AURORA_* from its environment, pins itself to one
// CPU, and runs trials of the workload (each on a fresh sim::platform) until
// --seconds have passed, at least three. It prints one JSON object as the
// last line of stdout: the end-to-end metrics and, with --trace, the
// per-layer metrics of the traced trials, which alternate with untraced ones
// so that trace.overhead_pct compares the two. The spans of the first traced
// trial go to <file>. Any failed self-check makes the exit code 1; bad
// arguments make it 2.
//
// Virtual metrics must be bit-identical across the trials of a run. Real
// ones are robust statistics of the untraced trials:
//   host_us_per_op  every trial cuts its timed phase into the same
//                   segments (~40 ms to 0.7 s of work each); each segment
//                   counts at its fastest over the trials, and the metric
//                   is their total time over their total ops. Noise from
//                   other processes on the machine only ever slows a
//                   segment down, in bursts of a fraction of a second, so
//                   the fastest copy of a segment is the one without it,
//                   while segments that cost more by nature (the admit
//                   server slows as sessions accumulate) keep their weight.
//   setup_s         median over the untraced trials and the set-up-only
//                   repetitions (platform, attach, first op) between them.
//   peak_rss_mib    peak resident set after the first trial, before later
//                   trials add allocator slack.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/obs.hpp"
#include "support/host.hpp"
#include "support/stats.hpp"
#include "trace/trace.hpp"
#include "util/units.hpp"

namespace {

using namespace aurora_bench;

struct args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15.0;
    std::string trace_file;
    bool smoke = false;
};

constexpr int kMinTrials = 3;
constexpr int kMaxTrials = 40;
constexpr int kSetupsPerTrial = 20;

std::optional<args> parse(int argc, char** argv) {
    args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const bool has_value = i + 1 < argc;
        if (k == "--workload" && has_value) {
            a.workload = argv[++i];
        } else if (k == "--seed" && has_value) {
            char* end = nullptr;
            a.seed = std::strtoull(argv[++i], &end, 10);
            have_seed = end != nullptr && *end == '\0';
        } else if (k == "--seconds" && has_value) {
            a.seconds = std::strtod(argv[++i], nullptr);
        } else if (k == "--trace" && has_value) {
            a.trace_file = argv[++i];
        } else if (k == "--smoke") {
            a.smoke = true;
        } else {
            return std::nullopt;
        }
    }
    if (a.workload.empty() || !have_seed || !(a.seconds >= 0.0)) {
        return std::nullopt;
    }
    return a;
}

const workload_def* find_workload(const std::string& name) {
    for (const workload_def* w :
         {&offload_empty_workload(), &data_path_workload(),
          &sched_skewed_workload(), &serving_overload_workload(),
          &cluster_4node_workload()}) {
        if (name == w->name) {
            return w;
        }
    }
    return nullptr;
}

/// Virtual end-to-end metrics of one trial, exact for a given seed.
struct virtual_metrics {
    double lat_p50_us, lat_p99_us, virt_ops_per_s, virt_gib_s, victim_p99_ratio,
        ok_pct;

    bool operator==(const virtual_metrics&) const = default;
};

virtual_metrics summarize(const trial_result& r) {
    const double p99 = percentile(r.lat_ns, 99.0);
    const double span_s = r.virt_span_ns / 1e9;
    virtual_metrics v{};
    v.lat_p50_us = percentile(r.lat_ns, 50.0) / 1e3;
    v.lat_p99_us = p99 / 1e3;
    v.virt_ops_per_s = span_s > 0 ? double(r.completed) / span_s : 0.0;
    v.virt_gib_s = span_s > 0 ? r.wire_bytes / double(aurora::GiB) / span_s : 0.0;
    v.victim_p99_ratio = r.unloaded_p99_ns > 0 ? p99 / r.unloaded_p99_ns : 0.0;
    v.ok_pct = r.ok_of > 0 ? 100.0 * double(r.ok) / double(r.ok_of) : 0.0;
    return v;
}

/// Real ns per op of segments [first, last) over some trials of a run (see
/// the top). Every trial has the same segments, doing the same work.
double host_ns_per_op(const std::vector<const trial_result*>& trials,
                      std::size_t first = 0, std::size_t last = SIZE_MAX) {
    if (trials.empty()) {
        return 0.0;
    }
    last = std::min(last, trials.front()->segments.size());
    double wall = 0.0, ops = 0.0;
    for (std::size_t k = first; k < last; ++k) {
        double fastest = trials.front()->segments[k].wall_ns;
        for (const trial_result* t : trials) {
            fastest = std::min(fastest, t->segments[k].wall_ns);
        }
        wall += fastest;
        ops += trials.front()->segments[k].ops;
    }
    return ops > 0 ? wall / ops : 0.0;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/// `exact`: a simulated-time metric, bit-identical for a given seed.
std::string metric(const std::string& name, double value, const char* unit,
                   bool exact = false) {
    return json_string(name) + ":{\"value\":" + fmt(value) + ",\"unit\":\"" +
           unit + "\"" + (exact ? ",\"exact\":true}" : "}");
}

} // namespace

int main(int argc, char** argv) {
    if (host::scrub_env()) {
        // Re-execute so that nothing latched a HAM_AURORA_* value during
        // static initialisation.
        execv("/proc/self/exe", argv);
        std::perror("aurora_bench: re-exec after scrubbing the environment");
        return 2;
    }
    const std::optional<args> a = parse(argc, argv);
    const workload_def* w = a ? find_workload(a->workload) : nullptr;
    if (w == nullptr) {
        std::fprintf(stderr,
                     "usage: aurora_bench --workload <offload_empty|data_path|"
                     "sched_skewed|serving_overload|cluster_4node> --seed <n> "
                     "[--seconds <s>] [--trace <file>] [--smoke]\n");
        return 2;
    }
    const bool traced = !a->trace_file.empty();
    const int cpu = host::pin_to_one_cpu();
    // Program tracing stays off except in the first timed segment of a
    // traced trial (segment_clock).
    aurora::trace::set_enabled(false);
    aurora::obs::set_enabled(false);
    if (traced) {
        // Read once, when the first trace lane is created.
        setenv("HAM_AURORA_TRACE_BUFFER",
               std::to_string(w->trace_lane_events).c_str(), 1);
    }

    trial_context ctx;
    ctx.seed = a->seed;
    ctx.smoke = a->smoke;
    const int min_trials = a->smoke ? 2 : kMinTrials;
    const std::int64_t t_start = host::wall_ns();

    std::vector<trial_result> trials, setups;
    std::vector<bool> trial_traced;
    trial_context setup_ctx = ctx;
    setup_ctx.setup_only = true;
    std::unique_ptr<span_recorder> first_spans;
    double peak_rss_mib = 0.0;
    for (int i = 0; i < kMaxTrials; ++i) {
        const double elapsed = double(host::wall_ns() - t_start) / 1e9;
        if (i >= min_trials && (a->smoke || elapsed >= a->seconds)) {
            break;
        }
        // Traced and untraced trials alternate, starting traced.
        const bool trace_this = traced && i % 2 == 0;
        aurora::trace::collector::instance().reset();
        auto spans = trace_this ? std::make_unique<span_recorder>() : nullptr;
        ctx.spans = spans.get();
        trials.push_back(w->run(ctx));
        trial_traced.push_back(trace_this);
        if (i == 0) {
            peak_rss_mib = host::peak_rss_mib();
        }
        if (spans && !first_spans) {
            first_spans = std::move(spans);
        }
        // Set-up is short next to a trial on most workloads: repeat it alone
        // (platform, attach, first op) after each trial while that fits in
        // 2% of --seconds, so setup_s is a median of samples spread over
        // the run. The first few set-ups after a trial run slow (30-70% on
        // sub-ms set-ups) while its memory is recycled; twenty outvote them.
        const std::int64_t t0 = host::wall_ns();
        for (int k = 0; !a->smoke && k < kSetupsPerTrial &&
                        double(host::wall_ns() - t0) + trials.back().setup_s * 1e9 <=
                            0.02 * a->seconds * 1e9;
             ++k) {
            setups.push_back(w->run(setup_ctx));
        }
        std::fprintf(stderr, "[aurora_bench] %s trial %d%s: %.3f s\n", w->name, i,
                     trace_this ? " (traced)" : "",
                     double(host::wall_ns() - t_start) / 1e9);
    }
    aurora::trace::collector::instance().reset();

    // --- checks across trials ----------------------------------------------------
    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;
    const virtual_metrics v = summarize(trials.front());
    for (std::size_t i = 0; i < trials.size(); ++i) {
        const trial_result& t = trials[i];
        attempted += t.attempted;
        failed += t.failed;
        for (const std::string& err : t.errors) {
            errors.push_back("trial " + std::to_string(i) + ": " + err);
        }
        if (i > 0 && !(summarize(t) == v)) {
            errors.push_back("trial " + std::to_string(i) +
                             ": virtual metrics differ from trial 0");
        }
        if (i > 0 && t.fingerprint != trials[0].fingerprint) {
            errors.push_back("trial " + std::to_string(i) +
                             ": completion fingerprint differs from trial 0");
        }
    }

    // --- aggregate -------------------------------------------------------------------
    std::vector<const trial_result*> untraced, traced_trials;
    std::vector<double> setup;
    std::map<std::string, std::vector<double>> layer_samples;
    for (std::size_t i = 0; i < trials.size(); ++i) {
        const trial_result& t = trials[i];
        if (t.segments.size() != trials.front().segments.size()) {
            errors.push_back("trial " + std::to_string(i) +
                             ": timed segments differ from trial 0");
        } else if (trial_traced[i]) {
            traced_trials.push_back(&t);
            for (const auto& [k, val] : t.layers) {
                layer_samples[k].push_back(val);
            }
        } else {
            untraced.push_back(&t);
            setup.push_back(t.setup_s);
        }
    }
    for (const trial_result& t : setups) {
        setup.push_back(t.setup_s);
        for (const std::string& err : t.errors) {
            errors.push_back("set-up: " + err);
        }
    }
    const double host_ns = host_ns_per_op(untraced);
    std::ostringstream out;
    out << "{\"bench\":\"aurora_bench\",\"header\":{\"workload\":\"" << w->name
        << "\",\"seed\":" << a->seed << ",\"seconds\":" << fmt(a->seconds)
        << ",\"smoke\":" << (a->smoke ? "true" : "false")
        << ",\"traced\":" << (traced ? "true" : "false")
        << ",\"trials\":" << trials.size()
        << ",\"git_rev\":" << json_string(AURORA_BENCH_GIT_REV)
        << ",\"cpu_model\":" << json_string(host::cpu_model())
        << ",\"pinned_cpu\":" << cpu << ",\"config\":" << w->config(a->smoke)
        << "},\"metrics\":{"
        << metric("lat_p50_us", v.lat_p50_us, "sim_us", true) << ","
        << metric("lat_p99_us", v.lat_p99_us, "sim_us", true) << ","
        << metric("virt_ops_per_s", v.virt_ops_per_s, "1/sim_s", true) << ","
        << metric("virt_gib_s", v.virt_gib_s, "GiB/sim_s", true) << ","
        << metric("victim_p99_ratio", v.victim_p99_ratio, "x", true) << ","
        << metric("ok_pct", v.ok_pct, "%", true) << ","
        << metric("host_us_per_op", host_ns / 1e3, "us") << ","
        << metric("setup_s", median(setup), "s") << ","
        << metric("peak_rss_mib", peak_rss_mib, "MiB") << "}";
    if (traced) {
        // Program tracing covers the first segment (segment_clock).
        const double plain = host_ns_per_op(untraced, 0, 1);
        layer_samples["trace.overhead_pct"] = {
            plain > 0 ? 100.0 * (host_ns_per_op(traced_trials, 0, 1) / plain - 1.0)
                      : 0.0};
        out << ",\"layers\":{";
        bool first = true;
        for (const layer_metric& m : layer_metrics()) {
            const auto it = layer_samples.find(m.name);
            const double value = it == layer_samples.end() ? 0.0 : median(it->second);
            out << (first ? "" : ",") << metric(m.name, value, m.unit);
            first = false;
        }
        // Supporting values behind the listed metrics (not gated).
        for (const auto& [name, samples] : layer_samples) {
            bool listed = false;
            for (const layer_metric& m : layer_metrics()) {
                listed = listed || name == m.name;
            }
            if (!listed) {
                out << "," << metric(name, median(samples), "");
            }
        }
        out << "}";
    }
    out << ",\"samples\":" << trials.front().lat_ns.size()
        << ",\"ops_attempted\":" << attempted << ",\"ops_failed\":" << failed
        << ",\"correct\":" << (errors.empty() ? "true" : "false")
        << ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
        out << (i == 0 ? "" : ",") << json_string(errors[i]);
    }
    out << "],\"trials\":[";
    for (std::size_t i = 0; i < trials.size(); ++i) {
        const trial_result& t = trials[i];
        out << (i == 0 ? "" : ",") << "{\"traced\":"
            << (trial_traced[i] ? "true" : "false") << ",\"host_us_per_op\":"
            << fmt(host_ns_per_op({&t}) / 1e3)
            << ",\"setup_s\":" << fmt(t.setup_s) << "}";
    }
    out << "]}";

    if (first_spans) {
        std::ofstream f(a->trace_file);
        first_spans->write_json(f);
        if (!f) {
            errors.push_back("cannot write the span file " + a->trace_file);
        }
    }
    for (const std::string& err : errors) {
        std::fprintf(stderr, "[aurora_bench] FAIL: %s\n", err.c_str());
    }
    std::printf("%s\n", out.str().c_str());
    return errors.empty() ? 0 : 1;
}
