// aurora_trace_query — offline analyzer for aurora::obs request timelines.
//
// Input is the JSON document written by HAM_AURORA_OBS_FILE (see
// src/obs/timeline.cpp) or a flight-recorder postmortem, which has the same
// form (src/obs/flight.hpp): per-request lifecycle timelines with
// critical-path stage attribution. The tool answers the questions a
// postmortem or a perf investigation actually asks:
//
//   aurora_trace_query timelines.json                  # summary + stage table
//   aurora_trace_query timelines.json --timelines      # one line per request
//   aurora_trace_query timelines.json --slowest 10     # worst roundtrips
//   aurora_trace_query timelines.json --node 3         # filter to one target
//   aurora_trace_query timelines.json --selfcheck      # invariant validation
//   aurora_trace_query timelines.json --bench-json     # machine-readable
//
// --selfcheck validates the attribution contract end to end and exits
// non-zero on the first violation; CI runs it against every trace-replay
// artifact. Percentiles are computed exactly from the per-timeline durations
// (never from the log2 histogram buckets, whose interpolation error would
// drown the 5% soundness gate).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// --- minimal JSON value parser ----------------------------------------------
// Handles exactly the subset the obs exporter emits (objects, arrays,
// strings, integers, doubles, bools, null). Errors carry a byte offset.

struct json_value;
using json_ptr = std::unique_ptr<json_value>;

struct json_value {
    enum class kind { null, boolean, number, string, array, object } k =
        kind::null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<json_ptr> arr;
    std::vector<std::pair<std::string, json_ptr>> obj;

    [[nodiscard]] const json_value* find(const std::string& key) const {
        for (const auto& [k2, v] : obj) {
            if (k2 == key) {
                return v.get();
            }
        }
        return nullptr;
    }
    [[nodiscard]] double number_or(const std::string& key, double dflt) const {
        const json_value* v = find(key);
        return v != nullptr && v->k == kind::number ? v->num : dflt;
    }
    [[nodiscard]] bool bool_or(const std::string& key, bool dflt) const {
        const json_value* v = find(key);
        return v != nullptr && v->k == kind::boolean ? v->b : dflt;
    }
};

class json_parser {
public:
    explicit json_parser(const std::string& text) : s_(text) {}

    json_ptr parse() {
        json_ptr v = value();
        skip_ws();
        if (pos_ != s_.size()) {
            fail("trailing garbage");
        }
        return v;
    }

    [[nodiscard]] const std::string& error() const { return err_; }
    [[nodiscard]] bool failed() const { return !err_.empty(); }

private:
    void fail(const char* what) {
        if (err_.empty()) {
            err_ = std::string(what) + " at byte " + std::to_string(pos_);
        }
        pos_ = s_.size(); // halt
    }
    void skip_ws() {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                    s_[pos_] == '\t' || s_[pos_] == '\r')) {
            ++pos_;
        }
    }
    bool consume(char c) {
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    json_ptr value() {
        skip_ws();
        auto v = std::make_unique<json_value>();
        if (pos_ >= s_.size()) {
            fail("unexpected end of input");
            return v;
        }
        const char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            v->k = json_value::kind::object;
            if (!consume('}')) {
                do {
                    skip_ws();
                    std::string key = string_body();
                    if (!consume(':')) {
                        fail("expected ':'");
                        break;
                    }
                    v->obj.emplace_back(std::move(key), value());
                } while (consume(','));
                if (!consume('}')) {
                    fail("expected '}'");
                }
            }
        } else if (c == '[') {
            ++pos_;
            v->k = json_value::kind::array;
            if (!consume(']')) {
                do {
                    v->arr.push_back(value());
                } while (consume(','));
                if (!consume(']')) {
                    fail("expected ']'");
                }
            }
        } else if (c == '"') {
            v->k = json_value::kind::string;
            v->str = string_body();
        } else if (c == 't' && s_.compare(pos_, 4, "true") == 0) {
            v->k = json_value::kind::boolean;
            v->b = true;
            pos_ += 4;
        } else if (c == 'f' && s_.compare(pos_, 5, "false") == 0) {
            v->k = json_value::kind::boolean;
            pos_ += 5;
        } else if (c == 'n' && s_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            v->k = json_value::kind::number;
            std::size_t end = pos_;
            while (end < s_.size() &&
                   (std::strchr("+-.eE", s_[end]) != nullptr ||
                    (s_[end] >= '0' && s_[end] <= '9'))) {
                ++end;
            }
            v->num = std::strtod(s_.c_str() + pos_, nullptr);
            pos_ = end;
        } else {
            fail("unexpected character");
        }
        return v;
    }
    std::string string_body() {
        if (pos_ >= s_.size() || s_[pos_] != '"') {
            fail("expected string");
            return {};
        }
        ++pos_;
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\' && pos_ < s_.size()) {
                const char e = s_[pos_++];
                switch (e) {
                    case 'n': c = '\n'; break;
                    case 't': c = '\t'; break;
                    case 'r': c = '\r'; break;
                    case '"': c = '"'; break;
                    case '\\': c = '\\'; break;
                    case '/': c = '/'; break;
                    default: c = e; break; // \uXXXX not emitted by the writer
                }
            }
            out.push_back(c);
        }
        if (pos_ >= s_.size()) {
            fail("unterminated string");
        } else {
            ++pos_; // closing quote
        }
        return out;
    }

    const std::string& s_;
    std::size_t pos_ = 0;
    std::string err_;
};

// --- timeline model ----------------------------------------------------------

struct tl_event {
    std::string stage;
    std::uint64_t ts_ns = 0;
};

struct timeline {
    std::uint32_t node = 0;
    std::uint64_t ticket = 0;
    std::uint64_t trace_id = 0;
    bool complete = false;
    bool failed = false;
    bool lossy = false;
    std::uint64_t roundtrip_ns = 0;
    std::map<std::string, std::uint64_t> stages;
    std::vector<tl_event> events;
};

struct dataset {
    std::vector<timeline> timelines;
    std::uint64_t declared_count = 0;
    std::uint64_t dropped_events = 0;
};

/// The stages whose attributed durations telescope to roundtrip_ns
/// (post..harvest); queue_wait and settle lie outside the measured roundtrip.
const char* const kRoundtripStages[] = {"send", "flag_poll", "execute",
                                        "result"};

bool load(const std::string& path, dataset& out, std::string& err) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    json_parser p(text);
    const json_ptr root = p.parse();
    if (p.failed()) {
        err = "JSON parse error: " + p.error();
        return false;
    }
    if (root->k != json_value::kind::object) {
        err = "top-level JSON value is not an object";
        return false;
    }
    out.declared_count =
        static_cast<std::uint64_t>(root->number_or("count", 0));
    out.dropped_events =
        static_cast<std::uint64_t>(root->number_or("dropped_events", 0));
    const json_value* tls = root->find("timelines");
    if (tls == nullptr || tls->k != json_value::kind::array) {
        err = "missing \"timelines\" array";
        return false;
    }
    for (const json_ptr& tv : tls->arr) {
        timeline t;
        t.node = static_cast<std::uint32_t>(tv->number_or("node", 0));
        t.ticket = static_cast<std::uint64_t>(tv->number_or("ticket", 0));
        t.trace_id = static_cast<std::uint64_t>(tv->number_or("trace_id", 0));
        t.complete = tv->bool_or("complete", false);
        t.failed = tv->bool_or("failed", false);
        t.lossy = tv->bool_or("lossy", false);
        t.roundtrip_ns =
            static_cast<std::uint64_t>(tv->number_or("roundtrip_ns", 0));
        if (const json_value* st = tv->find("stages");
            st != nullptr && st->k == json_value::kind::object) {
            for (const auto& [name, val] : st->obj) {
                if (val->k == json_value::kind::number) {
                    t.stages[name] = static_cast<std::uint64_t>(val->num);
                }
            }
        }
        if (const json_value* ev = tv->find("events");
            ev != nullptr && ev->k == json_value::kind::array) {
            for (const json_ptr& e : ev->arr) {
                tl_event te;
                if (const json_value* s = e->find("stage");
                    s != nullptr && s->k == json_value::kind::string) {
                    te.stage = s->str;
                }
                te.ts_ns = static_cast<std::uint64_t>(e->number_or("ts_ns", 0));
                t.events.push_back(std::move(te));
            }
        }
        out.timelines.push_back(std::move(t));
    }
    return true;
}

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile of a sorted sample (q in [0,1]).
std::uint64_t percentile(std::vector<std::uint64_t> v, double q) {
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::vector<const timeline*> complete_of(const dataset& d, int node_filter) {
    std::vector<const timeline*> out;
    for (const timeline& t : d.timelines) {
        if (node_filter >= 0 && t.node != static_cast<std::uint32_t>(node_filter)) {
            continue;
        }
        if (t.complete) {
            out.push_back(&t);
        }
    }
    return out;
}

std::vector<std::uint64_t> stage_samples(const std::vector<const timeline*>& ts,
                                         const std::string& stage) {
    std::vector<std::uint64_t> v;
    for (const timeline* t : ts) {
        if (const auto it = t->stages.find(stage); it != t->stages.end()) {
            v.push_back(it->second);
        }
    }
    return v;
}

std::vector<std::uint64_t>
roundtrip_samples(const std::vector<const timeline*>& ts) {
    std::vector<std::uint64_t> v;
    v.reserve(ts.size());
    for (const timeline* t : ts) {
        v.push_back(t->roundtrip_ns);
    }
    return v;
}

// --- commands ----------------------------------------------------------------

void print_timeline_line(const timeline& t) {
    std::printf("node %2u ticket %6llu  %s%s%s roundtrip %9llu ns",
                t.node, static_cast<unsigned long long>(t.ticket),
                t.complete ? "complete" : "partial ",
                t.failed ? " FAILED" : "", t.lossy ? " LOSSY" : "",
                static_cast<unsigned long long>(t.roundtrip_ns));
    if (t.trace_id != 0) {
        std::printf("  trace %016llx",
                    static_cast<unsigned long long>(t.trace_id));
    }
    for (const char* s : kRoundtripStages) {
        if (const auto it = t.stages.find(s); it != t.stages.end()) {
            std::printf("  %s=%llu", s,
                        static_cast<unsigned long long>(it->second));
        }
    }
    std::printf("\n");
}

void print_stage_table(const std::vector<const timeline*>& ts) {
    std::printf("%-12s %8s %12s %12s %12s\n", "stage", "samples", "p50_ns",
                "p99_ns", "max_ns");
    const char* const all[] = {"queue_wait", "send",   "flag_poll",
                               "execute",    "result", "settle"};
    for (const char* s : all) {
        std::vector<std::uint64_t> v = stage_samples(ts, s);
        if (v.empty()) {
            continue;
        }
        const std::uint64_t mx = *std::max_element(v.begin(), v.end());
        std::printf("%-12s %8zu %12llu %12llu %12llu\n", s, v.size(),
                    static_cast<unsigned long long>(percentile(v, 0.50)),
                    static_cast<unsigned long long>(percentile(v, 0.99)),
                    static_cast<unsigned long long>(mx));
    }
    std::vector<std::uint64_t> rtt = roundtrip_samples(ts);
    if (!rtt.empty()) {
        std::printf("%-12s %8zu %12llu %12llu %12llu\n", "roundtrip",
                    rtt.size(),
                    static_cast<unsigned long long>(percentile(rtt, 0.50)),
                    static_cast<unsigned long long>(percentile(rtt, 0.99)),
                    static_cast<unsigned long long>(
                        *std::max_element(rtt.begin(), rtt.end())));
    }
}

/// Stage-ordering contract for --selfcheck: the causal rank of each stage
/// along one hop (net_* and ctx ride separate hops and are exempt).
int stage_rank(const std::string& s) {
    if (s == "submit") return 0;
    if (s == "post") return 1;
    if (s == "sent") return 2;
    if (s == "ve_dispatch") return 3;
    if (s == "ve_done") return 4;
    if (s == "harvest") return 5;
    if (s == "collect") return 6;
    return -1; // failed / ctx / net_* — unordered
}

int selfcheck(const dataset& d, int node_filter) {
    std::size_t checked = 0, complete = 0;
    auto violation = [&](const timeline& t, const std::string& what) {
        std::fprintf(stderr,
                     "selfcheck FAILED: node %u ticket %llu: %s\n", t.node,
                     static_cast<unsigned long long>(t.ticket), what.c_str());
        return 1;
    };
    if (d.declared_count != d.timelines.size()) {
        std::fprintf(stderr,
                     "selfcheck FAILED: count field says %llu but %zu "
                     "timelines present\n",
                     static_cast<unsigned long long>(d.declared_count),
                     d.timelines.size());
        return 1;
    }
    for (const timeline& t : d.timelines) {
        if (node_filter >= 0 &&
            t.node != static_cast<std::uint32_t>(node_filter)) {
            continue;
        }
        ++checked;
        // 1. Events are virtual-time ordered.
        for (std::size_t i = 1; i < t.events.size(); ++i) {
            if (t.events[i].ts_ns < t.events[i - 1].ts_ns) {
                return violation(t, "events not time-ordered at index " +
                                        std::to_string(i));
            }
        }
        // 2. Causal stage order within the hop (equal timestamps allowed —
        //    several touchpoints can share one virtual instant).
        int last_rank = -1;
        std::uint64_t last_ts = 0;
        for (const tl_event& e : t.events) {
            const int r = stage_rank(e.stage);
            if (r < 0) {
                continue;
            }
            if (r < last_rank && e.ts_ns == last_ts) {
                return violation(t, "stage " + e.stage +
                                        " ordered after a later stage at the "
                                        "same timestamp");
            }
            last_rank = r;
            last_ts = e.ts_ns;
        }
        if (!t.complete) {
            continue;
        }
        ++complete;
        if (t.failed) {
            return violation(t, "timeline marked both complete and failed");
        }
        // 3. Exact telescoping: the attributed stages sum to the measured
        //    roundtrip, nanosecond for nanosecond.
        std::uint64_t sum = 0;
        for (const char* s : kRoundtripStages) {
            const auto it = t.stages.find(s);
            if (it == t.stages.end()) {
                return violation(t, std::string("complete timeline missing "
                                                "stage ") + s);
            }
            sum += it->second;
        }
        if (sum != t.roundtrip_ns) {
            return violation(
                t, "stage sum " + std::to_string(sum) + " != roundtrip " +
                       std::to_string(t.roundtrip_ns));
        }
    }
    // 4. Distribution-level soundness: summing the per-stage percentiles
    //    reconstructs the roundtrip percentile within 5% (the CI gate).
    //    The p50 check is two-sided (the distribution centre is homogeneous,
    //    so the sums must agree). At p99 different requests dominate
    //    different stages — a retransmit inflates one request's flag_poll, a
    //    delay spike another's send — so the sum of per-stage tails may
    //    legitimately EXCEED the roundtrip tail. The sound invariant is
    //    one-sided: attribution must never account for LESS time than the
    //    measured roundtrip tail (lost time would mean a stage is missing
    //    from the breakdown).
    const std::vector<const timeline*> cs = complete_of(d, node_filter);
    if (!cs.empty()) {
        for (const double q : {0.50, 0.99}) {
            std::uint64_t stage_sum = 0;
            for (const char* s : kRoundtripStages) {
                stage_sum += percentile(stage_samples(cs, s), q);
            }
            const std::uint64_t rtt = percentile(roundtrip_samples(cs), q);
            const double tol =
                std::max(0.05 * static_cast<double>(rtt), 64.0);
            const double diff = static_cast<double>(stage_sum) -
                                static_cast<double>(rtt);
            const bool bad = q == 0.50 ? std::fabs(diff) > tol : -diff > tol;
            if (bad) {
                std::fprintf(stderr,
                             "selfcheck FAILED: p%d stage sum %llu vs "
                             "roundtrip %llu exceeds 5%% tolerance\n",
                             static_cast<int>(q * 100),
                             static_cast<unsigned long long>(stage_sum),
                             static_cast<unsigned long long>(rtt));
                return 1;
            }
        }
    }
    std::printf("selfcheck OK: %zu timelines checked, %zu complete, %llu "
                "events dropped\n",
                checked, complete,
                static_cast<unsigned long long>(d.dropped_events));
    return 0;
}

void print_bench_json(const dataset& d, int node_filter) {
    const std::vector<const timeline*> cs = complete_of(d, node_filter);
    std::printf("{\n  \"bench\": \"aurora_trace_query\",\n  \"metrics\": {\n");
    std::printf("    \"timelines\": %zu,\n", d.timelines.size());
    std::printf("    \"complete\": %zu,\n", cs.size());
    std::printf("    \"dropped_events\": %llu",
                static_cast<unsigned long long>(d.dropped_events));
    if (!cs.empty()) {
        std::printf(",\n    \"roundtrip_p50_ns\": %llu,\n",
                    static_cast<unsigned long long>(
                        percentile(roundtrip_samples(cs), 0.50)));
        std::printf("    \"roundtrip_p99_ns\": %llu",
                    static_cast<unsigned long long>(
                        percentile(roundtrip_samples(cs), 0.99)));
        for (const char* s : kRoundtripStages) {
            std::printf(",\n    \"%s_p50_ns\": %llu", s,
                        static_cast<unsigned long long>(
                            percentile(stage_samples(cs, s), 0.50)));
        }
    }
    std::printf("\n  }\n}\n");
}

int usage() {
    std::fprintf(
        stderr,
        "usage: aurora_trace_query <timelines.json> [options]\n"
        "  --timelines     one line per request timeline\n"
        "  --slowest N     the N worst complete roundtrips, slowest first\n"
        "  --stages        per-stage p50/p99/max table (complete timelines)\n"
        "  --node N        restrict every view to target node N\n"
        "  --selfcheck     validate the attribution invariants; exit 1 on "
        "violation\n"
        "  --bench-json    machine-readable summary (scripts/check_bench.py)\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    std::string path;
    bool want_timelines = false, want_stages = false, want_selfcheck = false;
    bool want_bench = false;
    long slowest = 0;
    int node_filter = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--timelines") {
            want_timelines = true;
        } else if (a == "--stages") {
            want_stages = true;
        } else if (a == "--selfcheck") {
            want_selfcheck = true;
        } else if (a == "--bench-json") {
            want_bench = true;
        } else if (a == "--slowest" && i + 1 < argc) {
            slowest = std::strtol(argv[++i], nullptr, 10);
        } else if (a == "--node" && i + 1 < argc) {
            node_filter = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
        } else if (a == "--help" || a == "-h") {
            return usage();
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            return usage();
        } else if (path.empty()) {
            path = a;
        } else {
            return usage();
        }
    }
    if (path.empty()) {
        return usage();
    }

    dataset d;
    std::string err;
    if (!load(path, d, err)) {
        std::fprintf(stderr, "aurora_trace_query: %s\n", err.c_str());
        return 1;
    }

    if (want_selfcheck) {
        return selfcheck(d, node_filter);
    }
    if (want_bench) {
        print_bench_json(d, node_filter);
        return 0;
    }

    const std::vector<const timeline*> cs = complete_of(d, node_filter);
    if (want_timelines) {
        for (const timeline& t : d.timelines) {
            if (node_filter >= 0 &&
                t.node != static_cast<std::uint32_t>(node_filter)) {
                continue;
            }
            print_timeline_line(t);
        }
        return 0;
    }
    if (slowest > 0) {
        std::vector<const timeline*> sorted = cs;
        std::sort(sorted.begin(), sorted.end(),
                  [](const timeline* a, const timeline* b) {
                      return a->roundtrip_ns > b->roundtrip_ns;
                  });
        const auto n = std::min<std::size_t>(sorted.size(),
                                             static_cast<std::size_t>(slowest));
        for (std::size_t i = 0; i < n; ++i) {
            print_timeline_line(*sorted[i]);
        }
        return 0;
    }

    // Default view: dataset summary, then the stage table.
    std::size_t failed = 0, lossy = 0;
    for (const timeline& t : d.timelines) {
        failed += t.failed ? 1 : 0;
        lossy += t.lossy ? 1 : 0;
    }
    std::printf("%zu timelines (%zu complete, %zu failed, %zu lossy), %llu "
                "trace events dropped\n\n",
                d.timelines.size(), cs.size(), failed, lossy,
                static_cast<unsigned long long>(d.dropped_events));
    if (want_stages || !cs.empty()) {
        print_stage_table(cs);
    }
    return 0;
}
