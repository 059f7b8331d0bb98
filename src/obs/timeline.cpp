#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>

#include "metrics/metrics.hpp"
#include "util/check.hpp"
#include "util/env.hpp"

namespace aurora::obs {

namespace {

/// The causally expected predecessor of each duration endpoint. A duration is
/// attributed only when the retained predecessor matches — a timeline with
/// gaps (lane overflow, VE death) never mislabels a merged interval as one
/// stage.
[[nodiscard]] stage expected_pred(stage s) noexcept {
    switch (s) {
        case stage::post: return stage::submit;
        case stage::sent: return stage::post;
        case stage::ve_dispatch: return stage::sent;
        case stage::ve_done: return stage::ve_dispatch;
        case stage::harvest: return stage::ve_done;
        case stage::collect: return stage::harvest;
        default: return s;
    }
}

[[nodiscard]] bool has(const timeline& tl, stage s) noexcept {
    for (const timeline_event& e : tl.events) {
        if (e.st == s) {
            return true;
        }
    }
    return false;
}

[[nodiscard]] std::uint64_t first_ts(const timeline& tl, stage s) noexcept {
    for (const timeline_event& e : tl.events) {
        if (e.st == s) {
            return e.ts_ns;
        }
    }
    return 0;
}

} // namespace

const char* edge_name(stage s) noexcept {
    switch (s) {
        case stage::post: return "queue_wait";
        case stage::sent: return "send";
        case stage::ve_dispatch: return "flag_poll";
        case stage::ve_done: return "execute";
        case stage::harvest: return "result";
        case stage::collect: return "settle";
        default: return nullptr;
    }
}

reassembly reassemble(
    const std::vector<trace::collector::lane_snapshot>& lanes) {
    reassembly out;
    using key = std::pair<std::uint16_t, std::uint64_t>; // (node, ticket)
    std::map<key, timeline> by_key;
    /// Host `post` index per (node, slot): the join table for VE events.
    struct posting {
        std::uint64_t ts;
        std::uint64_t ticket;
        std::uint8_t epoch;
    };
    std::map<std::pair<std::uint16_t, std::uint16_t>, std::vector<posting>>
        posts;
    struct ve_ev {
        std::uint64_t ts;
        std::uint16_t node;
        std::uint16_t slot;
        std::uint8_t epoch;
        stage st;
        bool lossy;
    };
    std::vector<ve_ev> ve_events;

    for (const trace::collector::lane_snapshot& l : lanes) {
        bool lane_has_req = false;
        const bool lane_lossy = l.dropped > 0;
        for (const trace::event& e : l.events) {
            if (e.type != trace::event_type::lifecycle) {
                continue;
            }
            lane_has_req = true;
            const stage s = ref_stage(e.ref);
            const std::uint16_t node = ref_node(e.ref);
            const std::uint16_t slot = ref_slot(e.ref);
            const std::uint8_t epoch = ref_epoch(e.ref);
            if (s == stage::ctx) {
                timeline& tl = by_key[{node, e.value}];
                tl.node = node;
                tl.ticket = e.value;
                tl.trace_id = e.dur_ns;
                tl.parent_span = slot; // ctx packs the parent span there
                tl.lossy = tl.lossy || lane_lossy;
                continue;
            }
            if (s == stage::ve_dispatch || s == stage::ve_done) {
                // VE side carries no ticket; joined via the post index below.
                ve_events.push_back({e.ts_ns, node, slot, epoch, s, lane_lossy});
                continue;
            }
            timeline& tl = by_key[{node, e.value}];
            tl.node = node;
            tl.ticket = e.value;
            tl.lossy = tl.lossy || lane_lossy;
            // Shed/expired requests never ran: terminal, not complete.
            tl.failed = tl.failed || s == stage::failed ||
                        s == stage::shed || s == stage::expired;
            tl.events.push_back({s, e.ts_ns, slot, epoch});
            if (s == stage::post) {
                posts[{node, slot}].push_back({e.ts_ns, e.value, epoch});
            }
        }
        if (lane_has_req && lane_lossy) {
            out.dropped_events += l.dropped;
        }
    }

    for (auto& [slot_key, list] : posts) {
        std::sort(list.begin(), list.end(),
                  [](const posting& a, const posting& b) { return a.ts < b.ts; });
    }
    // Join each VE event to the latest post on its (node, slot, epoch) that
    // does not postdate it — sound because the host never reuses a slot
    // before harvesting the previous occupant.
    for (const ve_ev& v : ve_events) {
        const auto it = posts.find({v.node, v.slot});
        if (it == posts.end()) {
            continue; // the matching post was dropped from its lane
        }
        const std::vector<posting>& list = it->second;
        const posting* match = nullptr;
        for (const posting& p : list) {
            if (p.ts > v.ts) {
                break;
            }
            if (p.epoch == v.epoch) {
                match = &p;
            }
        }
        if (match == nullptr) {
            continue;
        }
        timeline& tl = by_key[{v.node, match->ticket}];
        tl.lossy = tl.lossy || v.lossy;
        tl.events.push_back({v.st, v.ts, v.slot, v.epoch});
    }

    for (auto& [k, tl] : by_key) {
        std::stable_sort(tl.events.begin(), tl.events.end(),
                         [](const timeline_event& a, const timeline_event& b) {
                             return std::make_tuple(a.ts_ns, std::uint8_t(a.st)) <
                                    std::make_tuple(b.ts_ns, std::uint8_t(b.st));
                         });
        for (std::size_t i = 1; i < tl.events.size(); ++i) {
            const timeline_event& prev = tl.events[i - 1];
            const timeline_event& cur = tl.events[i];
            if (edge_name(cur.st) != nullptr &&
                expected_pred(cur.st) == prev.st) {
                tl.stage_ns[std::uint8_t(cur.st)] = cur.ts_ns - prev.ts_ns;
            }
        }
        const bool spine = has(tl, stage::post) && has(tl, stage::sent) &&
                           has(tl, stage::ve_dispatch) &&
                           has(tl, stage::ve_done) && has(tl, stage::harvest);
        if (spine) {
            const std::uint64_t post = first_ts(tl, stage::post);
            const std::uint64_t harvest = first_ts(tl, stage::harvest);
            tl.roundtrip_ns = harvest - post;
            // Complete means every inner edge got attributed — the retained
            // touchpoints form the full causal spine with no gaps.
            tl.complete = tl.stage_ns[std::uint8_t(stage::sent)] +
                                  tl.stage_ns[std::uint8_t(stage::ve_dispatch)] +
                                  tl.stage_ns[std::uint8_t(stage::ve_done)] +
                                  tl.stage_ns[std::uint8_t(stage::harvest)] ==
                              tl.roundtrip_ns &&
                          harvest >= post && !tl.failed;
        }
    }

    out.timelines.reserve(by_key.size());
    for (auto& [k, tl] : by_key) {
        out.timelines.push_back(std::move(tl));
    }
    std::sort(out.timelines.begin(), out.timelines.end(),
              [](const timeline& a, const timeline& b) {
                  const std::uint64_t ta =
                      a.events.empty() ? 0 : a.events.front().ts_ns;
                  const std::uint64_t tb =
                      b.events.empty() ? 0 : b.events.front().ts_ns;
                  return std::make_tuple(a.node, ta, a.ticket) <
                         std::make_tuple(b.node, tb, b.ticket);
              });
    return out;
}

reassembly reassemble() {
    return reassemble(trace::collector::instance().snapshot());
}

std::string timelines_json(const reassembly& r, const std::string& head) {
    std::ostringstream os;
    os << "{" << head << (head.empty() ? "" : ",") << "\"timelines\":[";
    bool first_tl = true;
    for (const timeline& tl : r.timelines) {
        if (!first_tl) {
            os << ",\n";
        }
        first_tl = false;
        os << "{\"node\":" << tl.node << ",\"ticket\":" << tl.ticket
           << ",\"trace_id\":" << tl.trace_id
           << ",\"parent_span\":" << tl.parent_span
           << ",\"complete\":" << (tl.complete ? "true" : "false")
           << ",\"failed\":" << (tl.failed ? "true" : "false")
           << ",\"lossy\":" << (tl.lossy ? "true" : "false")
           << ",\"roundtrip_ns\":" << tl.roundtrip_ns << ",\"stages\":{";
        bool first_st = true;
        for (std::size_t i = 0; i < tl.stage_ns.size(); ++i) {
            const char* name = edge_name(static_cast<stage>(i));
            if (name == nullptr || tl.stage_ns[i] == 0) {
                continue;
            }
            if (!first_st) {
                os << ",";
            }
            first_st = false;
            os << "\"" << name << "\":" << tl.stage_ns[i];
        }
        os << "},\"events\":[";
        for (std::size_t i = 0; i < tl.events.size(); ++i) {
            const timeline_event& e = tl.events[i];
            if (i != 0) {
                os << ",";
            }
            os << "{\"stage\":\"" << to_string(e.st)
               << "\",\"ts_ns\":" << e.ts_ns << ",\"slot\":" << e.slot
               << ",\"epoch\":" << unsigned(e.epoch) << "}";
        }
        os << "]}";
    }
    os << "],\"count\":" << r.timelines.size()
       << ",\"dropped_events\":" << r.dropped_events << "}\n";
    return os.str();
}

void record_stage_metrics(const reassembly& r) {
    namespace m = aurora::metrics;
    auto& reg = m::registry::global();
    m::histogram* roundtrip = &reg.histogram_for(
        "aurora_obs_roundtrip_ns", "",
        "request roundtrip (post..harvest) from reassembled timelines");
    std::array<m::histogram*, num_stages> hist{};
    for (std::size_t i = 0; i < num_stages; ++i) {
        if (const char* name = edge_name(static_cast<stage>(i))) {
            hist[i] = &reg.histogram_for(
                "aurora_obs_stage_ns", m::labels({{"stage", name}}),
                "per-request critical-path stage durations");
        }
    }
    for (const timeline& tl : r.timelines) {
        if (!tl.complete) {
            // Partial timelines would skew the attribution sum the selfcheck
            // enforces; only the full causal spine feeds the histograms.
            continue;
        }
        roundtrip->record(tl.roundtrip_ns);
        for (std::size_t i = 0; i < num_stages; ++i) {
            if (hist[i] != nullptr && tl.stage_ns[i] != 0) {
                hist[i]->record(tl.stage_ns[i]);
            }
        }
    }
}

void flush_to_env() {
    if (!trace::enabled()) {
        return;
    }
    const auto file = env_string("HAM_AURORA_OBS_FILE");
    if (!file) {
        return;
    }
    const reassembly r = reassemble();
    record_stage_metrics(r);
    std::FILE* f = std::fopen(file->c_str(), "w");
    AURORA_CHECK_MSG(f != nullptr, "cannot open timelines file " << *file);
    const std::string json = timelines_json(r);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
}

} // namespace aurora::obs
