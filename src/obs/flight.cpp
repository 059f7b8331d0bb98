#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/timeline.hpp"
#include "util/env.hpp"

namespace aurora::obs {

void flight_ring::note(const trace::event& e) noexcept {
    const std::uint64_t h = head_.fetch_add(1, std::memory_order_relaxed);
    entry& en = slots_[h % slots_.size()];
    // Seqlock write: invalidate, fill, publish. A reader sandwiching its
    // payload loads between two acquire loads of `seq` can never use a torn
    // record — any concurrent writer changes seq.
    en.seq.store(0, std::memory_order_release);
    en.ts.store(e.ts_ns, std::memory_order_relaxed);
    en.ticket.store(e.value, std::memory_order_relaxed);
    en.ref.store(e.ref, std::memory_order_relaxed);
    en.seq.store(h + 1, std::memory_order_release);
}

std::vector<trace::event> flight_ring::snapshot() const {
    const std::uint64_t h = pushed();
    const std::uint64_t n = std::min<std::uint64_t>(h, slots_.size());
    std::vector<trace::event> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = h - n; i < h; ++i) {
        // Entry i % capacity holds note i (seq i + 1) unless a writer is
        // mid-update on it or has lapped it since `h` was read.
        const entry& en = slots_[i % slots_.size()];
        if (en.seq.load(std::memory_order_acquire) != i + 1) {
            continue;
        }
        const std::uint64_t ts = en.ts.load(std::memory_order_relaxed);
        const std::uint64_t ticket = en.ticket.load(std::memory_order_relaxed);
        const std::uint64_t ref = en.ref.load(std::memory_order_relaxed);
        if (en.seq.load(std::memory_order_acquire) != i + 1) {
            continue; // torn by a concurrent wrap-around
        }
        out.push_back(lifecycle(ref_stage(ref), ref_node(ref), ticket,
                                ref_slot(ref), ref_epoch(ref), ts));
    }
    return out;
}

// --- registry ---------------------------------------------------------------

namespace {

struct registry_state {
    std::mutex mu;
    std::map<std::uint16_t, std::unique_ptr<flight_ring>> rings;
};

registry_state& state() {
    static registry_state* s = new registry_state(); // never destroyed
    return *s;
}

/// Events each ring keeps.
constexpr std::uint32_t ring_capacity = 256;

} // namespace

flight_ring& flight_registry::ring_for(std::uint16_t node) {
    registry_state& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    auto& slot = s.rings[node];
    if (!slot) {
        slot = std::make_unique<flight_ring>(ring_capacity);
    }
    return *slot;
}

flight_ring* flight_registry::find(std::uint16_t node) {
    registry_state& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.rings.find(node);
    return it == s.rings.end() ? nullptr : it->second.get();
}

std::vector<std::uint16_t> flight_registry::nodes() {
    registry_state& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    std::vector<std::uint16_t> out;
    out.reserve(s.rings.size());
    for (const auto& [node, ring] : s.rings) {
        out.push_back(node);
    }
    return out;
}

void flight_registry::reset() {
    registry_state& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    s.rings.clear();
}

// --- postmortem -------------------------------------------------------------

namespace {

std::string escaped(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

} // namespace

std::string postmortem_json(std::uint16_t node, const char* kind,
                            std::uint8_t epoch, const std::string& reason) {
    const flight_ring* ring = flight_registry::find(node);
    trace::collector::lane_snapshot lane;
    lane.name = "flight";
    if (ring != nullptr) {
        lane.events = ring->snapshot();
        lane.dropped = ring->dropped();
    }
    std::ostringstream head;
    head << "\"node\":" << node << ",\"kind\":\"" << escaped(kind)
         << "\",\"epoch\":" << unsigned(epoch) << ",\"reason\":\""
         << escaped(reason)
         << "\",\"recorded\":" << (ring != nullptr ? ring->pushed() : 0);
    return timelines_json(reassemble({lane}), head.str());
}

std::string dump_postmortem_to_env(std::uint16_t node, const char* kind,
                                   std::uint8_t epoch,
                                   const std::string& reason) {
    const auto dir = env_string("HAM_AURORA_OBS_POSTMORTEM_DIR");
    if (!dir) {
        return {};
    }
    static std::atomic<std::uint32_t> g_next{0};
    const std::uint32_t n = g_next.fetch_add(1, std::memory_order_relaxed);
    std::ostringstream path;
    path << *dir << "/postmortem_node" << node << "_" << n << ".json";
    std::FILE* f = std::fopen(path.str().c_str(), "w");
    if (f == nullptr) {
        return {}; // a missing directory must never take down the runtime
    }
    const std::string json = postmortem_json(node, kind, epoch, reason);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return path.str();
}

} // namespace aurora::obs
