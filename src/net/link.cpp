#include "net/link.hpp"

#include "sim/pass.hpp"
#include "util/check.hpp"

namespace aurora::net {

namespace {
// The link's words as a parked loop's checks (sim::pass).
sim::time_ns room_due(const void* link, std::uint64_t dir) {
    return static_cast<const inter_node_channel*>(link)->has_room(
               static_cast<int>(dir))
               ? 0
               : sim::never;
}

sim::time_ns front_due(const void* link, std::uint64_t dir) {
    return static_cast<const inter_node_channel*>(link)->front_arrival(
        static_cast<int>(dir));
}

void count_refused_of(void* link, std::uint64_t, std::uint64_t n) {
    static_cast<inter_node_channel*>(link)->count_refused(n);
}
} // namespace

link_profile link_profile::by_name(const std::string& n) {
    if (n == "ib-hdr" || n == "ib") {
        return ib_hdr();
    }
    if (n == "roce") {
        return roce();
    }
    if (n == "ethernet-tcp" || n == "tcp" || n == "ethernet") {
        return ethernet_tcp();
    }
    AURORA_CHECK_MSG(false, "unknown link profile: " + n);
    return {};
}

inter_node_channel::inter_node_channel(link_profile profile, int remote_node)
    : profile_(std::move(profile)), remote_node_(remote_node) {
    auto& reg = metrics::registry::global();
    const std::string link = "0-" + std::to_string(remote_node_);
    const char* dir_name[2] = {"out", "in"};
    for (int d = 0; d < 2; ++d) {
        const std::string l = metrics::labels(
            {{"link", link}, {"profile", profile_.name}, {"dir", dir_name[d]}});
        wire_[d].sent = &reg.counter_for(
            "aurora_net_link_frames_total", l,
            "Frames posted onto an inter-node link, by direction.");
        wire_[d].bytes = &reg.counter_for(
            "aurora_net_link_bytes_total", l,
            "Payload bytes posted onto an inter-node link, by direction.");
    }
    const std::string l =
        metrics::labels({{"link", link}, {"profile", profile_.name}});
    backpressure_ = &reg.counter_for(
        "aurora_net_link_backpressure_total", l,
        "Sends refused because the link's in-flight window was full.");
    depth_ = &reg.gauge_for(
        "aurora_net_link_queue_depth", l,
        "Deepest per-direction in-flight frame count of an inter-node link.");
}

bool inter_node_channel::try_send(int dir, std::vector<std::byte>&& frame) {
    AURORA_CHECK(dir == 0 || dir == 1);
    direction& w = wire_[dir];
    if (!can_send(dir)) {
        sim::pass::tally(&count_refused_of, this);
        return false;
    }
    // The wire serialises frames: transmission starts when the previous
    // frame's last byte left, propagation (half RTT) rides on top.
    const sim::time_ns now = sim::now();
    const sim::time_ns start = now > w.busy_until ? now : w.busy_until;
    const sim::duration_ns serialise =
        profile_.per_msg_ns +
        sim::transfer_ns(frame.size(), profile_.bandwidth_gib);
    w.busy_until = start + serialise;
    w.sent->add(1);
    w.bytes->add(frame.size());
    w.frames.push_back({w.busy_until + profile_.half_rtt_ns, std::move(frame)});
    publish_depth();
    return true;
}

bool inter_node_channel::can_send(int dir) const {
    return sim::pass::live(&room_due, this, static_cast<std::uint64_t>(dir));
}

bool inter_node_channel::try_recv(int dir, std::vector<std::byte>& out) {
    AURORA_CHECK(dir == 0 || dir == 1);
    direction& w = wire_[dir];
    if (!sim::pass::live(&front_due, this, static_cast<std::uint64_t>(dir))) {
        return false;
    }
    out = std::move(w.frames.front().bytes);
    w.frames.pop_front();
    publish_depth();
    return true;
}

void inter_node_channel::publish_depth() noexcept {
    depth_->set(static_cast<std::int64_t>(queue_depth()));
}

} // namespace aurora::net
