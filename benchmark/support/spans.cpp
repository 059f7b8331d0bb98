#include "support/spans.hpp"

#include <map>
#include <string>

#include "sim/engine.hpp"
#include "support/host.hpp"
#include "support/stats.hpp"

namespace aurora_bench {

std::uint32_t span_recorder::open(const char* name, std::uint64_t request) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    span& s = spans_.emplace_back();
    s.name = name;
    s.parent = current_;
    s.request = request;
    current_ = id;
    // Clocks last, so the bookkeeping above stays outside the span.
    s.virt0 = aurora::sim::now();
    s.cpu0 = host::thread_cpu_ns();
    s.wall0 = host::wall_ns();
    return id;
}

void span_recorder::close(std::uint32_t id) {
    const std::int64_t wall = host::wall_ns();
    const std::int64_t cpu = host::thread_cpu_ns();
    span& s = spans_[id];
    s.wall1 = wall;
    s.cpu1 = cpu;
    s.virt1 = aurora::sim::now();
    current_ = s.parent;
}

std::vector<double> span_recorder::self_wall() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] += double(spans_[i].wall1 - spans_[i].wall0);
        if (spans_[i].parent != span::no_parent) {
            self[spans_[i].parent] -= double(spans_[i].wall1 - spans_[i].wall0);
        }
    }
    return self;
}

span_recorder::name_stats span_recorder::stats(std::string_view name) const {
    name_stats st;
    std::vector<double> wall, cpu;
    const std::vector<double> self = self_wall();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        if (name != s.name) {
            continue;
        }
        wall.push_back(double(s.wall1 - s.wall0));
        cpu.push_back(double(s.cpu1 - s.cpu0));
        st.total_wall_ns += wall.back();
        st.total_self_wall_ns += self[i];
        st.total_cpu_ns += cpu.back();
        st.total_virt_ns += double(s.virt1 - s.virt0);
    }
    st.count = wall.size();
    if (st.count > 0) {
        st.median_wall_ns = median(wall);
        st.median_cpu_ns = median(cpu);
        st.mean_virt_ns = st.total_virt_ns / double(st.count);
    }
    return st;
}

void span_recorder::write_json(std::ostream& out) const {
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
            << s.name << "\",\"parent\":";
        if (s.parent == span::no_parent) {
            out << "null";
        } else {
            out << s.parent;
        }
        out << ",\"req\":" << s.request << ",\"wall_ns\":[" << s.wall0 << ","
            << s.wall1 << "],\"cpu_ns\":[" << s.cpu0 << "," << s.cpu1
            << "],\"virt_ns\":[" << s.virt0 << "," << s.virt1 << "]}";
    }
    out << "],\n\"summary\":{";
    std::map<std::string, int> seen;
    for (const span& s : spans_) {
        seen.emplace(s.name, 0);
    }
    bool first = true;
    for (const auto& [name, unused] : seen) {
        const name_stats st = stats(name);
        out << (first ? "" : ",") << "\n\"" << name << "\":{\"count\":" << st.count
            << ",\"wall_ns\":" << fmt(st.total_wall_ns)
            << ",\"self_wall_ns\":" << fmt(st.total_self_wall_ns)
            << ",\"cpu_ns\":" << fmt(st.total_cpu_ns)
            << ",\"virt_ns\":" << fmt(st.total_virt_ns)
            << ",\"median_wall_ns\":" << fmt(st.median_wall_ns)
            << ",\"median_cpu_ns\":" << fmt(st.median_cpu_ns) << "}";
        first = false;
    }
    out << "}}\n";
}

} // namespace aurora_bench
