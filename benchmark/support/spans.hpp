// Span recorder for the traced run.
//
// The benchmark opens a span around every public call it makes into the
// program. A span holds its name, its parent (the span open when it
// started), the request it belongs to, and its start and end in three
// clocks: real time, VH-thread CPU time and virtual time. Spans stay in
// memory and are written out when the run ends; a span's self time is its
// duration minus the time its children cover.
//
// All spans are opened on the simulated VH thread, the benchmark's single
// load generator, so the recorder needs no locking.
#pragma once

#include <cstdint>
#include <limits>
#include <ostream>
#include <string_view>
#include <vector>

namespace aurora_bench {

struct span {
    static constexpr std::uint32_t no_parent =
        std::numeric_limits<std::uint32_t>::max();

    const char* name = "";
    std::uint32_t parent = no_parent;
    std::uint64_t request = 0;
    std::int64_t wall0 = 0, wall1 = 0;
    std::int64_t cpu0 = 0, cpu1 = 0;
    std::int64_t virt0 = 0, virt1 = 0;
};

class span_recorder {
public:
    /// Reserve room so recording in a timed phase does not allocate.
    void reserve(std::size_t n) { spans_.reserve(n); }

    /// Open a child of the currently open span. `name` must be a literal.
    std::uint32_t open(const char* name, std::uint64_t request);
    void close(std::uint32_t id);
    /// Relabel a span once its outcome is known (e.g. a shed submit).
    void rename(std::uint32_t id, const char* name) { spans_[id].name = name; }

    [[nodiscard]] const std::vector<span>& spans() const noexcept { return spans_; }

    /// Aggregate over every closed span called `name`.
    struct name_stats {
        std::size_t count = 0;
        double median_wall_ns = 0;
        double median_cpu_ns = 0;
        double mean_virt_ns = 0;
        double total_wall_ns = 0;
        double total_self_wall_ns = 0;
        double total_cpu_ns = 0;
        double total_virt_ns = 0;
    };
    [[nodiscard]] name_stats stats(std::string_view name) const;

    /// Every span plus a per-name summary (with self time), as one JSON
    /// object.
    void write_json(std::ostream& out) const;

private:
    /// Per span: wall duration minus the wall duration of its children.
    [[nodiscard]] std::vector<double> self_wall() const;

    std::vector<span> spans_;
    std::uint32_t current_ = span::no_parent;
};

/// RAII span; a null recorder records nothing (the untraced run).
class scoped_span {
public:
    scoped_span(span_recorder* r, const char* name, std::uint64_t request = 0)
        : r_(r), id_(r != nullptr ? r->open(name, request) : 0) {}
    ~scoped_span() {
        if (r_ != nullptr) {
            r_->close(id_);
        }
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

    void rename(const char* name) {
        if (r_ != nullptr) {
            r_->rename(id_, name);
        }
    }

private:
    span_recorder* r_;
    std::uint32_t id_;
};

} // namespace aurora_bench
