#include "metrics/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace aurora::metrics {

namespace {
// Static initialisation runs on the main thread: it owns the shards.
[[maybe_unused]] const bool g_main_thread_owns_shards = [] {
    detail::t_shard_owner = true;
    return true;
}();
} // namespace

double histogram::snapshot::percentile(double q) const {
    if (count == 0) {
        return 0.0;
    }
    if (q < 0.0) {
        q = 0.0;
    }
    if (q > 100.0) {
        q = 100.0;
    }
    // 1-based rank of the percentile element in the sorted multiset.
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q / 100.0 * double(count)));
    if (rank < 1) {
        rank = 1;
    }
    if (rank > count) {
        rank = count;
    }
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < num_buckets; ++b) {
        const std::uint64_t n = buckets[b];
        if (n == 0) {
            continue;
        }
        if (cum + n >= rank) {
            const double lo = double(histogram::bucket_lower(b));
            const double hi = double(histogram::bucket_upper(b));
            return lo + (hi - lo) * double(rank - cum) / double(n);
        }
        cum += n;
    }
    return double(max); // unreachable unless counts raced; max is a safe answer
}

void histogram::snapshot::merge(const snapshot& other) {
    for (std::size_t b = 0; b < num_buckets; ++b) {
        buckets[b] += other.buckets[b];
    }
    count += other.count;
    sum += other.sum;
    if (other.max > max) {
        max = other.max;
    }
}

histogram::snapshot histogram::snap() const {
    snapshot s;
    for (const shard* sh : {&owned_, &shared_}) {
        for (std::size_t b = 0; b < num_buckets; ++b) {
            s.buckets[b] += detail::relaxed_load(sh->buckets[b]);
        }
        s.count += detail::relaxed_load(sh->count);
        s.sum += detail::relaxed_load(sh->sum);
        s.max = std::max(s.max, detail::relaxed_load(sh->max));
    }
    return s;
}

std::string labels(
    std::initializer_list<std::pair<std::string_view, std::string_view>> kv) {
    std::string out;
    for (const auto& [k, v] : kv) {
        if (!out.empty()) {
            out += ',';
        }
        out += k;
        out += "=\"";
        for (const char c : v) {
            switch (c) {
                case '\\': out += "\\\\"; break;
                case '"': out += "\\\""; break;
                case '\n': out += "\\n"; break;
                default: out += c;
            }
        }
        out += '"';
    }
    return out;
}

registry& registry::global() {
    static registry r;
    return r;
}

registry::series& registry::series_for(std::string_view name,
                                       std::string_view labels,
                                       std::string_view help,
                                       instrument_kind kind) {
    std::lock_guard<std::mutex> lock(mu_);
    auto fit = families_.find(name);
    if (fit == families_.end()) {
        family f;
        f.kind = kind;
        f.help = std::string(help);
        fit = families_.emplace(std::string(name), std::move(f)).first;
    }
    AURORA_CHECK_MSG(fit->second.kind == kind,
                     "metric " << name << " registered as "
                               << to_string(fit->second.kind) << " and as "
                               << to_string(kind));
    auto sit = fit->second.by_labels.find(labels);
    if (sit == fit->second.by_labels.end()) {
        series s;
        switch (kind) {
            case instrument_kind::counter: s.c = std::make_unique<counter>(); break;
            case instrument_kind::gauge: s.g = std::make_unique<gauge>(); break;
            case instrument_kind::histogram:
                s.h = std::make_unique<histogram>();
                break;
        }
        sit = fit->second.by_labels.emplace(std::string(labels), std::move(s))
                  .first;
    }
    return sit->second;
}

const registry::series* registry::find(std::string_view name,
                                       std::string_view labels,
                                       instrument_kind kind) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto fit = families_.find(name);
    if (fit == families_.end() || fit->second.kind != kind) {
        return nullptr;
    }
    const auto sit = fit->second.by_labels.find(labels);
    return sit == fit->second.by_labels.end() ? nullptr : &sit->second;
}

counter& registry::counter_for(std::string_view name, std::string_view labels,
                               std::string_view help) {
    return *series_for(name, labels, help, instrument_kind::counter).c;
}

gauge& registry::gauge_for(std::string_view name, std::string_view labels,
                           std::string_view help) {
    return *series_for(name, labels, help, instrument_kind::gauge).g;
}

histogram& registry::histogram_for(std::string_view name,
                                   std::string_view labels,
                                   std::string_view help) {
    return *series_for(name, labels, help, instrument_kind::histogram).h;
}

const counter* registry::find_counter(std::string_view name,
                                      std::string_view labels) const {
    const series* s = find(name, labels, instrument_kind::counter);
    return s == nullptr ? nullptr : s->c.get();
}

const gauge* registry::find_gauge(std::string_view name,
                                  std::string_view labels) const {
    const series* s = find(name, labels, instrument_kind::gauge);
    return s == nullptr ? nullptr : s->g.get();
}

const histogram* registry::find_histogram(std::string_view name,
                                          std::string_view labels) const {
    const series* s = find(name, labels, instrument_kind::histogram);
    return s == nullptr ? nullptr : s->h.get();
}

std::vector<registry::family_snapshot> registry::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<family_snapshot> out;
    out.reserve(families_.size());
    for (const auto& [name, fam] : families_) {
        family_snapshot fs;
        fs.name = name;
        fs.help = fam.help;
        fs.kind = fam.kind;
        fs.series.reserve(fam.by_labels.size());
        for (const auto& [labels, s] : fam.by_labels) {
            series_snapshot ss;
            ss.labels = labels;
            switch (fam.kind) {
                case instrument_kind::counter:
                    ss.value = static_cast<std::int64_t>(s.c->value());
                    break;
                case instrument_kind::gauge:
                    ss.value = s.g->value();
                    break;
                case instrument_kind::histogram:
                    ss.hist = s.h->snap();
                    break;
            }
            fs.series.push_back(std::move(ss));
        }
        out.push_back(std::move(fs));
    }
    return out;
}

} // namespace aurora::metrics
