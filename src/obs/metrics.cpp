#include "obs/metrics.h"

#include <fstream>
#include <ostream>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rfid::obs {

namespace {

/// JSON number: integral values print without a fractional part so counter
/// JSON stays exact; everything else round-trips via %.17g.  Non-finite
/// values (never produced by the metrics themselves) degrade to 0.
std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* kindName(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

int Histogram::bucketOf(double v) {
  int idx = 0;
  double bound = 1.0;
  while (v > bound && idx < kBuckets - 1) {
    bound *= 2.0;
    ++idx;
  }
  return idx;
}

void Histogram::record(double v) {
  const std::lock_guard<std::mutex> lock(mu_);
  stat_.add(v);
  ++buckets_[bucketOf(v)];
}

std::int64_t Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stat_.count();
}

double Histogram::min() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stat_.min();
}

double Histogram::max() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stat_.max();
}

double Histogram::mean() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stat_.mean();
}

double Histogram::percentile(double p) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t n = stat_.count();
  if (n == 0) return 0.0;
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n);
  std::int64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += buckets_[i];
    if (static_cast<double>(cum) >= rank) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
      const double hi = std::ldexp(1.0, i);
      const double frac = (rank - before) / static_cast<double>(buckets_[i]);
      return std::clamp(lo + (hi - lo) * frac, stat_.min(), stat_.max());
    }
  }
  return stat_.max();
}

void Histogram::merge(const Histogram& o) {
  // Lock ordering: callers merge distinct registries, and self-merge is the
  // only way to alias — guard it instead of ordering the locks.
  if (this == &o) return;
  const std::lock_guard<std::mutex> lock_o(o.mu_);
  const std::lock_guard<std::mutex> lock(mu_);
  stat_.merge(o.stat_);
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               Kind kind) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("metric '" + std::string(name) +
                             "' already registered as " +
                             kindName(static_cast<int>(it->second.kind)) +
                             ", requested as " +
                             kindName(static_cast<int>(kind)));
    }
    return it->second;
  }
  Entry& e = entries_[std::string(name)];
  e.kind = kind;
  return e;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return entry(name, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return entry(name, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return entry(name, Kind::kHistogram).histogram;
}

bool MetricsRegistry::empty() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.empty();
}

void MetricsRegistry::merge(const MetricsRegistry& o) {
  if (this == &o) return;
  // Snapshot o's names first so we never hold both registry locks while
  // touching entries (entry() locks mu_ internally).
  std::vector<std::pair<std::string, Kind>> names;
  {
    const std::lock_guard<std::mutex> lock(o.mu_);
    names.reserve(o.entries_.size());
    for (const auto& [name, e] : o.entries_) names.emplace_back(name, e.kind);
  }
  for (const auto& [name, kind] : names) {
    Entry& mine = entry(name, kind);
    const std::lock_guard<std::mutex> lock(o.mu_);
    const auto it = o.entries_.find(name);
    if (it == o.entries_.end()) continue;
    switch (kind) {
      case Kind::kCounter:
        mine.counter.add(it->second.counter.value());
        break;
      case Kind::kGauge:
        mine.gauge.set(it->second.gauge.value());
        break;
      case Kind::kHistogram:
        mine.histogram.merge(it->second.histogram);
        break;
    }
  }
}

void MetricsRegistry::writeJson(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(std::max(indent, 0)), ' ');
  const std::lock_guard<std::mutex> lock(mu_);

  const auto emitSection = [&](Kind kind, const char* title, bool last) {
    os << pad << "  \"" << title << "\": {";
    bool first = true;
    for (const auto& [name, e] : entries_) {
      if (e.kind != kind) continue;
      os << (first ? "\n" : ",\n") << pad << "    \"" << name << "\": ";
      first = false;
      switch (kind) {
        case Kind::kCounter:
          os << e.counter.value();
          break;
        case Kind::kGauge:
          os << jsonNumber(e.gauge.value());
          break;
        case Kind::kHistogram: {
          const Histogram& h = e.histogram;
          os << "{\"count\": " << h.count()
             << ", \"min\": " << jsonNumber(h.min())
             << ", \"max\": " << jsonNumber(h.max())
             << ", \"mean\": " << jsonNumber(h.mean())
             << ", \"p50\": " << jsonNumber(h.percentile(50))
             << ", \"p90\": " << jsonNumber(h.percentile(90))
             << ", \"p99\": " << jsonNumber(h.percentile(99)) << "}";
          break;
        }
      }
    }
    os << (first ? "}" : "\n" + pad + "  }") << (last ? "\n" : ",\n");
  };

  os << pad << "{\n";
  emitSection(Kind::kCounter, "counters", false);
  emitSection(Kind::kGauge, "gauges", false);
  emitSection(Kind::kHistogram, "histograms", true);
  os << pad << "}";
}

bool MetricsRegistry::writeJsonFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  writeJson(os);
  os << '\n';
  return static_cast<bool>(os);
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Our dot-separated
// names map dots (and any other outlaw character) to underscores.
std::string promName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

}  // namespace

void MetricsRegistry::writePrometheus(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, e] : entries_) {
    const std::string base = promName(name);
    switch (e.kind) {
      case Kind::kCounter:
        os << "# TYPE " << base << "_total counter\n"
           << base << "_total " << e.counter.value() << '\n';
        break;
      case Kind::kGauge:
        os << "# TYPE " << base << " gauge\n"
           << base << ' ' << jsonNumber(e.gauge.value()) << '\n';
        break;
      case Kind::kHistogram: {
        const Histogram& h = e.histogram;
        const std::pair<const char*, double> fields[] = {
            {"_count", static_cast<double>(h.count())},
            {"_min", h.min()},
            {"_max", h.max()},
            {"_mean", h.mean()},
            {"_p50", h.percentile(50)},
            {"_p90", h.percentile(90)},
            {"_p99", h.percentile(99)},
        };
        for (const auto& [suffix, value] : fields) {
          os << "# TYPE " << base << suffix << " gauge\n"
             << base << suffix << ' ' << jsonNumber(value) << '\n';
        }
        break;
      }
    }
  }
}

bool MetricsRegistry::writePrometheusFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  writePrometheus(os);
  return static_cast<bool>(os);
}

}  // namespace rfid::obs
