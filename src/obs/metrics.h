// metrics.h — the rfid::obs metrics registry (counters, gauges, histograms).
//
// Observability layer used across the stack: the MCS driver, the one-shot
// schedulers, the System referee, the network simulator, and the link-layer
// protocols all report into a MetricsRegistry when one is attached (nullptr
// = detached, near-zero cost).  Design goals, in order:
//
//   1. Cheap enough to leave on.  Handles (Counter&, Gauge&, Histogram&)
//      are resolved once by name and then bumped without lookups; hot paths
//      cache the handle and guard with a single pointer test.
//   2. Deterministic exports.  Entries are stored name-sorted and exported
//      in that order, so two runs that record the same values byte-compare
//      equal.  Parallel sweeps follow the repo's discipline: one registry
//      per iteration, merged sequentially in index order afterwards
//      (see bench_common.h), which makes the sidecar JSON bit-identical at
//      any analysis::parallelFor thread count.
//
// Naming convention (docs/observability.md): dot-separated lowercase paths,
// `<subsystem>.<quantity>`, e.g. "mcs.slots", "sched.weight_evals",
// "net.messages", "protocol.aloha.frames", "core.grid_queries".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include <atomic>
#include <map>
#include <mutex>

#include "analysis/stats.h"

namespace rfid::obs {

/// Monotonically increasing integer metric.  Thread-safe (relaxed atomic):
/// concurrent adds from parallel sweeps produce exact totals.
class Counter {
 public:
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<std::int64_t> v_{0};
};

/// Last-value-wins floating-point metric (e.g. "rounds of the latest run").
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<double> v_{0.0};
};

/// Streaming distribution: analysis::RunningStat (count/min/max/mean) plus
/// fixed power-of-two log buckets for percentile estimates.  Bucket i covers
/// (2^(i-1), 2^i] with bucket 0 holding everything <= 1; percentile() does
/// linear interpolation inside the selected bucket and clamps to the
/// observed [min, max].  Thread-safe (one small mutex per histogram).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(double v);
  std::int64_t count() const;
  double min() const;
  double max() const;
  double mean() const;
  /// Estimated p-th percentile, p in [0, 100].  0 with no samples.
  double percentile(double p) const;
  void merge(const Histogram& o);

 private:
  friend class MetricsRegistry;
  static int bucketOf(double v);

  mutable std::mutex mu_;
  analysis::RunningStat stat_;
  std::int64_t buckets_[kBuckets] = {};
};

/// Named metric store.  counter()/gauge()/histogram() create on first use
/// and return a stable reference; re-registering a name as a different kind
/// throws std::logic_error (name-collision semantics are strict so a typo
/// cannot silently fork a metric).  Non-copyable; share by pointer.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  bool empty() const;

  /// Adds every counter of `o`, merges histograms, and overwrites gauges
  /// with `o`'s values (last writer wins — merge in a deterministic order).
  /// Kind mismatches throw std::logic_error.
  void merge(const MetricsRegistry& o);

  /// Deterministic JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,min,max,mean,p50,p90,p99}}}, keys sorted.
  /// `indent` spaces prefix every emitted line (for embedding); no trailing
  /// newline.
  void writeJson(std::ostream& os, int indent = 0) const;
  bool writeJsonFile(const std::string& path) const;

  /// Prometheus text exposition format v0.0.4 (groundwork for the service
  /// endpoint, ROADMAP item 2).  Dots in metric names become underscores
  /// ("mcs.slots" → "mcs_slots"); counters get a `_total` suffix per
  /// convention; histograms export _count/_min/_max/_mean/_p50/_p90/_p99
  /// gauges (the log-2 buckets are an estimator, not a Prometheus
  /// cumulative histogram, so quantiles are exported pre-computed).
  /// Name-sorted, trailing newline included.
  void writePrometheus(std::ostream& os) const;
  bool writePrometheusFile(const std::string& path) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Entry& entry(std::string_view name, Kind kind);

  mutable std::mutex mu_;
  // std::map: stable node addresses (handles survive later insertions) and
  // name-sorted iteration for deterministic export.
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace rfid::obs
