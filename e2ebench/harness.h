// harness.h — shared plumbing of the end-to-end benchmark (rfidsched_e2e).
//
// The benchmark drives rfidsched only through its public entry points, the
// way rfidsched_cli and rfidsched_serve do, and times those calls from the
// outside: every per-layer number is the bench's own steady_clock reading
// around a call into one module, so it survives a -DRFIDSCHED_NO_OBS build.
// In a traced run the same calls are also obs::ScopedTimer spans on a sink
// that only bench code holds, so the library runs exactly as untraced.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "sched/mcs.h"
#include "sched/scheduler.h"

namespace e2e {

namespace obs = rfid::obs;
using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One benchmark invocation: which workload, its seed, how long to measure,
/// and where generated inputs and trace output go.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string work_dir = ".";
  /// Traced runs write <trace_stem>.trace.json (Chrome), .jsonl (span log
  /// for rfidsched_report), .metrics.json and .cost.json.  Empty: no files.
  std::string trace_stem;
  /// Toy sizes and short phases (the ctest smoke run).
  bool smoke = false;

  std::string workPath(std::string_view file) const;
};

/// Moves the calling thread onto the next core of the process's CPU set, in
/// turn, then lets it run on any of them again (threads it starts later may
/// too).  A thread left alone tends to stay on one core, and on a shared
/// host each core runs at full speed or up to twice as slow for seconds at
/// a time, independently of the others; starting each repeat on the next
/// core makes a run's repeats sample every core.  A no-op without Linux CPU
/// affinity.  Call it from one thread only.
void startOnNextCore();

/// Calls `body` at least `min_runs` times, then again while one more call,
/// as long as the previous one, still ends within `seconds` of the start.
/// Each call starts on the next core (startOnNextCore).
template <typename F>
void repeatFor(double seconds, int min_runs, F&& body) {
  const auto t0 = Clock::now();
  int runs = 0;
  double last_ms = 0.0;
  while (runs < min_runs || msSince(t0) + last_ms <= seconds * 1000.0) {
    startOnNextCore();
    const auto t1 = Clock::now();
    body();
    last_ms = msSince(t1);
    ++runs;
  }
}

/// A sample set with nearest-rank quantiles.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  /// q in [0, 1]; 0 for an empty set.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// The highest of p99 / p90 / p50 that still has at least ten samples
  /// beyond it, or the largest sample when there are fewer than twenty.
  /// `*pct` receives the percentile used (100 for the maximum).
  double tail(double* pct = nullptr) const;

 private:
  std::vector<double> v_;
};

/// Median of one field over a set of repeats.
template <typename R, typename F>
double medianOf(const std::vector<R>& repeats, F&& field) {
  Samples s;
  for (const R& r : repeats) s.add(field(r));
  return s.median();
}

/// Mean of one field over a set of repeats; 0 for an empty set.  The
/// end-to-end times use it.  On a shared host a core runs at full speed or
/// up to twice as slow for seconds at a time, so the repeat times of one run
/// fall into two clusters.  Their median jumps from one cluster to the other
/// when the slow share crosses a half; the mean (the timed wall over the
/// repeats, i.e. the inverse of repeats per second) moves only in
/// proportion to that share.
template <typename R, typename F>
double meanOf(const std::vector<R>& repeats, F&& field) {
  if (repeats.empty()) return 0.0;
  double sum = 0.0;
  for (const R& r : repeats) sum += field(r);
  return sum / static_cast<double>(repeats.size());
}

/// Named results of one run plus the output-check verdicts.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples);
  /// Records an output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Prints one JSON line per metric (name, value, unit, samples) and every
  /// failed check to stderr, then the result object for `wanted` (name,
  /// unit) as the last stdout line.  Returns the process exit code: 0 only
  /// when every check passed and every wanted metric was measured in its
  /// declared unit.
  int emit(const std::vector<std::pair<std::string, std::string>>& wanted) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::int64_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Accumulates bench-side wall time per layer name.  time() runs a call,
/// adds its steady_clock duration to the layer, and — with a sink — records
/// it as a span nested under whatever span is open on this thread.
class Layers {
 public:
  explicit Layers(obs::TraceSink* sink) : sink_(sink) {}

  template <typename F>
  decltype(auto) time(std::string_view layer, F&& f) {
    const Scope scope(*this, layer);
    return f();
  }
  double ms(std::string_view layer) const;
  obs::TraceSink* sink() const { return sink_; }

 private:
  class Scope {
   public:
    Scope(Layers& owner, std::string_view layer)
        : owner_(owner), layer_(layer), span_(nullptr, layer, owner.sink_),
          t0_(Clock::now()) {}
    ~Scope() { owner_.ms_[layer_] += msSince(t0_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Layers& owner_;
    std::string layer_;
    rfid::obs::ScopedTimer span_;
    Clock::time_point t0_;
  };

  obs::TraceSink* sink_;
  std::map<std::string, double, std::less<>> ms_;
};

/// Forwards to a real scheduler and times each schedule() call, so the
/// MCS loop's own work (referee, journal, validator, churn) can be told apart
/// from scheduling.  name() and stateFingerprint() are forwarded so journal
/// identities match a run of the bare scheduler.
class TimedScheduler final : public rfid::sched::OneShotScheduler {
 public:
  explicit TimedScheduler(rfid::sched::OneShotScheduler& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  rfid::sched::OneShotResult schedule(const rfid::core::System& sys) override;
  void attachChannel(rfid::fault::ChannelModel* c) override {
    inner_.attachChannel(c);
  }
  std::uint64_t stateFingerprint() const override {
    return inner_.stateFingerprint();
  }
  double ms() const { return ms_; }
  std::int64_t calls() const { return calls_; }

 private:
  rfid::sched::OneShotScheduler& inner_;
  double ms_ = 0.0;
  std::int64_t calls_ = 0;
};

/// The paper's uniform deployment (λ_R = 10, λ_r = 4) at the given size,
/// deterministic in the seed — what rfidsched_cli generates for the same
/// --readers/--tags/--side/--seed.
rfid::core::System makeDeployment(int readers, int tags, double side,
                                  std::uint64_t seed);

/// Sets the sched.* metrics drawn from a run's cost ledger total.
void reportBill(Report& rep, const obs::CostBill& bill);

/// FNV-1a step over one integer, for schedule and counter fingerprints.
std::uint64_t mix(std::uint64_t h, std::int64_t v);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Fingerprint of a committed schedule: every slot's active set and reads.
std::uint64_t hashSlots(const std::vector<rfid::sched::SlotRecord>& slots);

/// Peak resident set of this process in MiB (VmHWM); 0 without procfs.
double peakRssMib();

/// Resets VmHWM to the current resident set (Linux /proc/self/clear_refs),
/// so the next peakRssMib() covers only what ran in between; without it the
/// peak stays the process-lifetime one.
void resetPeakRss();

/// Size of a file in bytes, 0 when it does not exist.
std::int64_t fileBytes(const std::string& path);

/// Removes a checkpoint journal and its snapshot sidecar.
void removeJournal(const std::string& path);

/// Writes the sink, the registry and the ledger next to cfg.trace_stem.
/// Returns false on an I/O failure; true when tracing is off.
bool writeTrace(const RunConfig& cfg, const obs::TraceSink& sink,
                const obs::MetricsRegistry& reg, const obs::CostLedger& ledger);

// Workloads (pipeline.cpp, stream.cpp, service.cpp).  Each fills `rep` with
// every end-to-end metric, and in a traced run every per-layer metric it
// exercises.
void runPipeline(const RunConfig& cfg, bool verified, Report& rep);
void runStream(const RunConfig& cfg, Report& rep);
void runService(const RunConfig& cfg, Report& rep);

}  // namespace e2e
