#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#ifdef __linux__
#include <sched.h>
#endif

#include "obs/cost.h"
#include "obs/metrics.h"
#include "workload/scenario.h"

namespace e2e {

std::string RunConfig::workPath(std::string_view file) const {
  return (std::filesystem::path(work_dir) / file).string();
}

void startOnNextCore() {
#ifdef __linux__
  static const std::vector<std::size_t> cores = [] {
    std::vector<std::size_t> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  static std::size_t next = 0;
  if (cores.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cores[next++ % cores.size()], &one);
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const std::size_t c : cores) CPU_SET(c, &all);
  // Pinning migrates the thread at once; widening the mask again leaves it
  // there until the scheduler has a reason to move it.  If either call
  // fails, the repeat simply runs where the thread already is.
  sched_setaffinity(0, sizeof one, &one);
  sched_setaffinity(0, sizeof all, &all);
#endif
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  // Nearest rank: the smallest sample with at least q of the set at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(s.size()));
  const auto i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return s[std::min(i, s.size() - 1)];
}

double Samples::tail(double* pct) const {
  const double n = static_cast<double>(v_.size());
  for (const double p : {0.99, 0.90, 0.50}) {
    if (n * (1.0 - p) >= 10.0) {
      if (pct != nullptr) *pct = p * 100.0;
      return quantile(p);
    }
  }
  if (pct != nullptr) *pct = 100.0;
  return quantile(1.0);
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::int64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

namespace {

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

}  // namespace

int Report::emit(
    const std::vector<std::pair<std::string, std::string>>& wanted) const {
  for (const auto& [name, m] : metrics_) {
    std::cerr << "{\"metric\":\"" << name << "\",\"value\":"
              << jsonNumber(m.value) << ",\"unit\":\"" << m.unit
              << "\",\"samples\":" << m.samples << "}\n";
  }
  bool complete = true;
  for (const auto& [name, unit] : wanted) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end() || it->second.unit != unit) {
      std::cerr << "e2e: metric " << name << " was not measured in " << unit
                << "\n";
      complete = false;
    }
  }
  for (const std::string& f : failures_) std::cerr << "e2e: check failed: " << f << "\n";

  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : wanted) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    os << (first ? "" : ", ") << "\"" << name
       << "\": {\"value\": " << jsonNumber(it->second.value)
       << ", \"unit\": \"" << it->second.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return correct() && complete ? 0 : 1;
}

double Layers::ms(std::string_view layer) const {
  const auto it = ms_.find(layer);
  return it == ms_.end() ? 0.0 : it->second;
}

rfid::sched::OneShotResult TimedScheduler::schedule(
    const rfid::core::System& sys) {
  const auto t0 = Clock::now();
  rfid::sched::OneShotResult r = inner_.schedule(sys);
  ms_ += msSince(t0);
  ++calls_;
  return r;
}

rfid::core::System makeDeployment(int readers, int tags, double side,
                                  std::uint64_t seed) {
  rfid::workload::Scenario sc = rfid::workload::paperScenario(10.0, 4.0);
  sc.deploy.num_readers = readers;
  sc.deploy.num_tags = tags;
  sc.deploy.region_side = side;
  return rfid::workload::makeSystem(sc, seed);
}

void reportBill(Report& rep, const obs::CostBill& bill) {
  rep.set("sched.work_units", static_cast<double>(bill.workUnits()), "count", 1);
  rep.set("sched.bnb_nodes", static_cast<double>(bill.bnb_nodes), "count", 1);
  rep.set("sched.dp_entries", static_cast<double>(bill.dp_entries), "count", 1);
  // Lazily deleted heap entries per pop: selection work the queue wasted.
  rep.set("sched.queue_stale_ratio",
          bill.queue_pops > 0 ? static_cast<double>(bill.queue_stale_pops) /
                                    static_cast<double>(bill.queue_pops)
                              : 0.0,
          "ratio", 1);
}

std::uint64_t mix(std::uint64_t h, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    h ^= u & 0xffu;
    h *= 1099511628211ull;
    u >>= 8;
  }
  return h;
}

std::uint64_t hashSlots(const std::vector<rfid::sched::SlotRecord>& slots) {
  std::uint64_t h = kFnvBasis;
  for (const rfid::sched::SlotRecord& s : slots) {
    h = mix(h, static_cast<std::int64_t>(s.active.size()));
    for (const int v : s.active) h = mix(h, v);
    h = mix(h, s.tags_read);
  }
  return h;
}

double peakRssMib() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void resetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::int64_t fileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(n);
}

void removeJournal(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".snap", ec);
}

bool writeTrace(const RunConfig& cfg, const obs::TraceSink& sink,
                const obs::MetricsRegistry& reg, const obs::CostLedger& ledger) {
  if (!cfg.traced || cfg.trace_stem.empty()) return true;
  const std::string& s = cfg.trace_stem;
  return sink.writeChromeTraceFile(s + ".trace.json") &&
         sink.writeJsonlFile(s + ".jsonl") &&
         reg.writeJsonFile(s + ".metrics.json") &&
         ledger.writeJsonFile(s + ".cost.json");
}

}  // namespace e2e
