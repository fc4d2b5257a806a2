// rfidsched_e2e — the end-to-end benchmark harness (README.md).
//
//   rfidsched_e2e --workload site_100k|verified_8k|stream_500|service_mix
//                 --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--trace-out STEM]
//   rfidsched_e2e --smoke [--work-dir DIR]
//
// One process runs one workload: it writes the workload's inputs from the
// seed into --work-dir, drives the library's public entry points for about
// --seconds, checks every output, and prints one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, from a run whose bench-side spans are also written
// as a Chrome trace and a span log next to --trace-out.  Each metric's
// sample count goes to stderr.  --smoke runs all four workloads at toy
// sizes with every output check (the ctest bench_e2e_smoke).
//
// Exit codes: 0 success; 1 an output check failed; 2 bad usage.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

// Mirrors BENCHMARK.json: end_to_end, then per_layer (name, unit).
const MetricList kEndToEnd = {
    {"setup_s", "s"}, {"e2e_s", "s"}, {"peak_rss_mib", "MiB"}};

const MetricList kPerLayer = {
    {"workload.io_parse_ms", "ms"},     {"workload.io_bytes", "bytes"},
    {"workload.write_ms", "ms"},        {"core.build_ms", "ms"},
    {"core.grid_queries", "count"},     {"core.weight_evals", "count"},
    {"core.churn_apply_ms", "ms"},      {"graph.build_ms", "ms"},
    {"graph.edges", "count"},           {"sched.schedule_ms", "ms"},
    {"sched.schedule_calls", "count"},  {"sched.work_units", "count"},
    {"sched.bnb_nodes", "count"},       {"sched.dp_entries", "count"},
    {"sched.queue_stale_ratio", "ratio"}, {"mcs.referee_ms", "ms"},
    {"check.validator_ms", "ms"},       {"check.tags_scanned", "count"},
    {"check.index_oracle_ms", "ms"},    {"check.index_checks", "count"},
    {"ckpt.journal_ms", "ms"},          {"ckpt.journal_bytes", "bytes"},
    {"protocol.link_ms", "ms"},         {"protocol.gen2_frames", "count"},
    {"protocol.air_ms", "ms"},          {"quality.schedule_slots", "count"},
    {"quality.tags_read", "count"},     {"stream.slot_ms_p50", "ms"},
    {"stream.slot_ms_p99", "ms"},       {"stream.tag_latency_p99_slots", "slots"},
    {"stream.shed_frac", "ratio"},      {"service.p99_ms_lo", "ms"},
    {"service.p50_ms_hi", "ms"},        {"service.p99_ms_hi", "ms"},
    {"service.queue_wait_ms_p99", "ms"},
    {"service.exec_ms_p50", "ms"},      {"service.exec_ms_p99", "ms"},
    {"service.rejected", "count"},      {"service.retries", "count"},
    {"load.send_lag_ms_p99", "ms"},     {"trace.overhead_frac", "ratio"},
    {"trace.layer_sum_frac", "ratio"},
};

const char* const kWorkloads[] = {"site_100k", "verified_8k", "stream_500",
                                  "service_mix"};

void usage() {
  std::cerr << "usage: rfidsched_e2e --workload site_100k|verified_8k|"
               "stream_500|service_mix\n"
               "                     --seed N --seconds S --trace 0|1\n"
               "                     [--work-dir DIR] [--trace-out STEM]\n"
               "       rfidsched_e2e --smoke [--work-dir DIR]\n";
}

bool knownWorkload(const std::string& w) {
  for (const char* k : kWorkloads) {
    if (w == k) return true;
  }
  return false;
}

/// Runs one workload and returns its exit code.
int runOne(const e2e::RunConfig& cfg) {
  e2e::Report rep;
  // A layer a workload does not exercise reads 0 in its traced result.
  if (cfg.traced) {
    for (const auto& [name, unit] : kPerLayer) rep.set(name, 0.0, unit, 0);
  }
  if (cfg.workload == "site_100k") e2e::runPipeline(cfg, false, rep);
  else if (cfg.workload == "verified_8k") e2e::runPipeline(cfg, true, rep);
  else if (cfg.workload == "stream_500") e2e::runStream(cfg, rep);
  else e2e::runService(cfg, rep);
  return rep.emit(cfg.traced ? kPerLayer : kEndToEnd);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig cfg;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&]() {
      ++i;
      return std::string(v);
    };
    if (a == "--smoke") {
      cfg.smoke = true;
    } else if (v == nullptr) {
      std::cerr << "missing value for option: " << a << "\n";
      usage();
      return 2;
    } else if (a == "--workload") {
      cfg.workload = take();
    } else if (a == "--seed") {
      const std::string s = take();
      char* end = nullptr;
      cfg.seed = std::strtoull(s.c_str(), &end, 10);
      have_seed = !s.empty() && *end == '\0';
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(take().c_str());
      have_seconds = cfg.seconds > 0.0;
    } else if (a == "--trace") {
      const std::string t = take();
      cfg.traced = t == "1";
      have_trace = t == "0" || t == "1";
    } else if (a == "--work-dir") {
      cfg.work_dir = take();
    } else if (a == "--trace-out") {
      cfg.trace_stem = take();
    } else {
      std::cerr << "unknown option: " << a << "\n";
      usage();
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) {
    std::cerr << "cannot create --work-dir " << cfg.work_dir << ": "
              << ec.message() << "\n";
    return 2;
  }

  if (cfg.smoke) {
    int rc = 0;
    for (const char* w : kWorkloads) {
      for (const bool traced : {false, true}) {
        e2e::RunConfig c = cfg;
        c.workload = w;
        c.seconds = 0.6;
        c.traced = traced;
        std::cerr << "e2e: smoke " << w << (traced ? " (traced)" : "") << "\n";
        if (runOne(c) != 0) rc = 1;
      }
    }
    return rc;
  }
  if (!knownWorkload(cfg.workload) || !have_seed || !have_seconds ||
      !have_trace) {
    std::cerr << "need --workload (one of the four), --seed N, --seconds S > 0 "
                 "and --trace 0|1\n";
    usage();
    return 2;
  }
  return runOne(cfg);
}
