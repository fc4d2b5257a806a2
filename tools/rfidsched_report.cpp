// rfidsched_report — post-mortem analyzer for rfidsched_cli telemetry.
//
//   rfidsched_report [--metrics PATH] [--jsonl PATH] [--cost PATH]
//                    [--baseline-metrics PATH] [--baseline-cost PATH]
//                    [--svg PATH] [--top N] [--slots N] [--mask-wall]
//
// Ingests whatever a run wrote (--metrics JSON dump, --jsonl span log,
// --cost attribution ledger) and prints a human-readable report: run
// summary, deterministic per-phase cost attribution, per-slot timeline, top
// span phases by inclusive/exclusive wall time, and fault / checkpoint /
// check summaries.  At least one input file is required.
//
// --baseline-metrics loads a second run and appends a counter-by-counter
// comparison (baseline / current / ratio) — pointing it at the same command
// run on an older build shows what a change did to every work counter,
// straight from recorded telemetry.  --baseline-cost additionally compares
// total cost-ledger work units.
//
// --svg renders the per-slot timeline (tags delivered, work units) as a
// line chart.  --mask-wall blanks every wall-clock figure and switches
// wall-ranked tables to name order so the text output is byte-stable for
// golden tests (tools/check_goldens.sh).
//
// Exit codes: 0 success; 2 bad usage or unreadable/unparseable input.
#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/report.h"

namespace {

void usage() {
  std::cerr <<
      "usage: rfidsched_report [--metrics PATH] [--jsonl PATH] [--cost PATH]\n"
      "                        [--baseline-metrics PATH] [--baseline-cost PATH]\n"
      "                        [--svg PATH] [--top N] [--slots N] [--mask-wall]\n"
      "\n"
      "  --metrics PATH    metrics JSON written by rfidsched_cli --metrics\n"
      "  --jsonl PATH      span log written by rfidsched_cli --jsonl\n"
      "  --cost PATH       cost ledger written by rfidsched_cli --cost\n"
      "  --baseline-metrics PATH  second run's metrics; appends a comparison\n"
      "  --baseline-cost PATH     second run's cost ledger (with the above)\n"
      "  --svg PATH        render the per-slot timeline as an SVG chart\n"
      "  --top N           span-phase rows to show (default 10)\n"
      "  --slots N         timeline rows before eliding (default 25)\n"
      "  --mask-wall       blank wall-clock figures (deterministic output)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rfid;
  std::string metrics_path, jsonl_path, cost_path;
  std::string base_metrics_path, base_cost_path;
  std::string svg_path;
  analysis::ReportOptions opt;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--metrics" && (v = next())) metrics_path = v;
    else if (a == "--jsonl" && (v = next())) jsonl_path = v;
    else if (a == "--cost" && (v = next())) cost_path = v;
    else if (a == "--baseline-metrics" && (v = next())) base_metrics_path = v;
    else if (a == "--baseline-cost" && (v = next())) base_cost_path = v;
    else if (a == "--svg" && (v = next())) svg_path = v;
    else if (a == "--top" && (v = next())) opt.top_spans = std::atoi(v);
    else if (a == "--slots" && (v = next())) opt.max_slot_rows = std::atoi(v);
    else if (a == "--mask-wall") opt.mask_wall = true;
    else {
      std::cerr << (v == nullptr && (a == "--metrics" || a == "--jsonl" ||
                                     a == "--cost" || a == "--svg" ||
                                     a == "--baseline-metrics" ||
                                     a == "--baseline-cost" || a == "--top" ||
                                     a == "--slots")
                        ? "missing value for option: "
                        : "unknown option: ")
                << a << "\n";
      usage();
      return 2;
    }
  }
  if (metrics_path.empty() && jsonl_path.empty() && cost_path.empty()) {
    std::cerr << "no input: give at least one of --metrics/--jsonl/--cost\n";
    usage();
    return 2;
  }
  if (!base_cost_path.empty() && base_metrics_path.empty()) {
    std::cerr << "--baseline-cost requires --baseline-metrics\n";
    usage();
    return 2;
  }

  analysis::RunTelemetry run;
  std::string err;
  const auto load = [&err](bool ok, const std::string& path) {
    if (!ok) std::cerr << "failed to load " << path << ": " << err << "\n";
    return ok;
  };
  if (!metrics_path.empty() &&
      !load(analysis::loadMetricsFile(metrics_path, run, &err), metrics_path)) {
    return 2;
  }
  if (!jsonl_path.empty() &&
      !load(analysis::loadTraceFile(jsonl_path, run, &err), jsonl_path)) {
    return 2;
  }
  if (!cost_path.empty() &&
      !load(analysis::loadCostFile(cost_path, run, &err), cost_path)) {
    return 2;
  }

  std::cout << analysis::renderReport(run, opt);

  if (!base_metrics_path.empty()) {
    analysis::RunTelemetry base;
    if (!load(analysis::loadMetricsFile(base_metrics_path, base, &err),
              base_metrics_path)) {
      return 2;
    }
    if (!base_cost_path.empty() &&
        !load(analysis::loadCostFile(base_cost_path, base, &err),
              base_cost_path)) {
      return 2;
    }
    std::cout << '\n' << analysis::renderComparison(base, run);
  }

  if (!svg_path.empty()) {
    if (!analysis::hasPerSlotData(run)) {
      // Not an error: a metrics-only run (or a NO_OBS build's stub
      // telemetry) simply has nothing to chart.
      std::cerr << "svg skipped: no per-slot data in the loaded telemetry\n";
    } else if (analysis::writeReportSvgFile(svg_path, run)) {
      std::cout << "svg written to " << svg_path << '\n';
    } else {
      std::cerr << "failed to write svg to " << svg_path << "\n";
      return 2;
    }
  }
  return 0;
}
