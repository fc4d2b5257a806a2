// report.h — the run-report analyzer behind rfidsched_report.
//
// Ingests the telemetry a rfidsched_cli run leaves behind — the --metrics
// JSON dump, the --jsonl span log, and the --cost attribution ledger — and
// renders a human-readable post-mortem: run summary, per-phase deterministic
// cost attribution (cache hit rates, queue churn, protocol traffic), the
// per-slot timeline, the top span phases by inclusive/exclusive wall time
// reconstructed from the causal span tree, and fault / checkpoint / check
// summaries when those subsystems ran.
//
// Everything here works from the recorded files alone — no live run is
// needed — so two runs can be compared after the fact (renderComparison),
// which is how the lazy-vs-reference weight-eval headline from
// docs/performance.md is reproduced from telemetry.
//
// Determinism: with ReportOptions::mask_wall set every wall-clock figure
// prints as "-" and wall-ordered tables fall back to name order, so the text
// output of a `--threads 1` run is byte-stable and golden-testable
// (tools/check_goldens.sh).
//
// The JSON subset parser below accepts exactly what this repo's writers emit
// (objects, arrays, strings with the obs escape set, finite numbers, bools,
// null) and is exposed for reuse by tools and tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/cost.h"

namespace rfid::analysis {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  /// Object members in file order (duplicate keys keep the last).
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// The numeric value, or `fallback` for non-numbers.
  double num(double fallback = 0.0) const;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Returns false and fills `err` (when given) with a position-stamped
/// message on malformed input.
bool parseJson(std::string_view text, JsonValue& out,
               std::string* err = nullptr);

// ---------------------------------------------------------------------------
// Telemetry model.

/// One histogram as exported by MetricsRegistry::writeJson (summary stats,
/// not raw buckets — the JSON dump is the interface).
struct HistogramSummary {
  std::int64_t count = 0;
  double min = 0.0, max = 0.0, mean = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
};

/// One trace event from the --jsonl log (span or instant).
struct ReportEvent {
  std::string kind;
  std::string name;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  int tid = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::vector<std::pair<std::string, double>> args;

  double arg(std::string_view key, double fallback = 0.0) const;
};

/// Everything one run left behind.  Each section is optional — the report
/// renders whatever was loaded and skips the rest.
struct RunTelemetry {
  bool has_metrics = false;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  bool has_trace = false;
  std::vector<ReportEvent> events;

  bool has_cost = false;
  obs::CostBill cost_total;
  /// Phases in ledger (name) order, as CostLedger::writeJson emits them.
  std::vector<std::pair<std::string, obs::CostBill>> cost_phases;
  std::vector<obs::CostBill> cost_slots;

  double counter(std::string_view name, double fallback = 0.0) const;
};

/// Loaders parse the in-memory text (any returns false + `err` on bad
/// input); the *File variants read the file first.  Loading marks the
/// corresponding has_* flag.  An empty object ("{}") loads cleanly to an
/// empty section.
bool loadMetricsJson(std::string_view text, RunTelemetry& out,
                     std::string* err = nullptr);
bool loadTraceJsonl(std::string_view text, RunTelemetry& out,
                    std::string* err = nullptr);
bool loadCostJson(std::string_view text, RunTelemetry& out,
                  std::string* err = nullptr);
bool loadMetricsFile(const std::string& path, RunTelemetry& out,
                     std::string* err = nullptr);
bool loadTraceFile(const std::string& path, RunTelemetry& out,
                   std::string* err = nullptr);
bool loadCostFile(const std::string& path, RunTelemetry& out,
                  std::string* err = nullptr);

// ---------------------------------------------------------------------------
// Rendering.

struct ReportOptions {
  /// Rows in the span-phase table (top-k by inclusive wall time).
  int top_spans = 10;
  /// Rows in the per-slot timeline before it elides the middle.
  int max_slot_rows = 25;
  /// Print every wall-clock figure as "-" and order wall-ranked tables by
  /// name instead, so the output is byte-stable across runs (goldens).
  bool mask_wall = false;
};

/// The full text report (ends with a newline).
std::string renderReport(const RunTelemetry& run, const ReportOptions& opt = {});

/// Baseline comparison: per-counter baseline / current / ratio for the
/// deterministic work counters plus the cost-ledger work units.  This is
/// the telemetry-only reproduction of the lazy-vs-reference speedup
/// (docs/performance.md): load the reference run as `baseline` and the lazy
/// run as `current` and the sched.weight_evals row carries the headline
/// ratio.
std::string renderComparison(const RunTelemetry& baseline,
                             const RunTelemetry& current);

/// True when the telemetry carries anything chartable per slot (kSlot
/// spans in the trace or per-slot cost bills) — the precondition for
/// writeReportSvgFile, so callers can distinguish "nothing to chart" from
/// a write failure.
bool hasPerSlotData(const RunTelemetry& run);

/// Per-slot SVG chart (tags delivered and cost work units per slot, from
/// whichever of trace/cost was loaded).  False when neither per-slot source
/// is present or the file cannot be written.
bool writeReportSvgFile(const std::string& path, const RunTelemetry& run);

}  // namespace rfid::analysis
