// trace.h — structured event tracing with JSONL and Chrome trace export.
//
// A TraceSink records typed events — slot scheduled, weight evaluated,
// message sent, round completed, protocol frame resolved, generic span —
// stamped on the sink's own monotonic clock (microseconds since sink
// creation).  v2 adds *causal spans*: every timed span carries a sink-unique
// span id plus the id of its parent, so a run exports as a tree
// (run → slot → scheduler → component/shift → selection) instead of a flat
// event soup.  Parentage is tracked with a per-thread span stack — a span
// opened while another is open on the same thread nests under it
// automatically; spans handed to worker threads set their parent explicitly
// (ScopedTimer::setParent).  Thread ids are registered on first use, in
// order of first event, with the sink-creating thread as tid 0.
//
// Two exporters:
//
//   * writeJsonl:       one self-describing JSON object per line, the
//                       machine-diffable form scripts consume; includes
//                       span_id/parent_id (0 = none/root).
//   * writeChromeTrace: the Chrome trace_event JSON object
//                       ({"traceEvents": [...]}) that loads directly in
//                       chrome://tracing or https://ui.perfetto.dev; events
//                       are emitted sorted by (tid, ts) so timestamps are
//                       monotonically non-decreasing per thread row, and
//                       span/parent ids ride in args.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

namespace rfid::obs {

/// Event taxonomy (docs/observability.md).  Doubles as the Chrome "cat"
/// field, so traces can be filtered per category in the viewer.
enum class EventKind {
  kSlot,        // one MCS time-slot executed
  kWeightEval,  // a w(X) referee evaluation
  kMessage,     // network message traffic
  kRound,       // one synchronous network round completed
  kFrame,       // a link-layer protocol frame / walk resolved
  kFault,       // an injected fault fired (crash, drop, miss, orphan)
  kSpan,        // generic timed span (ScopedTimer default)
  kCkpt,        // checkpoint IO: journal replay, snapshot written
  kCheck,       // invariant oracle: slot validated, violation flagged
};

const char* eventKindName(EventKind k);

/// Numeric key/value annotation attached to an event ("args" in both
/// export formats).
using TraceArg = std::pair<std::string, double>;

struct TraceEvent {
  EventKind kind = EventKind::kSpan;
  std::string name;
  std::int64_t ts_us = 0;   // microseconds since sink creation
  std::int64_t dur_us = 0;  // 0 => instant event
  int tid = 0;
  std::uint64_t span_id = 0;    // 0 => event is not itself a span node
  std::uint64_t parent_id = 0;  // 0 => root (or unparented instant)
  std::vector<TraceArg> args;
};

class TraceSink {
 public:
  TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Microseconds since sink creation (steady clock, monotonic).
  std::int64_t nowUs() const;

  /// Allocates a fresh sink-unique span id (never 0).
  std::uint64_t newSpanId();

  /// Per-thread span stack.  pushSpan makes `id` the implicit parent of
  /// spans/instants recorded later on this thread; popSpan undoes the most
  /// recent push for this sink on this thread (LIFO — RAII ScopedTimers
  /// enforce the discipline).  currentSpan returns the top, 0 if empty.
  void pushSpan(std::uint64_t id);
  void popSpan();
  std::uint64_t currentSpan() const;

  /// Stable small integer for the calling thread, assigned on first call in
  /// call order; the thread that constructed the sink is 0.
  int threadId();

  /// Records a timed span [ts_us, ts_us + dur_us).  tid 0 means "resolve
  /// via threadId()"; span/parent ids of 0 mean the event is not a tree
  /// node / has no recorded parent.
  void complete(EventKind kind, std::string name, std::int64_t ts_us,
                std::int64_t dur_us, std::vector<TraceArg> args = {},
                int tid = 0, std::uint64_t span_id = 0,
                std::uint64_t parent_id = 0);

  /// Records an instantaneous event stamped now, parented under the calling
  /// thread's current span.
  void instant(EventKind kind, std::string name,
               std::vector<TraceArg> args = {}, int tid = 0);

  std::size_t size() const;
  std::vector<TraceEvent> snapshot() const;

  void writeJsonl(std::ostream& os) const;
  bool writeJsonlFile(const std::string& path) const;
  void writeChromeTrace(std::ostream& os) const;
  bool writeChromeTraceFile(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> next_span_{1};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  mutable std::mutex tid_mu_;
  std::map<std::thread::id, int> tids_;
};

}  // namespace rfid::obs
