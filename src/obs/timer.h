// timer.h — RAII wall-clock spans feeding histograms and the trace sink.
//
// A ScopedTimer measures one span on the steady clock and, at stop() or
// destruction, records the elapsed microseconds into a named histogram of
// the attached MetricsRegistry and/or a complete event in the attached
// TraceSink.  Both attachments are optional; with neither the timer never
// touches the clock.  arg() annotates the trace span with values that only
// become known mid-span (e.g. the delivered weight of an MCS slot).
//
// With a trace attached, the timer is also a node in the causal span tree:
// construction allocates a span id, adopts the thread's current span as
// parent, and pushes itself on the thread's span stack; stop() pops and
// records the complete event with both ids.  A timer created on a worker
// thread has no implicit parent — the dispatcher captures spanId() of the
// enclosing timer and the worker calls setParent() explicitly
// (sched/growth.cpp, sched/ptas.cpp show the pattern).
//
// Wall-clock histograms are inherently non-deterministic, so deterministic
// exports (the bench sidecars) pass metrics = nullptr here and keep only
// count metrics — see docs/observability.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

#include <chrono>

namespace rfid::obs {

class ScopedTimer {
 public:
  /// `hist_name` names the histogram (microseconds); `span_name` names the
  /// trace event (defaults to hist_name).  Either sink may be nullptr.
  ScopedTimer(MetricsRegistry* metrics, std::string_view hist_name,
              TraceSink* trace = nullptr, std::string_view span_name = {},
              EventKind kind = EventKind::kSpan)
      : metrics_(metrics),
        trace_(trace),
        hist_(hist_name),
        span_(span_name.empty() ? hist_name : span_name),
        kind_(kind) {
    if (trace_ != nullptr) {
      span_id_ = trace_->newSpanId();
      parent_id_ = trace_->currentSpan();
      trace_->pushSpan(span_id_);
    }
    if (metrics_ != nullptr || trace_ != nullptr) {
      start_ts_us_ = trace_ != nullptr ? trace_->nowUs() : 0;
      t0_ = std::chrono::steady_clock::now();
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { stop(); }

  /// Attaches a numeric annotation to the trace span (ignored without a
  /// trace sink).
  void arg(std::string_view key, double value) {
    if (trace_ != nullptr) args_.emplace_back(std::string(key), value);
  }

  /// Overrides the implicit (thread-stack) parent — for spans whose causal
  /// parent lives on another thread.  No effect after stop().
  void setParent(std::uint64_t parent_span_id) { parent_id_ = parent_span_id; }

  /// This span's id in the trace tree; 0 without a trace sink.
  std::uint64_t spanId() const { return span_id_; }

  /// Ends the span and records it (idempotent).  Returns elapsed µs.
  std::int64_t stop() {
    if (stopped_) return elapsed_us_;
    stopped_ = true;
    if (trace_ != nullptr) trace_->popSpan();
    if (metrics_ == nullptr && trace_ == nullptr) return 0;
    elapsed_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0_)
                      .count();
    if (metrics_ != nullptr) {
      metrics_->histogram(hist_).record(static_cast<double>(elapsed_us_));
    }
    if (trace_ != nullptr) {
      // Chrome drops ph:"X" events with dur 0; clamp to 1µs so very fast
      // spans stay visible.
      trace_->complete(kind_, span_, start_ts_us_,
                       elapsed_us_ > 0 ? elapsed_us_ : 1, std::move(args_), 0,
                       span_id_, parent_id_);
    }
    return elapsed_us_;
  }

 private:
  MetricsRegistry* metrics_;
  TraceSink* trace_;
  std::string hist_;
  std::string span_;
  EventKind kind_;
  std::vector<TraceArg> args_;
  std::chrono::steady_clock::time_point t0_{};
  std::int64_t start_ts_us_ = 0;
  std::int64_t elapsed_us_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  bool stopped_ = false;
};

}  // namespace rfid::obs
