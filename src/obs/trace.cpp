#include "obs/trace.h"

#include <fstream>
#include <ostream>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

namespace rfid::obs {

const char* eventKindName(EventKind k) {
  switch (k) {
    case EventKind::kSlot: return "slot";
    case EventKind::kWeightEval: return "weight_eval";
    case EventKind::kMessage: return "message";
    case EventKind::kRound: return "round";
    case EventKind::kFrame: return "frame";
    case EventKind::kFault: return "fault";
    case EventKind::kSpan: return "span";
    case EventKind::kCkpt: return "ckpt";
    case EventKind::kCheck: return "check";
  }
  return "span";
}

namespace {

void writeJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void writeJsonNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
  } else if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    os << static_cast<long long>(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
  }
}

void writeArgs(std::ostream& os, const std::vector<TraceArg>& args) {
  os << '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) os << ", ";
    writeJsonString(os, args[i].first);
    os << ": ";
    writeJsonNumber(os, args[i].second);
  }
  os << '}';
}

// One stack shared by every sink this thread touches; entries carry the
// owning sink so nested sinks (tests) stay independent.
thread_local std::vector<std::pair<const TraceSink*, std::uint64_t>>
    t_span_stack;

}  // namespace

TraceSink::TraceSink() : origin_(std::chrono::steady_clock::now()) {
  threadId();  // the constructing thread claims tid 0
}

std::int64_t TraceSink::nowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint64_t TraceSink::newSpanId() {
  return next_span_.fetch_add(1, std::memory_order_relaxed);
}

void TraceSink::pushSpan(std::uint64_t id) {
  t_span_stack.emplace_back(this, id);
}

void TraceSink::popSpan() {
  for (auto it = t_span_stack.rbegin(); it != t_span_stack.rend(); ++it) {
    if (it->first == this) {
      t_span_stack.erase(std::next(it).base());
      return;
    }
  }
}

std::uint64_t TraceSink::currentSpan() const {
  for (auto it = t_span_stack.rbegin(); it != t_span_stack.rend(); ++it) {
    if (it->first == this) return it->second;
  }
  return 0;
}

int TraceSink::threadId() {
  const std::lock_guard<std::mutex> lock(tid_mu_);
  const auto [it, inserted] =
      tids_.emplace(std::this_thread::get_id(), static_cast<int>(tids_.size()));
  return it->second;
}

void TraceSink::complete(EventKind kind, std::string name, std::int64_t ts_us,
                         std::int64_t dur_us, std::vector<TraceArg> args,
                         int tid, std::uint64_t span_id,
                         std::uint64_t parent_id) {
  if (tid == 0) tid = threadId();
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(TraceEvent{kind, std::move(name), ts_us, dur_us, tid,
                               span_id, parent_id, std::move(args)});
}

void TraceSink::instant(EventKind kind, std::string name,
                        std::vector<TraceArg> args, int tid) {
  complete(kind, std::move(name), nowUs(), 0, std::move(args), tid, 0,
           currentSpan());
}

std::size_t TraceSink::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceSink::writeJsonl(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const TraceEvent& e : events_) {
    os << "{\"kind\": \"" << eventKindName(e.kind) << "\", \"name\": ";
    writeJsonString(os, e.name);
    os << ", \"ts_us\": " << e.ts_us << ", \"dur_us\": " << e.dur_us
       << ", \"tid\": " << e.tid << ", \"span_id\": " << e.span_id
       << ", \"parent_id\": " << e.parent_id << ", \"args\": ";
    writeArgs(os, e.args);
    os << "}\n";
  }
}

bool TraceSink::writeJsonlFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  writeJsonl(os);
  return static_cast<bool>(os);
}

void TraceSink::writeChromeTrace(std::ostream& os) const {
  std::vector<TraceEvent> sorted = snapshot();
  // chrome://tracing renders one row per (pid, tid); sorting by (tid, ts)
  // guarantees monotonically non-decreasing timestamps within each row even
  // when spans were recorded at their end time.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_us < b.ts_us;
                   });
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const TraceEvent& e = sorted[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"name\": ";
    writeJsonString(os, e.name);
    os << ", \"cat\": \"" << eventKindName(e.kind) << "\", \"ph\": \""
       << (e.dur_us > 0 ? 'X' : 'i') << "\", \"ts\": " << e.ts_us;
    if (e.dur_us > 0) os << ", \"dur\": " << e.dur_us;
    else os << ", \"s\": \"t\"";
    os << ", \"pid\": 0, \"tid\": " << e.tid << ", \"args\": ";
    // Span/parent ids ride in args — the trace_event format has no native
    // parent field for ph:"X", and viewers surface args on click.
    std::vector<TraceArg> args = e.args;
    if (e.span_id != 0) {
      args.emplace_back("span_id", static_cast<double>(e.span_id));
      args.emplace_back("parent_id", static_cast<double>(e.parent_id));
    }
    writeArgs(os, args);
    os << "}";
  }
  os << (sorted.empty() ? "]}" : "\n]}");
}

bool TraceSink::writeChromeTraceFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  writeChromeTrace(os);
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace rfid::obs
