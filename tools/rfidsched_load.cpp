// rfidsched_load — load generator + saturation benchmark for the service
// (docs/service.md).
//
//   rfidsched_load --mode closed|open|emit|bench [options]
//
// Modes:
//   closed  Closed-loop generator: --concurrency clients each keep exactly
//           one request outstanding against an *in-process* Service until
//           --requests have been submitted.  Deterministic by construction
//           (no queue overflow at concurrency <= queue): its svc.* counters
//           depend only on the workload and seeds.  Prints a JSON summary
//           to stdout.
//   open    Open-loop Poisson generator: arrivals at --rate req/s
//           (exponential gaps, seeded) for --duration-s seconds, regardless
//           of completions — the mode that drives the daemon past
//           saturation and exercises shedding.  Prints a JSON summary.
//   emit    Writes --requests request specs (the line protocol) to stdout
//           for piping into rfidsched_serve — the soak harness transport.
//           --hang-first marks request 0 with hang-ms (watchdog bait);
//           --pace-ms paces every request's slots (slow but live).
//   bench   Saturation sweep: measures closed-loop capacity, then runs
//           open-loop points at 0.5x / 1x / 2x that rate and reports
//           req/s vs p50/p99 latency and shed rate.  tools/bench_compare.py
//           records the closed loop as the deterministic service/closed
//           point of BENCH_HISTORY.json and the sweep as its advisory
//           service/saturation/x* points.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "service/request.h"
#include "service/service.h"
#include "workload/rng.h"

namespace {

using Clock = std::chrono::steady_clock;
using rfid::service::RequestSpec;
using rfid::service::Response;
using rfid::service::Service;
using rfid::service::ServiceOptions;
using rfid::service::Status;

struct Args {
  std::string mode = "closed";
  int requests = 64;
  int concurrency = 8;
  int workers = 2;
  int queue = 16;
  std::string shed = "newest";
  int threads = 1;
  double rate = 20.0;      // open/bench: arrivals per second
  double duration_s = 3.0; // open/bench: per-point run time
  std::uint64_t seed = 1;
  // Workload shape (kept small so a point finishes in seconds).
  int readers = 40;
  int tags = 800;
  double side = 90.0;
  std::string algo = "alg2";
  int deadline_ms = 0;
  int retries = -1;        // -1 = inherit the service default
  int stall_ms = 0;        // 0 = stall detection off (closed-loop default)
  int hang_first_ms = 0;   // emit: wedge request 0
  int pace_ms = 0;
  std::string fault_path;  // service-wide plan for closed/open/bench
  std::string ckpt_dir;
};

void usage() {
  std::cerr <<
      "usage: rfidsched_load --mode closed|open|emit|bench\n"
      "  common:  --requests N --concurrency C --workers W --queue Q\n"
      "           --shed newest|largest --threads N --seed S\n"
      "           --readers N --tags M --side S --algo A --deadline-ms N\n"
      "           --retries N --stall-ms N --fault PATH --ckpt-dir DIR\n"
      "  open:    --rate RPS --duration-s S\n"
      "  emit:    --hang-first MS --pace-ms MS\n"
      "  bench:   --rate (ignored; sweeps 0.5x/1x/2x measured capacity)\n";
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (f == "--mode" && (v = next())) a.mode = v;
    else if (f == "--requests" && (v = next())) a.requests = std::atoi(v);
    else if (f == "--concurrency" && (v = next())) a.concurrency = std::atoi(v);
    else if (f == "--workers" && (v = next())) a.workers = std::atoi(v);
    else if (f == "--queue" && (v = next())) a.queue = std::atoi(v);
    else if (f == "--shed" && (v = next())) a.shed = v;
    else if (f == "--threads" && (v = next())) a.threads = std::atoi(v);
    else if (f == "--rate" && (v = next())) a.rate = std::atof(v);
    else if (f == "--duration-s" && (v = next())) a.duration_s = std::atof(v);
    else if (f == "--seed" && (v = next())) a.seed = std::strtoull(v, nullptr, 10);
    else if (f == "--readers" && (v = next())) a.readers = std::atoi(v);
    else if (f == "--tags" && (v = next())) a.tags = std::atoi(v);
    else if (f == "--side" && (v = next())) a.side = std::atof(v);
    else if (f == "--algo" && (v = next())) a.algo = v;
    else if (f == "--deadline-ms" && (v = next())) a.deadline_ms = std::atoi(v);
    else if (f == "--retries" && (v = next())) a.retries = std::atoi(v);
    else if (f == "--stall-ms" && (v = next())) a.stall_ms = std::atoi(v);
    else if (f == "--hang-first" && (v = next())) a.hang_first_ms = std::atoi(v);
    else if (f == "--pace-ms" && (v = next())) a.pace_ms = std::atoi(v);
    else if (f == "--fault" && (v = next())) a.fault_path = v;
    else if (f == "--ckpt-dir" && (v = next())) a.ckpt_dir = v;
    else {
      std::cerr << "unknown or valueless option: " << f << "\n";
      return false;
    }
  }
  if (a.mode != "closed" && a.mode != "open" && a.mode != "emit" &&
      a.mode != "bench") {
    std::cerr << "invalid --mode: " << a.mode << "\n";
    return false;
  }
  if (a.requests < 1 || a.concurrency < 1 || a.workers < 1 || a.queue < 1 ||
      a.rate <= 0.0 || a.duration_s <= 0.0) {
    std::cerr << "nonpositive count/rate/duration\n";
    return false;
  }
  return true;
}

RequestSpec specFor(const Args& a, int index) {
  RequestSpec s;
  s.id = "load-" + std::to_string(index);
  s.algo = a.algo;
  s.readers = a.readers;
  s.tags = a.tags;
  s.side = a.side;
  s.seed = a.seed + static_cast<std::uint64_t>(index);
  s.deadline_ms = a.deadline_ms;
  s.retries = a.retries;
  s.pace_ms = a.pace_ms;
  s.checkpoint = !a.ckpt_dir.empty();
  return s;
}

/// Per-run tally, mutex-guarded (completions land on waiter threads).
struct Tally {
  std::mutex mu;
  std::vector<double> latency_ms;
  std::int64_t sent = 0;
  std::int64_t completed = 0;
  std::int64_t cancelled = 0;
  std::int64_t failed = 0;
  std::int64_t rejected = 0;

  void account(const Response& r) {
    std::lock_guard<std::mutex> lk(mu);
    switch (r.status) {
      case Status::kOk:
        ++completed;
        latency_ms.push_back(r.latency_ms);
        break;
      case Status::kCancelled: ++cancelled; break;
      case Status::kFailed: ++failed; break;
      case Status::kRejected: ++rejected; break;
    }
  }
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

ServiceOptions serviceOptions(const Args& a, const rfid::fault::FaultPlan* plan,
                              rfid::obs::MetricsRegistry* metrics) {
  ServiceOptions opt;
  opt.workers = a.workers;
  opt.queue_capacity = static_cast<std::size_t>(a.queue);
  opt.shed = a.shed == "largest" ? rfid::service::ShedPolicy::kRejectLargest
                                 : rfid::service::ShedPolicy::kRejectNewest;
  opt.stall_window_ms = a.stall_ms;
  if (a.retries >= 0) opt.default_retries = a.retries;
  opt.checkpoint_dir = a.ckpt_dir;
  opt.default_faults = plan != nullptr && !plan->empty() ? plan : nullptr;
  opt.metrics = metrics;
  opt.solver_threads = a.threads;
  return opt;
}

/// Closed loop: `concurrency` clients, each submit → wait → submit, until
/// `requests` have been issued.  Returns elapsed seconds.
double runClosedLoop(Service& svc, const Args& a, Tally& tally) {
  std::atomic<int> next{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(a.concurrency));
  for (int c = 0; c < a.concurrency; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= a.requests) return;
        Response reject;
        auto ticket = svc.submit(specFor(a, i), &reject);
        {
          std::lock_guard<std::mutex> lk(tally.mu);
          ++tally.sent;
        }
        if (ticket == nullptr) {
          tally.account(reject);
          continue;
        }
        tally.account(ticket->wait());
      }
    });
  }
  for (auto& t : clients) t.join();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Open loop: Poisson arrivals at `rate` for `duration_s`, completions
/// collected on detached-by-join waiter threads.  Returns elapsed seconds.
double runOpenLoop(Service& svc, const Args& a, double rate, Tally& tally) {
  rfid::workload::Rng rng(rfid::workload::deriveSeed(a.seed, "load.arrivals"));
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(a.duration_s));
  std::vector<std::thread> waiters;
  int index = 0;
  auto arrival = t0;
  while (arrival < until) {
    std::this_thread::sleep_until(arrival);
    Response reject;
    auto ticket = svc.submit(specFor(a, index), &reject);
    {
      std::lock_guard<std::mutex> lk(tally.mu);
      ++tally.sent;
    }
    if (ticket == nullptr) {
      tally.account(reject);
    } else {
      waiters.emplace_back(
          [ticket, &tally] { tally.account(ticket->wait()); });
    }
    ++index;
    // Exponential inter-arrival gap: -ln(U)/rate.
    const double u = std::max(1e-12, rng.uniform(0.0, 1.0));
    arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(u) / rate));
  }
  svc.waitIdle([] { return false; });
  for (auto& t : waiters) t.join();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void writeCounters(std::ostream& os, rfid::obs::MetricsRegistry& reg) {
  // Deterministic svc.* / mcs.* / sched.* counters only — the
  // bench_compare gate reads exactly these keys.
  const char* keys[] = {"svc.admitted",  "svc.completed", "svc.failed",
                        "svc.cancelled", "svc.rejected",  "svc.retries",
                        "mcs.slots",     "mcs.tags_read",
                        "sched.schedule_calls", "sched.weight_evals"};
  bool first = true;
  os << "{";
  for (const char* k : keys) {
    if (!first) os << ",";
    first = false;
    os << "\"" << k << "\":" << reg.counter(k).value();
  }
  os << "}";
}

void writeTally(std::ostream& os, const Tally& t, double elapsed_s) {
  os << "{\"sent\":" << t.sent << ",\"completed\":" << t.completed
     << ",\"cancelled\":" << t.cancelled << ",\"failed\":" << t.failed
     << ",\"rejected\":" << t.rejected << ",\"elapsed_s\":" << elapsed_s
     << ",\"throughput_rps\":"
     << (elapsed_s > 0.0 ? static_cast<double>(t.completed) / elapsed_s : 0.0)
     << ",\"p50_ms\":" << percentile(t.latency_ms, 50)
     << ",\"p99_ms\":" << percentile(t.latency_ms, 99) << "}";
}

int runEmit(const Args& a) {
  for (int i = 0; i < a.requests; ++i) {
    const RequestSpec s = specFor(a, i);
    std::cout << "request " << s.id << "\n"
              << "algo " << s.algo << "\n"
              << "readers " << s.readers << "\n"
              << "tags " << s.tags << "\n"
              << "side " << s.side << "\n"
              << "seed " << s.seed << "\n";
    if (s.deadline_ms > 0) std::cout << "deadline-ms " << s.deadline_ms << "\n";
    if (s.retries >= 0) std::cout << "retries " << s.retries << "\n";
    if (s.pace_ms > 0) std::cout << "pace-ms " << s.pace_ms << "\n";
    if (i == 0 && a.hang_first_ms > 0) {
      std::cout << "hang-ms " << a.hang_first_ms << "\n";
    }
    std::cout << "end\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rfid;
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  if (args.mode == "emit") return runEmit(args);

  fault::FaultPlan plan;
  if (!args.fault_path.empty()) {
    std::string err;
    auto loaded = fault::FaultPlan::loadFile(args.fault_path, &err);
    if (!loaded) {
      std::cerr << "failed to load fault plan: " << err << "\n";
      return 2;
    }
    plan = std::move(*loaded);
  }

  if (args.mode == "closed" || args.mode == "open") {
    obs::MetricsRegistry reg;
    Service svc(serviceOptions(args, &plan, &reg));
    svc.start();
    Tally tally;
    const double elapsed =
        args.mode == "closed" ? runClosedLoop(svc, args, tally)
                              : runOpenLoop(svc, args, args.rate, tally);
    svc.drain(1000);
    std::cout << "{\"mode\":\"" << args.mode << "\",\"summary\":";
    writeTally(std::cout, tally, elapsed);
    std::cout << ",\"counters\":";
    writeCounters(std::cout, reg);
    std::cout << "}\n";
    // Closed-loop clients wait for each other, so nothing may fail or be
    // shed; open loop legitimately sheds at rates past capacity.
    if (args.mode == "closed") {
      return tally.completed == tally.sent && tally.failed == 0 ? 0 : 1;
    }
    return tally.failed == 0 ? 0 : 1;
  }

  // bench: closed-loop capacity probe, then 0.5x / 1x / 2x open-loop sweep.
  obs::MetricsRegistry closed_reg;
  Tally closed_tally;
  double closed_elapsed = 0.0;
  {
    Service svc(serviceOptions(args, &plan, &closed_reg));
    svc.start();
    closed_elapsed = runClosedLoop(svc, args, closed_tally);
    svc.drain(1000);
  }
  const double capacity_rps =
      closed_elapsed > 0.0
          ? static_cast<double>(closed_tally.completed) / closed_elapsed
          : 1.0;

  std::cout << "{\"service_closed_loop\":{\"summary\":";
  writeTally(std::cout, closed_tally, closed_elapsed);
  std::cout << ",\"counters\":";
  writeCounters(std::cout, closed_reg);
  std::cout << "},\"capacity_rps\":" << capacity_rps
            << ",\"service_saturation\":[";
  const double factors[] = {0.5, 1.0, 2.0};
  bool first = true;
  for (const double f : factors) {
    const double rate = std::max(0.5, capacity_rps * f);
    obs::MetricsRegistry reg;
    Service svc(serviceOptions(args, &plan, &reg));
    svc.start();
    Tally tally;
    const double elapsed = runOpenLoop(svc, args, rate, tally);
    svc.drain(2000);
    if (!first) std::cout << ",";
    first = false;
    std::cout << "{\"factor\":" << f << ",\"rate_rps\":" << rate
              << ",\"shed\":" << tally.rejected << ",\"stats\":";
    writeTally(std::cout, tally, elapsed);
    std::cout << "}";
  }
  std::cout << "]}\n";
  return 0;
}
