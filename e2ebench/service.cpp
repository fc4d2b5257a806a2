// service.cpp — service_mix: an in-process service::Service (2 workers × 1
// solver thread, queue 16, no checkpoint directory — the rfidsched_serve
// defaults) fed by an open-loop Poisson generator on one thread at two
// fixed rates.  The generator polls Ticket::done() instead of parking a
// waiter thread per request, so the run stays within four threads: the
// generator, two workers and the service watchdog.
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>

#include "graph/interference_graph.h"
#include "harness.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "service/service.h"
#include "workload/rng.h"

namespace e2e {
namespace {

using namespace rfid;
using service::RequestSpec;
using service::Response;
using service::Status;

// Offered rates, fixed once on a 4-core x86-64 VM.  There the mix keeps its
// p99 under 100 ms at 400 and at 700 req/s, but at 700 the 16-deep admission
// queue rejected 6 to 38 requests a run, and at 300 one run in twenty
// rejected 15 while the host descheduled a worker.  A rejected request is a
// failed operation, so the rates sit well below that (README.md).
constexpr double kLowRps = 100.0;
constexpr double kHighRps = 200.0;
constexpr double kWarmupS = 1.0;
constexpr int kSetupProbes = 15;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The request mix, by index i mod 50: one PTAS (alg1) request, five GHC,
/// two alg2 at n=500, and 42 alg2 at the paper's n=50 deployment.  The
/// heavy requests sit far apart in the cycle: back to back, a PTAS and the
/// two n=500 solves hold both workers at once and queue the requests behind
/// them even at low load.  Each request's deployment seed derives from
/// (run seed, i).
RequestSpec specFor(std::uint64_t seed, int i) {
  RequestSpec s;
  s.id = "e2e-" + std::to_string(i);
  s.seed = workload::deriveSeed(seed, "e2e.request", static_cast<std::uint64_t>(i));
  s.checkpoint = false;
  const int k = i % 50;
  if (k == 0) {
    s.algo = "alg1";
  } else if (k % 10 == 5) {
    s.algo = "ghc";
  } else if (k == 17 || k == 34) {
    s.readers = 500;
    s.tags = 12000;
    s.side = 316.23;
  }
  return s;
}

/// The same solve run directly (the service's factory for these three
/// algorithms), to check a response against.
sched::McsResult solveDirect(const RequestSpec& spec) {
  core::System sys = makeDeployment(spec.readers, spec.tags, spec.side, spec.seed);
  const graph::InterferenceGraph g(sys);
  std::unique_ptr<sched::OneShotScheduler> s;
  if (spec.algo == "alg1") {
    sched::PtasOptions o;
    o.k = spec.k;
    o.num_threads = 1;
    s = std::make_unique<sched::PtasScheduler>(o);
  } else if (spec.algo == "ghc") {
    s = std::make_unique<sched::HillClimbingScheduler>(true);
  } else {
    sched::GrowthOptions o;
    o.rho = spec.rho;
    o.num_threads = 1;
    s = std::make_unique<sched::GrowthScheduler>(g, o);
  }
  return sched::runCoveringSchedule(sys, *s);
}

service::ServiceOptions serviceOptions(obs::MetricsRegistry* reg) {
  service::ServiceOptions o;
  o.workers = 2;
  o.queue_capacity = 16;
  o.solver_threads = 1;
  o.metrics = reg;
  return o;
}

struct Outcome {
  int index = 0;
  double latency_ms = kInf;  // from the scheduled send time
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  double lag_ms = 0.0;       // how late the generator submitted
  Response resp;
};

struct Phase {
  std::vector<Outcome> out;
  std::int64_t rejected = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t retries = 0;

  Samples latency() const {
    Samples s;
    for (const Outcome& o : out) s.add(o.latency_ms);
    return s;
  }
};

/// Open-loop Poisson arrivals at `rate` for `seconds`, then waits for every
/// admitted request.  `next_index` numbers requests across phases.
Phase drive(service::Service& svc, double rate, double seconds,
            std::uint64_t seed, std::string_view label, int& next_index,
            obs::TraceSink* sink) {
  obs::ScopedTimer span(nullptr, label, sink);
  struct Pending {
    std::shared_ptr<service::Ticket> ticket;
    int index = 0;
    double lag_ms = 0.0;
    std::int64_t due_us = 0;  // on the sink clock, for the request span
  };
  Phase ph;
  std::vector<Pending> pending;
  workload::Rng rng(workload::deriveSeed(seed, label));
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  auto due = t0;
  const auto record = [&](Outcome o, std::int64_t due_us) {
    const Response& r = o.resp;
    if (r.status == Status::kOk) {
      o.latency_ms = o.lag_ms + r.latency_ms;
      o.queue_ms = r.queue_wait_ms;
      o.exec_ms = r.latency_ms - r.queue_wait_ms;
    }
    if (r.status == Status::kRejected) ++ph.rejected;
    if (r.status == Status::kFailed) ++ph.failed;
    if (r.status == Status::kCancelled) ++ph.cancelled;
    ph.retries += std::max(0, r.attempts - 1);
    if (sink != nullptr && std::isfinite(o.latency_ms)) {
      sink->complete(obs::EventKind::kSpan, "service.request", due_us,
                     std::max<std::int64_t>(1, static_cast<std::int64_t>(o.latency_ms * 1000.0)),
                     {{"index", o.index}, {"queue_ms", o.queue_ms},
                      {"exec_ms", o.exec_ms}, {"lag_ms", o.lag_ms}},
                     0, sink->newSpanId(), span.spanId());
    }
    ph.out.push_back(std::move(o));
  };
  while (due < until || !pending.empty()) {
    const auto now = Clock::now();
    if (due < until && now >= due) {
      const int i = next_index++;
      Outcome o;
      o.index = i;
      o.lag_ms = std::chrono::duration<double, std::milli>(now - due).count();
      const std::int64_t due_us =
          sink != nullptr ? sink->nowUs() - static_cast<std::int64_t>(o.lag_ms * 1000.0) : 0;
      auto ticket = svc.submit(specFor(seed, i), &o.resp);
      if (ticket == nullptr) {
        record(std::move(o), due_us);
      } else {
        pending.push_back({std::move(ticket), i, o.lag_ms, due_us});
      }
      // Exponential gap: -ln(U)/rate.
      const double u = std::max(1e-12, rng.uniform(0.0, 1.0));
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(-std::log(u) / rate));
      continue;
    }
    for (std::size_t k = 0; k < pending.size();) {
      if (!pending[k].ticket->done()) {
        ++k;
        continue;
      }
      Outcome o;
      o.index = pending[k].index;
      o.lag_ms = pending[k].lag_ms;
      o.resp = pending[k].ticket->wait();
      record(std::move(o), pending[k].due_us);
      pending[k] = std::move(pending.back());
      pending.pop_back();
    }
    const auto poll = Clock::now() + std::chrono::microseconds(200);
    std::this_thread::sleep_until(due < until ? std::min(due, poll) : poll);
  }
  return ph;
}

struct Pass {
  double setup_ms = 0.0;
  Phase low;
  Phase high;
};

class ServiceBench {
 public:
  ServiceBench(const RunConfig& cfg, Report& rep) : cfg_(cfg), rep_(rep) {}

  /// Cold start to first answer: construct and start a Service, serve one
  /// alg2 n=500 probe, drain.  Median over bring-ups that each probe a
  /// different deployment, so no single deployment sets the number.
  double setup() {
    Samples ms;
    for (int k = 0; k < kSetupProbes; ++k) {
      const RequestSpec probe = specFor(cfg_.seed, 17 + 50 * k);
      const auto t0 = Clock::now();
      service::Service svc(serviceOptions(nullptr));
      svc.start();
      Response reject;
      auto ticket = svc.submit(probe, &reject);
      const Response r = ticket != nullptr ? ticket->wait() : reject;
      ms.add(msSince(t0));
      rep_.check(svc.drain(1000).clean(), "setup service drains cleanly");
      const sched::McsResult d = solveDirect(probe);
      rep_.check(r.status == Status::kOk && r.completed && r.slots == d.slots &&
                     r.tags_read == d.tags_read,
                 "setup probe " + probe.id + " matches a direct solve");
    }
    return ms.median();
  }

  Pass pass(double seconds, obs::TraceSink* sink, obs::MetricsRegistry* reg) {
    Pass p;
    p.setup_ms = setup();
    service::Service svc(serviceOptions(reg));
    svc.start();
    int index = 0;
    drive(svc, kLowRps, cfg_.smoke ? 0.2 : kWarmupS, cfg_.seed, "service.warmup",
          index, nullptr);
    p.low = drive(svc, kLowRps, seconds / 2, cfg_.seed, "service.low", index, sink);
    p.high = drive(svc, kHighRps, seconds / 2, cfg_.seed, "service.high", index, sink);
    rep_.check(svc.drain(1000).clean(), "service drains cleanly");
    rep_.check(p.low.failed == 0 && p.low.cancelled == 0,
               "no failed or cancelled request at the low rate");
    for (const Phase* ph : {&p.low, &p.high}) {
      for (const Outcome& o : ph->out) {
        if (o.resp.status == Status::kOk) {
          rep_.check(o.resp.completed, "request " + o.resp.id + " covered every tag");
        }
      }
    }
    return p;
  }

  /// Re-solves one full cycle of the mix directly and compares each answer.
  void verify(const Phase& low) {
    int checked = 0;
    for (const Outcome& o : low.out) {
      if (checked == 50) break;
      if (o.resp.status != Status::kOk) continue;
      const sched::McsResult d = solveDirect(specFor(cfg_.seed, o.index));
      rep_.check(d.slots == o.resp.slots && d.tags_read == o.resp.tags_read,
                 "request " + o.resp.id + " matches a direct solve");
      ++checked;
    }
    rep_.check(checked > 0, "at least one request checked against a direct solve");
  }

 private:
  const RunConfig& cfg_;
  Report& rep_;
};

}  // namespace

void runService(const RunConfig& cfg, Report& rep) {
  ServiceBench b(cfg, rep);
  const double plain_s = cfg.traced ? cfg.seconds / 2 : cfg.seconds;
  const Pass plain = b.pass(plain_s, nullptr, nullptr);
  b.verify(plain.low);

  for (const auto& [name, ph] : {std::pair<const char*, const Phase*>{"low", &plain.low},
                                 {"high", &plain.high}}) {
    const Samples s = ph->latency();
    double pct = 0.0;
    const double tail = s.tail(&pct);
    std::cerr << "e2e: " << name << " rate: " << s.size() << " requests, p50 "
              << s.median() << " ms, p90 " << s.quantile(0.9) << " ms, p" << pct
              << " " << tail << " ms; "
              << ph->rejected << " rejected, " << ph->failed << " failed, "
              << ph->cancelled << " cancelled\n";
    if (tail > 100.0) {
      std::cerr << "e2e: warning: the " << name
                << " rate misses the 100 ms p99 limit on this machine\n";
    }
  }
  const Samples low = plain.low.latency();
  rep.attempted = static_cast<std::int64_t>(plain.low.out.size() + plain.high.out.size());
  rep.failed = plain.low.rejected + plain.low.failed + plain.low.cancelled +
               plain.high.rejected + plain.high.failed + plain.high.cancelled;
  rep.set("setup_s", plain.setup_ms / 1000.0, "s", kSetupProbes);
  rep.set("e2e_s", low.median() / 1000.0, "s", static_cast<std::int64_t>(low.size()));
  rep.set("peak_rss_mib", peakRssMib(), "MiB", 1);
  if (!cfg.traced) return;

  // The traced pass (library metrics attached, request spans recorded)
  // only yields the trace files, the counters and the overhead; every
  // latency below comes from the untraced pass.
  obs::TraceSink sink;
  obs::MetricsRegistry reg;
  const Pass traced = b.pass(cfg.seconds / 2, &sink, &reg);
  rep.check(writeTrace(cfg, sink, reg, obs::CostLedger{}), "write the trace files");

  Samples queue, exec, lag;
  for (const Outcome& o : plain.high.out) {
    if (!std::isfinite(o.latency_ms)) continue;
    queue.add(o.queue_ms);
    exec.add(o.exec_ms);
    lag.add(o.lag_ms);
  }
  std::int64_t slots = 0;
  std::int64_t tags = 0;
  for (const Outcome& o : plain.low.out) {
    slots += o.resp.slots;
    tags += o.resp.tags_read;
  }
  const Samples high = plain.high.latency();
  const auto nh = static_cast<std::int64_t>(high.size());
  const auto nl = static_cast<std::int64_t>(low.size());
  rep.set("service.p99_ms_lo", low.tail(), "ms", nl);
  rep.set("service.p50_ms_hi", high.median(), "ms", nh);
  rep.set("service.p99_ms_hi", high.tail(), "ms", nh);
  rep.set("service.queue_wait_ms_p99", queue.tail(), "ms", nh);
  rep.set("service.exec_ms_p50", exec.median(), "ms", nh);
  rep.set("service.exec_ms_p99", exec.tail(), "ms", nh);
  rep.set("service.rejected",
          static_cast<double>(plain.low.rejected + plain.high.rejected), "count", 1);
  rep.set("service.retries",
          static_cast<double>(plain.low.retries + plain.high.retries), "count", 1);
  rep.set("load.send_lag_ms_p99", lag.tail(), "ms", nh);
  rep.set("sched.schedule_calls",
          static_cast<double>(reg.counter("sched.schedule_calls").value()), "count", 1);
  rep.set("quality.schedule_slots", static_cast<double>(slots), "count", 1);
  rep.set("quality.tags_read", static_cast<double>(tags), "count", 1);
  rep.set("trace.overhead_frac", traced.low.latency().median() / low.median() - 1.0,
          "ratio", nl);
}

}  // namespace e2e
