#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "ckpt/mcs_ckpt.h"
#include "distributed/colorwave.h"
#include "distributed/growth_distributed.h"
#include "fault/channel_model.h"
#include "graph/interference_graph.h"
#include "obs/timer.h"
#include "sched/channels.h"
#include "sched/exact.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "workload/rng.h"
#include "workload/scenario.h"

namespace rfid::service {

namespace {

using Clock = std::chrono::steady_clock;

double elapsedMs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// FNV-1a — folds a request id into the seed-derivation domain so backoff
/// jitter is deterministic in (id, attempt) and uncorrelated across ids.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Sleeps up to `ms` in 1 ms steps, returning early (false) as soon as
/// `abort()` turns true.  The only sleep primitive in the worker path, so
/// every wait in the service is cancellable.
template <typename Pred>
bool interruptibleSleep(int ms, Pred abort) {
  const auto until = Clock::now() + std::chrono::milliseconds(ms);
  while (Clock::now() < until) {
    if (abort()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return !abort();
}

workload::Scenario scenarioFor(const RequestSpec& spec) {
  workload::Scenario sc = workload::paperScenario(spec.lambda_R, spec.lambda_r);
  sc.deploy.num_readers = spec.readers;
  sc.deploy.num_tags = spec.tags;
  sc.deploy.region_side = spec.side;
  if (spec.layout == "clusters") sc.layout = workload::Layout::kClusteredTags;
  else if (spec.layout == "aisles") sc.layout = workload::Layout::kAisles;
  else if (spec.layout == "grid") sc.layout = workload::Layout::kGridReaders;
  return sc;
}

/// Mirrors the rfidsched_cli factory; the parser has already validated
/// `spec.algo`, so an unknown name here is a programming error and falls
/// back to alg2.
std::unique_ptr<sched::OneShotScheduler> makeScheduler(
    const RequestSpec& spec, const graph::InterferenceGraph& g,
    const core::System& sys, int threads) {
  if (spec.algo == "alg1") {
    sched::PtasOptions o;
    o.k = spec.k;
    o.num_threads = threads;
    return std::make_unique<sched::PtasScheduler>(o);
  }
  if (spec.algo == "alg3") {
    dist::DistributedGrowthOptions o;
    o.rho = spec.rho;
    return std::make_unique<dist::GrowthDistributedScheduler>(g, o);
  }
  if (spec.algo == "ghc") {
    return std::make_unique<sched::HillClimbingScheduler>();
  }
  if (spec.algo == "ca") {
    return std::make_unique<dist::ColorwaveScheduler>(sys, spec.seed);
  }
  if (spec.algo == "exact") {
    return std::make_unique<sched::ExactScheduler>();
  }
  if (spec.algo == "mc") {
    return std::make_unique<sched::MultiChannelScheduler>(
        sched::ChannelOptions{spec.channels});
  }
  sched::GrowthOptions o;
  o.rho = spec.rho;
  o.num_threads = threads;
  return std::make_unique<sched::GrowthScheduler>(g, o);
}

/// Wraps a scheduler with a cancellable sleep before every schedule() call
/// — the `pace-ms` chaos knob.  The heartbeat still advances each slot
/// (the driver bumps it before calling us), so a paced request is *slow but
/// live*: the watchdog must not flag it, and drain must checkpoint it.
class PacedScheduler : public sched::OneShotScheduler {
 public:
  PacedScheduler(std::unique_ptr<sched::OneShotScheduler> inner, int pace_ms,
                 const ckpt::CancelToken* token)
      : inner_(std::move(inner)), pace_ms_(pace_ms), token_(token) {}

  std::string name() const override { return inner_->name(); }

  sched::OneShotResult schedule(const core::System& sys) override {
    interruptibleSleep(pace_ms_, [&] {
      return token_ != nullptr && token_->cancelled();
    });
    return inner_->schedule(sys);
  }

  void attachChannel(fault::ChannelModel* c) override {
    inner_->attachChannel(c);
  }
  std::uint64_t stateFingerprint() const override {
    return inner_->stateFingerprint();
  }

  sched::OneShotScheduler* inner() { return inner_.get(); }

 private:
  std::unique_ptr<sched::OneShotScheduler> inner_;
  int pace_ms_;
  const ckpt::CancelToken* token_;
};

}  // namespace

Service::Service(ServiceOptions opt)
    : opt_(std::move(opt)),
      queue_(opt_.queue_capacity, opt_.shed) {
  if (opt_.workers < 1) opt_.workers = 1;
  if (opt_.watchdog_period_ms < 1) opt_.watchdog_period_ms = 1;
  if (opt_.backoff_base_ms < 1) opt_.backoff_base_ms = 1;
  if (opt_.backoff_cap_ms < opt_.backoff_base_ms) {
    opt_.backoff_cap_ms = opt_.backoff_base_ms;
  }
}

Service::~Service() {
  if (!drained_.load(std::memory_order_relaxed)) drain(0);
}

void Service::start() {
  slots_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
    slots_.back()->th = std::thread([this, i] { workerLoop(i); });
  }
  watchdog_ = std::thread([this] { watchdogLoop(); });
}

double Service::estimatedWaitMs() const {
  double ema = 0.0;
  {
    std::lock_guard<std::mutex> lk(ema_mu_);
    ema = ema_service_ms_;
  }
  const double backlog = static_cast<double>(queue_.depth()) +
                         static_cast<double>(inflight_n_.load());
  return ema * backlog / static_cast<double>(opt_.workers);
}

std::shared_ptr<Ticket> Service::submit(RequestSpec spec, Response* reject) {
  auto* m = opt_.metrics;
  const auto bump = [m](std::string_view name) {
    if (m != nullptr) m->counter(name).add(1);
  };

  Job job;
  job.spec = std::move(spec);
  job.ticket = std::make_shared<Ticket>();
  job.submitted = Clock::now();
  if (job.spec.deadline_ms > 0) {
    job.deadline = job.submitted + std::chrono::milliseconds(job.spec.deadline_ms);
    job.has_deadline = true;
  }
  auto ticket = job.ticket;
  const std::string id = job.spec.id;

  const double est_wait = estimatedWaitMs();
  Admit a = queue_.push(std::move(job), est_wait);

  // Evictions first: reject-largest may bounce an already-queued tenant.
  for (Job& ev : a.evicted) {
    Response r;
    r.id = ev.spec.id;
    r.status = Status::kRejected;
    r.code = Code::kShed;
    r.detail = "evicted by reject-largest shedding";
    r.retry_after_ms = a.retry_after_ms > 0 ? a.retry_after_ms : 1;
    bump("svc.shed");
    bump("svc.rejected");
    ev.ticket->complete(std::move(r));
  }

  if (!a.admitted()) {
    *reject = Response{};
    reject->id = id;
    reject->status = Status::kRejected;
    reject->code = a.code;
    reject->retry_after_ms = a.retry_after_ms;
    bump("svc.rejected");
    switch (a.code) {
      case Code::kQueueFull:
        reject->detail = "queue at capacity (" +
                         std::string(shedPolicyName(opt_.shed)) + ")";
        bump("svc.rejected_queue_full");
        break;
      case Code::kShed:
        reject->detail = "largest deployment in an overloaded queue";
        bump("svc.shed");
        break;
      case Code::kDeadlineUnmeetable:
        reject->detail = "estimated queue wait exceeds the deadline";
        bump("svc.rejected_deadline");
        break;
      case Code::kDraining:
        reject->detail = "service is draining";
        bump("svc.rejected_draining");
        break;
      default:
        reject->detail = "admission refused";
        break;
    }
    return nullptr;
  }

  bump("svc.admitted");
  if (m != nullptr) {
    m->gauge("svc.queue_depth").set(static_cast<double>(queue_.depth()));
  }
  return ticket;
}

std::string Service::journalPath(const RequestSpec& spec) const {
  return opt_.checkpoint_dir + "/" + spec.id + ".journal";
}

bool Service::idleLocked() const {
  return queue_.depth() == 0 && inflight_n_.load(std::memory_order_relaxed) == 0;
}

void Service::noteIdleProgress() {
  {
    std::lock_guard<std::mutex> lk(idle_mu_);
  }
  idle_cv_.notify_all();
}

void Service::workerLoop(int slot) {
  WorkerSlot& me = *slots_[static_cast<std::size_t>(slot)];
  for (;;) {
    Job job;
    if (!queue_.pop(&job)) break;
    me.busy.store(true, std::memory_order_relaxed);
    inflight_n_.fetch_add(1, std::memory_order_relaxed);
    Response r = runJob(job, slot);
    finishJob(job, r);
    inflight_n_.fetch_sub(1, std::memory_order_relaxed);
    me.busy.store(false, std::memory_order_relaxed);
    noteIdleProgress();
    // A watchdog-marked worker retires after finishing the cancelled job;
    // the watchdog joins it and spawns a fresh thread on this slot.
    if (me.recycle.load(std::memory_order_relaxed)) break;
  }
  me.returned.store(true, std::memory_order_release);
  noteIdleProgress();
}

bool Service::runAttempt(Job& job, Inflight& inf, Response* out) {
  const RequestSpec& spec = job.spec;
  *out = Response{};
  out->id = spec.id;

  // Deadline pre-check: an attempt that starts past the deadline (queue
  // wait, prior attempts) is cancelled before any work.
  if (job.has_deadline) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        job.deadline - Clock::now());
    if (remaining.count() <= 0) {
      out->status = Status::kCancelled;
      out->code = Code::kDeadline;
      out->detail = "deadline expired before the attempt started";
      return true;
    }
    inf.budget.setDeadline(remaining);
  }
  if (spec.max_slots > 0) inf.budget.setSlotCap(spec.max_slots);
  const ckpt::CancelToken& token = inf.budget.token();

  // Chaos knob: wedge the first attempt without advancing the heartbeat —
  // exactly what the watchdog's stall detector exists to catch.  Later
  // attempts skip the hang so a stall-cancelled request demonstrably
  // recovers through the retry path.
  if (spec.hang_ms > 0 && job.attempts <= 1) {
    interruptibleSleep(spec.hang_ms, [&] { return token.cancelled(); });
  }

  if (!token.cancelled()) {
    workload::Scenario sc = scenarioFor(spec);
    core::System sys = workload::makeSystem(sc, spec.seed);
    const graph::InterferenceGraph g(sys);

    auto inner = makeScheduler(spec, g, sys, opt_.solver_threads);
    inner->attachMetrics(opt_.metrics);
    inner->attachTrace(opt_.trace);
    inner->attachCancel(&token);

    const fault::FaultPlan* plan =
        spec.has_faults ? &spec.faults : opt_.default_faults;
    std::unique_ptr<fault::ChannelModel> channel;
    if (plan != nullptr && !plan->empty()) {
      channel = std::make_unique<fault::ChannelModel>(*plan);
      inner->attachChannel(channel.get());
    }

    sched::OneShotScheduler* scheduler = inner.get();
    std::unique_ptr<PacedScheduler> paced;
    if (spec.pace_ms > 0) {
      paced = std::make_unique<PacedScheduler>(std::move(inner), spec.pace_ms,
                                               &token);
      scheduler = paced.get();
    }

    sched::McsOptions mcs_opt;
    mcs_opt.metrics = opt_.metrics;
    mcs_opt.trace = opt_.trace;
    mcs_opt.budget = &inf.budget;
    mcs_opt.progress = &inf.progress;
    if (plan != nullptr && !plan->empty()) {
      mcs_opt.faults = plan;
      mcs_opt.channel = channel.get();
    }

    const bool journaled = spec.checkpoint && !opt_.checkpoint_dir.empty();
    ckpt::CheckpointSetup setup;
    if (journaled) {
      setup.path = journalPath(spec);
      setup.snapshot_every = opt_.snapshot_every;
      // auto_resume: a retry (or a resubmission after a drain) picks the
      // committed prefix back up instead of re-solving from slot 0.
      setup.auto_resume = true;
      setup.seed = spec.seed;
    }

    const ckpt::CheckpointedRun run =
        ckpt::runMcsCheckpointed(sys, *scheduler, mcs_opt, setup);

    if (!run.ok) {
      // Fail closed, then clear the way: a corrupt or mismatched journal is
      // wiped so the retry starts from a clean slate.
      if (journaled) {
        std::remove(setup.path.c_str());
        std::remove((setup.path + ".snap").c_str());
      }
      out->status = Status::kFailed;
      out->code = Code::kIntegrity;
      out->detail = run.error;
      return false;  // retryable
    }

    const sched::McsResult& res = run.result;
    out->slots = res.slots;
    out->tags_read = res.tags_read;
    out->completed = res.completed;
    out->resumable = journaled && res.slots > 0;

    if (!res.interrupted) {
      out->status = Status::kOk;
      // The run is done; its journal has served its purpose (and would
      // otherwise make a future same-id submission replay a finished run).
      if (journaled) {
        std::remove(setup.path.c_str());
        std::remove((setup.path + ".snap").c_str());
      }
      out->resumable = false;
      return true;
    }

    if (res.stop == sched::McsStop::kSlotCap) {
      // The client asked for a bounded run; the cap firing is the contract,
      // not a failure.  The journal stays for a follow-up resume.
      out->status = Status::kOk;
      return true;
    }
  }

  // Cancelled (either mid-solve or during the hang): classify by who
  // claimed the cancellation.
  const int reason = inf.cancel_reason.load(std::memory_order_relaxed);
  out->status = Status::kCancelled;
  switch (reason) {
    case 2:
      out->code = Code::kStalled;
      out->detail = "watchdog: no slot progress within the stall window";
      return false;  // retryable
    case 3:
      out->code = Code::kDraining;
      out->detail = "cancelled by drain";
      return true;
    case 1:
    default:
      out->code = Code::kDeadline;
      out->detail = "deadline expired mid-run";
      return true;
  }
}

Response Service::runJob(Job& job, int slot) {
  auto* m = opt_.metrics;
  const auto start = Clock::now();
  const double queue_wait_ms = elapsedMs(job.submitted, start);
  if (m != nullptr) m->histogram("svc.queue_wait_ms").record(queue_wait_ms);

  obs::ScopedTimer req_span(m, "svc.request_us", opt_.trace,
                            "svc.request:" + job.spec.id);

  const int max_retries =
      job.spec.retries >= 0 ? job.spec.retries : opt_.default_retries;
  int prev_backoff_ms = opt_.backoff_base_ms;

  Response r;
  for (int attempt = 1;; ++attempt) {
    job.attempts = attempt;

    Inflight inf;
    inf.job = &job;
    inf.slot = slot;
    inf.last_change = Clock::now();
    {
      std::lock_guard<std::mutex> lk(inflight_mu_);
      inflight_.push_back(&inf);
    }
    if (m != nullptr) {
      m->gauge("svc.inflight").set(static_cast<double>(inflight_n_.load()));
    }

    const bool terminal = runAttempt(job, inf, &r);

    {
      std::lock_guard<std::mutex> lk(inflight_mu_);
      inflight_.remove(&inf);
    }
    r.attempts = attempt;

    if (terminal || !retryable(r.code) || attempt > max_retries) break;
    if (draining_.load(std::memory_order_relaxed)) break;

    // Decorrelated jitter: sleep ~ U(base, 3·prev), capped; deterministic
    // in (request id, attempt) so soak logs replay identically.
    const double u = fault::hashU01(
        workload::deriveSeed(fnv1a(job.spec.id), "svc.backoff",
                             static_cast<std::uint64_t>(attempt)));
    const double lo = static_cast<double>(opt_.backoff_base_ms);
    const double hi = static_cast<double>(prev_backoff_ms) * 3.0;
    int backoff_ms = static_cast<int>(lo + u * (hi > lo ? hi - lo : 0.0));
    backoff_ms = std::min(backoff_ms, opt_.backoff_cap_ms);
    if (job.has_deadline) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          job.deadline - Clock::now());
      if (remaining.count() <= backoff_ms) break;  // no room for another try
    }
    if (m != nullptr) m->counter("svc.retries").add(1);
    prev_backoff_ms = backoff_ms;
    if (!interruptibleSleep(backoff_ms, [&] {
          return draining_.load(std::memory_order_relaxed);
        })) {
      break;
    }
  }

  const auto end = Clock::now();
  r.queue_wait_ms = queue_wait_ms;
  r.latency_ms = elapsedMs(job.submitted, end);
  req_span.arg("attempts", static_cast<double>(r.attempts));
  req_span.arg("slots", static_cast<double>(r.slots));
  req_span.arg("ok", r.status == Status::kOk ? 1.0 : 0.0);
  req_span.stop();

  if (m != nullptr) {
    m->histogram("svc.latency_ms").record(r.latency_ms);
    m->gauge("svc.latency_p99_ms")
        .set(m->histogram("svc.latency_ms").percentile(99));
    switch (r.status) {
      case Status::kOk: m->counter("svc.completed").add(1); break;
      case Status::kCancelled: m->counter("svc.cancelled").add(1); break;
      case Status::kFailed: m->counter("svc.failed").add(1); break;
      case Status::kRejected: break;  // accounted at admission
    }
    m->gauge("svc.queue_depth").set(static_cast<double>(queue_.depth()));
  }

  // Wait-estimate EMA over observed *service* time (latency minus queue
  // wait) — what one more queued request costs a worker.
  {
    const double service_ms = r.latency_ms - r.queue_wait_ms;
    std::lock_guard<std::mutex> lk(ema_mu_);
    if (!ema_seeded_) {
      ema_service_ms_ = service_ms;
      ema_seeded_ = true;
    } else {
      ema_service_ms_ = 0.8 * ema_service_ms_ + 0.2 * service_ms;
    }
  }

  if (draining_.load(std::memory_order_relaxed)) {
    if (r.status == Status::kOk) {
      drain_completed_.fetch_add(1, std::memory_order_relaxed);
    } else if (r.resumable) {
      drain_checkpointed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      drain_cancelled_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return r;
}

void Service::finishJob(const Job& job, const Response& r) {
  job.ticket->complete(r);
}

void Service::watchdogLoop() {
  auto* m = opt_.metrics;
  while (!stop_watchdog_.load(std::memory_order_relaxed)) {
    const auto now = Clock::now();
    {
      std::lock_guard<std::mutex> lk(inflight_mu_);
      for (Inflight* inf : inflight_) {
        // Deadline enforcement: the budget's own deadline also fires at
        // slot boundaries, but a request wedged *inside* a schedule() call
        // never reaches one — the watchdog's explicit cancel does not wait.
        if (inf->job->has_deadline && now >= inf->job->deadline) {
          int expect = 0;
          if (inf->cancel_reason.compare_exchange_strong(
                  expect, 1, std::memory_order_relaxed)) {
            inf->budget.token().cancel();
            if (m != nullptr) m->counter("svc.watchdog_cancels").add(1);
          }
          continue;
        }
        // Stall detection on the MCS heartbeat.
        const std::int64_t cur = inf->progress.load(std::memory_order_relaxed);
        if (cur != inf->last_progress) {
          inf->last_progress = cur;
          inf->last_change = now;
        } else if (opt_.stall_window_ms > 0 &&
                   now - inf->last_change >=
                       std::chrono::milliseconds(opt_.stall_window_ms)) {
          int expect = 0;
          if (inf->cancel_reason.compare_exchange_strong(
                  expect, 2, std::memory_order_relaxed)) {
            inf->budget.token().cancel();
            if (inf->slot >= 0) {
              slots_[static_cast<std::size_t>(inf->slot)]->recycle.store(
                  true, std::memory_order_relaxed);
            }
            if (m != nullptr) {
              m->counter("svc.watchdog_stalls").add(1);
              m->counter("svc.watchdog_cancels").add(1);
            }
          }
        }
      }
    }
    // Recycle retired workers: join the returned thread, spawn a fresh one
    // on the same slot.  (A thread that never returns is left alone here;
    // drain() accounts it as hung.)
    if (!draining_.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        WorkerSlot& slot = *slots_[i];
        if (slot.recycle.load(std::memory_order_relaxed) &&
            slot.returned.load(std::memory_order_acquire)) {
          slot.th.join();
          slot.recycle.store(false, std::memory_order_relaxed);
          slot.returned.store(false, std::memory_order_relaxed);
          const int idx = static_cast<int>(i);
          slot.th = std::thread([this, idx] { workerLoop(idx); });
          if (m != nullptr) m->counter("svc.workers_recycled").add(1);
        }
      }
    }
    if (m != nullptr) {
      m->gauge("svc.queue_depth").set(static_cast<double>(queue_.depth()));
      m->gauge("svc.inflight").set(static_cast<double>(inflight_n_.load()));
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opt_.watchdog_period_ms));
  }
}

DrainReport Service::drain(int drain_deadline_ms) {
  DrainReport rep;
  if (drained_.exchange(true)) return rep;
  auto* m = opt_.metrics;

  draining_.store(true, std::memory_order_relaxed);
  queue_.close();

  // Bounce everything still queued: drain admits nothing and starts nothing.
  for (Job& job : queue_.drainPending()) {
    Response r;
    r.id = job.spec.id;
    r.status = Status::kRejected;
    r.code = Code::kDraining;
    r.detail = "service is draining";
    r.retry_after_ms = 1;
    if (m != nullptr) {
      m->counter("svc.rejected").add(1);
      m->counter("svc.rejected_draining").add(1);
    }
    job.ticket->complete(std::move(r));
    ++rep.bounced;
  }

  // Give in-flight work the drain deadline to finish (or checkpoint on its
  // own terms), then cancel the rest.
  const auto cancel_at = Clock::now() + std::chrono::milliseconds(
                                            std::max(0, drain_deadline_ms));
  while (inflight_n_.load(std::memory_order_relaxed) > 0 &&
         Clock::now() < cancel_at) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    for (Inflight* inf : inflight_) {
      int expect = 0;
      inf->cancel_reason.compare_exchange_strong(expect, 3,
                                                 std::memory_order_relaxed);
      inf->budget.token().cancel();
    }
  }

  // Grace window for the cancellations to land at the next slot boundary /
  // token poll, then join what returned and count what did not.
  const auto join_by = Clock::now() + std::chrono::milliseconds(
                                          std::max(250, drain_deadline_ms));
  for (;;) {
    bool all_returned = true;
    for (auto& slot : slots_) {
      if (slot->th.joinable() &&
          !slot->returned.load(std::memory_order_acquire)) {
        all_returned = false;
      }
    }
    if (all_returned || Clock::now() >= join_by) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& slot : slots_) {
    if (!slot->th.joinable()) continue;
    if (slot->returned.load(std::memory_order_acquire)) {
      slot->th.join();
    } else {
      // A worker wedged beyond cooperative cancellation: threads cannot be
      // killed portably, so it is detached and reported.  The caller exits
      // with the "unclean drain" code and the OS reclaims it.
      slot->th.detach();
      ++rep.hung_workers;
      if (m != nullptr) m->counter("svc.hung_workers").add(1);
    }
  }

  stop_watchdog_.store(true, std::memory_order_relaxed);
  if (watchdog_.joinable()) watchdog_.join();

  rep.completed = drain_completed_.load(std::memory_order_relaxed);
  rep.checkpointed = drain_checkpointed_.load(std::memory_order_relaxed);
  rep.cancelled = drain_cancelled_.load(std::memory_order_relaxed);
  if (m != nullptr) {
    m->gauge("svc.queue_depth").set(0.0);
    m->gauge("svc.inflight")
        .set(static_cast<double>(inflight_n_.load(std::memory_order_relaxed)));
  }
  return rep;
}

}  // namespace rfid::service
