// service.h — the multi-tenant scheduler service (ROADMAP item 2).
//
// A Service owns a bounded AdmissionQueue, a fixed pool of worker threads,
// and one watchdog thread.  Requests enter through submit() (typically fed
// by a RequestStreamParser), run as checkpointed MCS solves on the pool,
// and resolve their Ticket with a structured Response.  Robustness is
// layered (docs/service.md):
//
//   admission   bounded queue + deadline-aware checks + shed policies →
//               overload resolves to structured rejections, never growth;
//   isolation   every attempt runs under its own ckpt::RunBudget whose
//               CancelToken is threaded into the driver *and* the
//               scheduler, so a cancel lands at the next slot boundary or
//               search-loop poll;
//   watchdog    a supervisor thread cancels requests past their deadline
//               and requests whose McsOptions::progress heartbeat has not
//               advanced within the stall window, then recycles the worker
//               (the thread finishes the cancelled job, exits, and is
//               replaced by a fresh one);
//   retry       transient failures (watchdog stall, checkpoint-integrity
//               error) re-run with exponential backoff + decorrelated
//               jitter, deterministic in (request id, attempt);
//   drain       close() + drain() stop admission, bounce the queue, give
//               in-flight work a drain deadline to finish or checkpoint,
//               and report hung workers instead of hanging the exit.
//
// Thread-safety: submit() may be called from any number of session
// threads; drain() from one controller thread.  The shared MetricsRegistry
// and TraceSink are thread-safe by contract; a CostLedger is not, so the
// service never shares one across workers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ckpt/budget.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "service/queue.h"
#include "service/request.h"

namespace rfid::graph {
class InterferenceGraph;
}

namespace rfid::service {

/// The scheduler `algo` names (alg1|alg2|alg3|ghc|ca|exact|mc) for `sys`,
/// whose interference graph is `g`: alg1 runs block size `k`, alg2 and
/// alg3 stop growing at ratio `rho`, mc assigns `channels` channels, ca
/// seeds its protocol with `seed`, and alg1 and alg2 use `threads` solver
/// threads.  nullptr for an unknown name or for `channels` < 1, which
/// rfidsched_cli and the request parser reject for every algo.
/// rfidsched_cli and the service both build their schedulers here.
std::unique_ptr<sched::OneShotScheduler> makeScheduler(
    std::string_view algo, const core::System& sys,
    const graph::InterferenceGraph& g, int k, double rho, int channels,
    std::uint64_t seed, int threads);

struct ServiceOptions {
  int workers = 2;
  std::size_t queue_capacity = 16;
  ShedPolicy shed = ShedPolicy::kRejectNewest;
  /// Watchdog scan period.
  int watchdog_period_ms = 5;
  /// Cancel a request whose heartbeat has not advanced for this long.
  /// <= 0 disables stall detection (deadline enforcement stays on).
  int stall_window_ms = 500;
  /// Retry budget for requests that do not set `retries` themselves.
  int default_retries = 1;
  /// Backoff between retry attempts: attempt n sleeps
  /// min(cap, base + u01·(3·prev − base)) ms (decorrelated jitter), with
  /// u01 deterministic in (request id, attempt).
  int backoff_base_ms = 5;
  int backoff_cap_ms = 100;
  /// Directory for per-request slot journals (`<dir>/<id>.journal`).
  /// Empty disables checkpointing service-wide.
  std::string checkpoint_dir;
  int snapshot_every = 16;
  /// Service-wide fault plan applied to requests without their own.
  const fault::FaultPlan* default_faults = nullptr;
  /// Shared observability sinks (both optional, both thread-safe).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Worker threads *inside* each solver (parallel shifts / components).
  /// Kept at 1 by default: the pool parallelizes across requests.
  int solver_threads = 1;
  /// Print wall-clock Response fields as 0 (deterministic protocols).
  bool mask_wall = false;
};

/// What drain() observed (docs/service.md "Drain semantics").
struct DrainReport {
  std::int64_t bounced = 0;        // queued jobs rejected with kDraining
  std::int64_t completed = 0;      // in-flight finished within the deadline
  std::int64_t checkpointed = 0;   // in-flight cancelled, resumable journal
  std::int64_t cancelled = 0;      // in-flight cancelled, no journal
  int hung_workers = 0;            // threads that never returned
  bool clean() const { return hung_workers == 0; }
};

class Service {
 public:
  explicit Service(ServiceOptions opt);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Starts the worker pool and the watchdog.  Call once.
  void start();

  /// Admission: either queues the spec (returns its Ticket) or resolves
  /// the rejection into `*reject` and returns nullptr.  Never blocks on a
  /// full queue.
  std::shared_ptr<Ticket> submit(RequestSpec spec, Response* reject);

  /// Blocks until the queue is empty and no request is in flight, or
  /// `abort()` returns true (polled every few ms).  The EOF path of a
  /// stdin-fed daemon: all submitted work resolves, then the caller
  /// drains.
  template <typename Pred>
  void waitIdle(Pred abort) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(idle_mu_);
        if (idle_cv_.wait_for(lk, std::chrono::milliseconds(10),
                              [&] { return idleLocked(); })) {
          return;
        }
      }
      if (abort()) return;
    }
  }

  /// Graceful shutdown: closes admission, bounces the queue, cancels
  /// in-flight work that outlives `drain_deadline_ms` (0 = cancel
  /// immediately), joins what returns, and counts what does not.  The
  /// service is unusable afterwards.
  DrainReport drain(int drain_deadline_ms);

  std::size_t queueDepth() const { return queue_.depth(); }
  int inflightCount() const {
    return inflight_n_.load(std::memory_order_relaxed);
  }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  const ServiceOptions& options() const { return opt_; }

  /// Estimated wait for a newly queued request (EMA service time ×
  /// backlog ÷ workers), the quantity admission and Retry-After use.
  double estimatedWaitMs() const;

 private:
  /// One request currently executing on a worker, registered for the
  /// watchdog.  `progress` is the MCS heartbeat; `cancel_reason` is a
  /// one-shot claim (0 none, 1 deadline, 2 stall, 3 drain) so exactly one
  /// canceller classifies the outcome.
  struct Inflight {
    Job* job = nullptr;
    int slot = -1;  // worker slot index, for recycle marking
    ckpt::RunBudget budget;
    std::atomic<std::int64_t> progress{0};
    std::int64_t last_progress = 0;
    std::chrono::steady_clock::time_point last_change{};
    std::atomic<int> cancel_reason{0};
  };

  struct WorkerSlot {
    std::thread th;
    std::atomic<bool> busy{false};
    std::atomic<bool> recycle{false};   // watchdog: replace after this job
    std::atomic<bool> returned{false};  // thread exited its loop
  };

  void workerLoop(int slot);
  void watchdogLoop();
  /// Runs one job to its terminal Response (including retries).
  Response runJob(Job& job, int slot);
  /// One execution attempt; returns true when `out` is terminal (no retry).
  bool runAttempt(Job& job, Inflight& inf, Response* out);
  void finishJob(const Job& job, const Response& r);
  std::string journalPath(const RequestSpec& spec) const;
  bool idleLocked() const;
  void noteIdleProgress();

  ServiceOptions opt_;
  AdmissionQueue queue_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::thread watchdog_;
  std::atomic<bool> stop_watchdog_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<int> inflight_n_{0};

  // Drain accounting, bumped by workers finishing while draining_ is set.
  std::atomic<std::int64_t> drain_completed_{0};
  std::atomic<std::int64_t> drain_checkpointed_{0};
  std::atomic<std::int64_t> drain_cancelled_{0};

  mutable std::mutex inflight_mu_;
  std::list<Inflight*> inflight_;

  mutable std::mutex ema_mu_;
  double ema_service_ms_ = 50.0;  // prior until real completions arrive
  bool ema_seeded_ = false;

  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  std::atomic<std::int64_t> latency_p99_x1000_{0};
};

}  // namespace rfid::service
