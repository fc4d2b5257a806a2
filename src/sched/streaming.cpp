#include "sched/streaming.h"

#include <algorithm>
#include <sstream>

#include "check/index_oracle.h"
#include "sched/mcs_loop.h"

namespace rfid::sched {

namespace {

/// Exact order statistic of a sorted sample: the floor(p·(n−1))-th value.
/// Deterministic and scale-free — the bench gate compares these across
/// machines, so no interpolation.
double percentile(const std::vector<int>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto i = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[i]);
}

}  // namespace

StreamingResult runStreamingMcs(core::System& sys, OneShotScheduler& scheduler,
                                const workload::ChurnTrace& trace,
                                const StreamingOptions& opt) {
  StreamingResult res;
  res.uncoverable = sys.unreadCount() - sys.unreadCoverableCount();
  // The mcs.* counters and spans are the static driver's own: an empty
  // trace must export the identical metrics.
  McsSlotLoop loop(sys, scheduler, opt, /*validator=*/nullptr, res);

  // stream.* counters are created lazily on first bump, so a stream fed the
  // empty trace exports the exact metrics JSON of runCoveringSchedule.
  obs::Counter* c_arrived = nullptr;
  obs::Counter* c_departed = nullptr;
  obs::Counter* c_moved = nullptr;
  obs::Counter* c_shed = nullptr;
  obs::Counter* c_shed_aged = nullptr;
  const auto bump = [&](obs::Counter*& c, const char* name, std::int64_t by) {
    if (opt.metrics == nullptr || by == 0) return;
    if (c == nullptr) c = &opt.metrics->counter(name);
    c->add(by);
  };

  // Arrival slot per tag index: latency-to-first-read and the aging shed
  // both measure from here.  Tags present at stream start arrived at 0.
  std::vector<int> arrival_slot(static_cast<std::size_t>(sys.numTags()), 0);
  std::vector<int> latencies;

  const std::vector<workload::ChurnEvent>& events = trace.events;
  const std::size_t E = events.size();
  std::size_t ev = 0;
  int now = 0;  // the stream clock (slot index the fault plan speaks in)

  std::vector<int> shed_pick;  // scratch for the overflow shed
  while (true) {
    // ---- churn: apply every event due at or before the current clock ----
    const std::uint64_t dirty_before = sys.dirtyLogEnd();
    int applied = 0;
    while (ev < E && events[ev].slot <= now) {
      const workload::ChurnEvent& e = events[ev];
      ++ev;
      switch (e.kind) {
        case workload::ChurnKind::kArrive: {
          core::Tag t;
          t.pos = e.pos;
          t.epc = e.epc;
          const int idx = sys.addTag(t);
          arrival_slot.push_back(now);
          ++res.arrived;
          if (sys.coverers(idx).empty()) ++res.uncoverable;
          ++applied;
          break;
        }
        case workload::ChurnKind::kDepart: {
          if (e.tag < 0 || e.tag >= sys.numTags() || sys.departed(e.tag)) {
            ++res.skipped_events;
            break;
          }
          sys.removeTag(e.tag);
          ++res.departed;
          ++applied;
          break;
        }
        case workload::ChurnKind::kMove: {
          if (e.tag < 0 || e.tag >= sys.numTags() || sys.departed(e.tag)) {
            ++res.skipped_events;
            break;
          }
          sys.moveTag(e.tag, e.pos);
          ++res.moved;
          ++applied;
          break;
        }
      }
    }
    if (applied > 0 && opt.cost != nullptr) {
      // The churn's deterministic work: every CSR row the splices touched
      // (exactly the dirty-log rows this batch appended).
      obs::CostBill churn_bill;
      churn_bill.csr_rows =
          static_cast<std::int64_t>(sys.dirtyLogEnd() - dirty_before);
      opt.cost->charge("stream.churn", churn_bill);
    }

    // ---- self-healing index validation (epoch-cadence gated) ----
    if (opt.oracle != nullptr) {
      const check::IndexVerdict v = opt.oracle->checkSlot(sys, now);
      if (v == check::IndexVerdict::kCorrupt ||
          (opt.fail_on_divergence && v == check::IndexVerdict::kHealed)) {
        res.stop = McsStop::kCheckFailed;
        break;
      }
    }

    // ---- overload control ----
    if (opt.shed_after_slots > 0) {
      int aged = 0;
      for (int t = 0; t < sys.numTags(); ++t) {
        if (sys.isRead(t) || sys.coverers(t).empty()) continue;
        if (now - arrival_slot[static_cast<std::size_t>(t)] >
            opt.shed_after_slots) {
          sys.markRead(t);
          ++aged;
        }
      }
      res.shed_aged += aged;
      bump(c_shed_aged, "stream.shed_aged", aged);
    }
    int backlog = sys.unreadCoverableCount();
    if (opt.max_backlog > 0 && backlog > opt.max_backlog) {
      shed_pick.clear();
      for (int t = 0; t < sys.numTags(); ++t) {
        if (!sys.isRead(t) && !sys.coverers(t).empty()) shed_pick.push_back(t);
      }
      // Shed-first order per policy; ties broken by higher index so the
      // outcome is deterministic for any stable population.
      if (opt.shed_policy == service::ShedPolicy::kRejectNewest) {
        std::sort(shed_pick.begin(), shed_pick.end(), [&](int a, int b) {
          const int aa = arrival_slot[static_cast<std::size_t>(a)];
          const int ab = arrival_slot[static_cast<std::size_t>(b)];
          return aa != ab ? aa > ab : a > b;
        });
      } else {
        std::sort(shed_pick.begin(), shed_pick.end(), [&](int a, int b) {
          const auto ca = sys.coverers(a).size();
          const auto cb = sys.coverers(b).size();
          return ca != cb ? ca > cb : a > b;
        });
      }
      const int excess = backlog - opt.max_backlog;
      for (int i = 0; i < excess; ++i) {
        sys.markRead(shed_pick[static_cast<std::size_t>(i)]);
      }
      res.shed += excess;
      bump(c_shed, "stream.shed", excess);
      backlog -= excess;
    }
    res.backlog_peak = std::max(res.backlog_peak, backlog);

    // ---- idle fast-forward / termination ----
    if (backlog == 0) {
      if (ev >= E) break;  // drained and no churn ahead
      // The apply loop above consumed everything due, so the next event is
      // strictly in the future: jump the clock straight to it.
      res.idle_slots += events[ev].slot - now;
      now = events[ev].slot;
      continue;
    }
    if (res.slots >= opt.max_slots) break;

    // ---- one MCS slot on the stream clock ----
    // Orphan-aware termination only once the trace is exhausted: while
    // churn is still ahead, "every unread tag is orphaned" is a statement
    // about a population that is about to change.
    const bool more = loop.step(now, /*settled=*/ev >= E);
    if (loop.committed()) {
      for (const int t : loop.served()) {
        latencies.push_back(now - arrival_slot[static_cast<std::size_t>(t)]);
      }
      ++now;  // the slot consumed stream time
    }
    if (!more) break;
  }

  loop.finish(now);
  res.stream_slots = now;
  res.drained = ev >= E && sys.unreadCoverableCount() == 0;
  bump(c_arrived, "stream.arrived", res.arrived);
  bump(c_departed, "stream.departed", res.departed);
  bump(c_moved, "stream.moved", res.moved);

  // Service quality: exact order statistics over the recorded latencies.
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    double sum = 0.0;
    for (const int l : latencies) sum += l;
    res.latency_mean = sum / static_cast<double>(latencies.size());
    res.latency_p50 = percentile(latencies, 0.50);
    res.latency_p99 = percentile(latencies, 0.99);
  }
  if (res.stream_slots > 0 && opt.slot_seconds > 0.0) {
    res.tags_per_sec = static_cast<double>(res.tags_read) /
                       (static_cast<double>(res.stream_slots) * opt.slot_seconds);
  }
  if (opt.oracle != nullptr) {
    res.index_checks = opt.oracle->checks();
    res.index_divergences = opt.oracle->divergences();
    res.index_heals = opt.oracle->heals();
  }
  // The streaming scorecard rides on gauges (deterministic, so the bench
  // gate can pin them) — only when the run actually streamed, keeping the
  // empty-trace metrics JSON identical to the static driver's.
  if (opt.metrics != nullptr &&
      (!trace.events.empty() || res.shed + res.shed_aged > 0)) {
    opt.metrics->gauge("stream.slots").set(static_cast<double>(res.slots));
    opt.metrics->gauge("stream.idle_slots")
        .set(static_cast<double>(res.idle_slots));
    opt.metrics->gauge("stream.tags_read")
        .set(static_cast<double>(res.tags_read));
    opt.metrics->gauge("stream.backlog_peak")
        .set(static_cast<double>(res.backlog_peak));
    opt.metrics->gauge("stream.latency_p50").set(res.latency_p50);
    opt.metrics->gauge("stream.latency_p99").set(res.latency_p99);
    opt.metrics->gauge("stream.tags_per_sec").set(res.tags_per_sec);
  }
  loop.traceDone(res.drained);
  return res;
}

StreamingCheckpointedRun runStreamingCheckpointed(
    core::System& sys, OneShotScheduler& scheduler,
    const workload::ChurnTrace& trace, StreamingOptions opt,
    const ckpt::CheckpointSetup& setup) {
  // The run identity folds the churn trace into the deployment hash: the
  // trace determines the trajectory as much as the deployment does, so a
  // journal must never resume under a different one.
  const auto deployment_hash = [&] {
    std::ostringstream churn_csv;
    workload::saveChurnTrace(churn_csv, trace);
    return ckpt::fnv1a(churn_csv.str(), ckpt::deploymentHash(sys));
  };
  return ckpt::runJournaled<StreamingResult>(
      std::move(opt), setup, scheduler.name(), deployment_hash,
      "deployment/churn mismatch: journal belongs to a different "
      "deployment or churn trace",
      [&](const StreamingOptions& o) {
        return runStreamingMcs(sys, scheduler, trace, o);
      });
}

}  // namespace rfid::sched
