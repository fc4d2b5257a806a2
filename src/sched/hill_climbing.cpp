#include "sched/hill_climbing.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/timer.h"

namespace rfid::sched {

ClimbingScheduler::Climb ClimbingScheduler::climb(
    const core::System& sys, int channels, std::string_view sync_phase,
    std::string_view selection_phase) {
  assert(channels >= 1);
  const int n = sys.numReaders();
  const auto un = static_cast<std::size_t>(n);
  const auto uc = static_cast<std::size_t>(channels);
  core::WeightEvaluator eval(sys);
  // Eligibility only shrinks (a pick closes itself, a conflict blocks one
  // channel), as the queue's contract requires.
  open_.assign(un, 1);
  blocked_.assign(un * uc, 0);

  if (all_.size() != un) {
    all_.resize(un);
    std::iota(all_.begin(), all_.end(), 0);
  }
  const core::StandaloneWeightCache::Stats sync0 = standalone_.stats();
  standalone_.sync(sys);
  {
    const core::StandaloneWeightCache::Stats& s = standalone_.stats();
    obs::CostBill b;
    b.cache_misses = s.full_builds - sync0.full_builds;
    b.cache_hits = s.diff_syncs - sync0.diff_syncs;
    b.cache_refreshes = s.rows_refreshed - sync0.rows_refreshed;
    b.csr_rows = b.cache_refreshes;
    chargeCost(sync_phase, b);
  }
  const std::int64_t work0 = queue_.workUnits();
  const std::int64_t pops0 = queue_.pops();
  const std::int64_t stale0 = queue_.stalePops();
  queue_.beginRound(eval, all_, standalone_.weights());

  Climb out;
  const bool counting = countingWork();
  std::vector<int> channel_of_pick;  // aligned with eval.members()
  while (true) {
    // Cancellation checkpoint: one poll per climb step; the climbed-so-far
    // set is channel-feasible by construction.
    if (cancelled()) break;
    // Exact argmax of the incremental weight over eligible readers — same
    // pick and tie-break (lowest index) as the reference scans.
    const int best = queue_.pickBest(open_);
    if (counting) ++out.steps;
    if (best < 0) break;  // incremental weight would be <= 0 everywhere
    // The first channel holding no member `best` conflicts with.
    const char* const row = blocked_.data() + static_cast<std::size_t>(best) * uc;
    const int c = static_cast<int>(std::find(row, row + uc, 0) - row);
    eval.push(best);
    queue_.invalidate(best);
    open_[static_cast<std::size_t>(best)] = 0;
    channel_of_pick.push_back(c);
    for (int v = 0; v < n; ++v) {
      if (open_[static_cast<std::size_t>(v)] == 0 || sys.independent(best, v)) {
        continue;
      }
      char* const vrow = blocked_.data() + static_cast<std::size_t>(v) * uc;
      vrow[c] = 1;
      if (std::find(vrow, vrow + uc, 0) == vrow + uc) {
        open_[static_cast<std::size_t>(v)] = 0;
      }
    }
  }

  const std::span<const int> members = eval.members();
  std::vector<std::size_t> order(members.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&members](std::size_t a, std::size_t b) {
    return members[a] < members[b];
  });
  for (const std::size_t i : order) {
    out.result.readers.push_back(members[i]);
    out.result.channel.push_back(channel_of_pick[i]);
  }
  out.result.weight = eval.weight();
  out.work = queue_.workUnits() - work0;
  {
    obs::CostBill b;
    b.weight_evals = eval.ops();
    b.csr_rows = b.weight_evals;
    b.queue_work = out.work;
    b.queue_pops = queue_.pops() - pops0;
    b.queue_stale_pops = queue_.stalePops() - stale0;
    chargeCost(selection_phase, b);
  }
  return out;
}

OneShotResult HillClimbingScheduler::schedule(const core::System& sys) {
  obs::ScopedTimer sched_span(trace() != nullptr ? metrics() : nullptr,
                              "ghc.schedule_us", trace(),
                              "ghc.schedule");
  if (!lazy_) return scheduleReference(sys);
  Climb c = climb(sys, 1, "ghc.cache_sync", "ghc.selection");
  recordScheduleMetrics(c.work, c.steps);
  return {std::move(c.result.readers), c.result.weight};
}

OneShotResult HillClimbingScheduler::scheduleReference(const core::System& sys) {
  const int n = sys.numReaders();
  core::WeightEvaluator eval(sys);
  std::vector<char> blocked(static_cast<std::size_t>(n), 0);  // conflicts with chosen

  // Work counting only when an observer is attached, so the detached hot
  // loop is byte-for-byte the uninstrumented one.
  const bool counting = countingWork();
  std::int64_t peek_evals = 0;
  std::int64_t steps = 0;
  while (true) {
    // Cancellation checkpoint: one poll per climb step; the climbed-so-far
    // set is feasible by construction.
    if (cancelled()) break;
    int best = -1;
    int best_delta = 0;  // require strictly positive progress
    for (int v = 0; v < n; ++v) {
      if (blocked[static_cast<std::size_t>(v)] != 0) continue;
      const int delta = eval.peekDelta(v);
      if (counting) ++peek_evals;
      if (delta > best_delta) {
        best_delta = delta;
        best = v;
      }
    }
    if (counting) ++steps;
    if (best < 0) break;  // incremental weight would be <= 0 everywhere
    eval.push(best);
    blocked[static_cast<std::size_t>(best)] = 1;
    for (int v = 0; v < n; ++v) {
      if (blocked[static_cast<std::size_t>(v)] == 0 && !sys.independent(best, v)) {
        blocked[static_cast<std::size_t>(v)] = 1;
      }
    }
  }

  std::vector<int> members(eval.members().begin(), eval.members().end());
  std::sort(members.begin(), members.end());
  recordScheduleMetrics(peek_evals, steps);
  {
    obs::CostBill b;
    b.weight_evals = peek_evals + eval.ops();
    b.csr_rows = b.weight_evals;
    chargeCost("ghc.reference", b);
  }
  return {members, eval.weight()};
}

MultiChannelScheduler::MultiChannelScheduler(ChannelOptions opt) : opt_(opt) {
  if (opt_.num_channels < 1) {
    throw std::invalid_argument("MultiChannelScheduler: num_channels " +
                                std::to_string(opt_.num_channels) + " < 1");
  }
}

std::string MultiChannelScheduler::name() const {
  return "MC" + std::to_string(opt_.num_channels);
}

OneShotResult MultiChannelScheduler::schedule(const core::System& sys) {
  Climb c = climb(sys, opt_.num_channels, "mc.cache_sync", "mc.selection");
  // The claimed weight is the referee's count, the one the slot step
  // serves; the evaluator's exactly-one count equals it only while every
  // same-channel pair is independent.
  c.result.weight = static_cast<int>(
      sys.wellCoveredTags(c.result.readers, {}, c.result.channel).size());
  recordScheduleMetrics(c.work,
                        static_cast<std::int64_t>(c.result.readers.size()));
  return std::move(c.result);
}

}  // namespace rfid::sched
