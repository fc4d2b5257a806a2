// reference_paths.h — the straightforward implementations the optimized
// production paths are held bit-identical to (docs/performance.md); linked
// into the test binaries only.  The CSR referee walks System::coverage()
// with a per-tag multiplicity count and reads only coverage(), isRead()
// and the reader accessors.  ScanGrowthScheduler picks Alg2's coordinator
// by a full rescan of every alive reader's marginal delta.  (The serial
// PTAS reference is PtasOptions::num_threads = 1.)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/system.h"
#include "graph/interference_graph.h"
#include "sched/growth.h"

namespace rfid::test::ref {

/// w(X) of Definition 3.
int weight(const core::System& sys, std::span<const int> X);

/// The tags w(X) counts, ascending.  `jamming` readers radiate but read
/// nothing (the fault model's loud failures); X and jamming are disjoint.
std::vector<int> wellCoveredTags(const core::System& sys,
                                 std::span<const int> X,
                                 std::span<const int> jamming = {});

/// w({v}): unread tags in v's interrogation disk.
int singleWeight(const core::System& sys, int v);

/// Unread tags some reader covers; the MCS loop runs until this is zero.
int unreadCoverableCount(const core::System& sys);

/// Same schedule and Stats as sched::GrowthScheduler at every thread count
/// (it bills no metrics or cost: only the schedule is the reference).
class ScanGrowthScheduler final : public sched::OneShotScheduler {
 public:
  explicit ScanGrowthScheduler(const graph::InterferenceGraph& g,
                               sched::GrowthOptions opt = {})
      : graph_(&g), opt_(opt) {}

  std::string name() const override { return "Alg2"; }
  sched::OneShotResult schedule(const core::System& sys) override;
  const sched::GrowthScheduler::Stats& lastStats() const { return stats_; }

 private:
  const graph::InterferenceGraph* graph_;
  sched::GrowthOptions opt_;
  sched::GrowthScheduler::Stats stats_;
};

/// Decorator that fails the running test unless, at every schedule() call,
/// the System referee agrees with the CSR referee at the live read-state:
/// singleWeight of every reader and unreadCoverableCount before forwarding
/// to `inner`, weight and wellCoveredTags of the returned set after.  Those
/// are the referee answers Alg2 and the clean MCS driver consume, so by
/// induction over slots an audited run commits what a run on the CSR
/// referee would.
class RefereeAudit final : public sched::OneShotScheduler {
 public:
  explicit RefereeAudit(sched::OneShotScheduler& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  sched::OneShotResult schedule(const core::System& sys) override;
  std::uint64_t stateFingerprint() const override {
    return inner_->stateFingerprint();
  }
  int calls() const { return calls_; }

 private:
  sched::OneShotScheduler* inner_;
  int calls_ = 0;
};

}  // namespace rfid::test::ref
