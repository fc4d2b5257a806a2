// growth.h — Algorithm 2: centralized reader activation scheduling without
// location information (paper §V-A).
//
// The scheduler sees only the interference graph (Definition 7) and
// per-reader tag coverage — never coordinates.  It exploits the
// growth-bounded property of geometric interference graphs:
//
//   repeat
//     pick alive reader v maximizing w({v});
//     grow r = 0, 1, 2, … computing Γ_r(v) = exact MWFS inside N(v)^r,
//       while w(Γ_{r+1}) ≥ ρ·w(Γ_r)                     (inequality (1))
//     X ← X ∪ Γ_r̄(v);  remove N(v)^{r̄+1} from the graph;
//   until no alive reader can serve a tag.
//
// Removing the (r̄+1)-hop neighborhood (not just N^r̄) guarantees the union
// of the per-region Γ's stays feasible (members of different regions are ≥2
// hops apart, hence non-adjacent).  Theorem 3 bounds r̄ by a constant c(ρ);
// `hop_cap` is the explicit safety net for that constant, and the observed
// r̄ distribution is exported for the ablation bench.
//
// Hot-path structure (docs/performance.md): by default the coordinator pick
// runs through core::LazyGreedyQueue instead of rescanning every reader's
// marginal delta each round, standalone weights are carried across MCS slots
// by core::StandaloneWeightCache, and the readers are partitioned into
// *interaction components* — connected components of the union of the
// interference graph and the shares-a-tag relation.  Committing a reader
// can change nothing outside its component (no shared tags ⇒ no delta
// interaction; no edges ⇒ kills stay inside), so the components are
// independent local subproblems solved in parallel and reduced in component
// order.  The schedule produced is bit-identical to the full-scan loop
// (tests/reference_paths.h) for every thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/weight.h"
#include "graph/interference_graph.h"
#include "sched/scheduler.h"

namespace rfid::sched {

struct GrowthOptions {
  /// ρ = 1 + ε of inequality (1).  Theorem 4: the result is a 1/ρ
  /// approximation of the optimum.  Must be > 1.
  double rho = 1.25;
  /// Hard cap on the neighborhood radius r̄ (the paper's constant c(ρ)).
  int hop_cap = 8;
  /// Node budget per local exact MWFS (0 = unlimited).
  std::int64_t node_limit = 4'000'000;
  /// Threads for the independent interaction components (0 = hardware
  /// concurrency).  Any value yields the same schedule.
  int num_threads = 0;
};

class GrowthScheduler final : public OneShotScheduler {
 public:
  /// `g` must be the interference graph of the system passed to schedule().
  GrowthScheduler(const graph::InterferenceGraph& g, GrowthOptions opt = {});

  std::string name() const override { return "Alg2"; }
  OneShotResult schedule(const core::System& sys) override;

  /// Diagnostics from the most recent schedule() call.
  struct Stats {
    int picks = 0;       // coordinator rounds executed
    int max_rbar = 0;    // largest neighborhood radius reached
    std::int64_t bnb_nodes = 0;  // total branch & bound nodes expanded
  };
  const Stats& lastStats() const { return stats_; }

 private:
  struct Worker;
  struct CompResult {
    std::vector<int> members;  // picked readers, in pick order
    Stats stats;
    std::int64_t work = 0;  // lazy-queue work units spent on the component
    obs::CostBill bill;     // deterministic work, reduced in component order
  };

  void ensureComponents(const core::System& sys);
  void runComponent(const core::System& sys, std::span<const int> comp,
                    Worker& worker, CompResult& out) const;

  const graph::InterferenceGraph* graph_;
  GrowthOptions opt_;
  Stats stats_;
  // Caches over the static structure, keyed by System::instanceId plus the
  // structural epoch: tag churn (streaming mode) rewires the shares-a-tag
  // relation in place, so components must be recut after any mutation.
  std::uint64_t groups_sys_id_ = 0;
  std::uint64_t groups_epoch_ = 0;
  std::vector<std::vector<int>> groups_;  // ordered by smallest member
  core::StandaloneWeightCache standalone_;
};

}  // namespace rfid::sched
