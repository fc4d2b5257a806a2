// ptas.h — Algorithm 1: PTAS for MWFS with location information (paper §IV).
//
// Erlebach–Jansen–Seidel-style hierarchical shifted-grid dynamic program,
// generalized to per-reader radii and the paper's sub-additive weight:
//
//  1. Scale all interference radii so the largest is 1/2; partition disks
//     into levels (geom::ShiftedGrid::levelOf).
//  2. For every shift (r, s) ∈ [0,k)²: drop disks that hit a kept grid line
//     of their level ("non-survivors"); every surviving disk lies strictly
//     inside one j-square.  Theorem 2: some shift retains at least a
//     (1−1/k)² fraction of the optimum's weight.
//  3. DP over the square forest, finest level upward:  MWFS(S, I) = best
//     feasible set of survivors inside S given boundary context I (already
//     chosen coarser disks intersecting S), computed by enumerating the
//     ≤ Λ same-level survivors chosen inside S and recursing into the
//     (k+1)² children with the context restricted to each child's box.
//  4. Because w is sub-additive (w(X₁∪X₂) may undercut w(X₁)+w(X₂) — the
//     complication §IV calls out), candidates are ranked by *marginal*
//     weight w(X ∪ I) − w(I) evaluated exactly by the System referee.
//
// Feasibility never needs re-checking at combine time: chosen disks are
// strictly inside disjoint child boxes or independent of every context disk
// by construction (see ptas.cpp's combine step for the containment
// argument).
#pragma once

#include <cstdint>

#include "sched/scheduler.h"

namespace rfid::sched {

struct PtasOptions {
  /// Shifting parameter k ≥ 2.  Quality (1−1/k)² at cost k² shifts.
  /// k = 4 keeps ≥ 9/16 of the optimum in theory and ≳ 95% in practice
  /// (bench/ablation_ptas_k), which is where Algorithm 1 starts to beat
  /// the location-free algorithms as the paper's Figures 6–9 report.
  int k = 4;
  /// Λ: maximum number of same-level disks selected inside one square that
  /// still has children (leaf squares are solved exactly by branch & bound,
  /// with no Λ truncation).  The paper's packing argument bounds the useful
  /// Λ by a constant in k; raising it past ~6 buys little and costs
  /// exponentially.
  int lambda = 5;
  /// Guard on the per-square candidate pool |Y| before the Λ-bounded
  /// enumeration in *non-leaf* squares: if such a square holds more
  /// survivors, only the top `square_candidate_cap` by standalone weight
  /// are enumerated.  Leaf squares are exempt — they go through branch &
  /// bound on the full pool, bounded by `leaf_node_limit` instead.
  int square_candidate_cap = 24;
  /// Internal squares whose pool exceeds this switch from the joint
  /// (children-coupled) Λ-enumeration to *sequential conditioning*: solve
  /// the local pool by branch & bound first, then solve each child with
  /// the local picks added to its context.  Joint enumeration is exact but
  /// exponential in the pool; sequential is the standard
  /// coarse-levels-first approximation and keeps big single-level pools
  /// with a few fine-level stragglers tractable.
  int joint_enumeration_cap = 12;
  /// Branch & bound node budget per leaf square (0 = unlimited).  At the
  /// paper's scale a leaf holds ≤ 50 disks and the search finishes well
  /// inside the budget; beyond ~100 readers per leaf the search degrades
  /// gracefully to best-found-so-far (the include-first exploration order
  /// makes early incumbents greedy-or-better).  Remember the budget is
  /// paid per shift — k² times per schedule() call.
  std::int64_t leaf_node_limit = 1'500'000;
  /// Textbook mode: a disk that crosses a kept grid line of its level is
  /// *discarded* for that shift, exactly as §IV prescribes (the Theorem 2
  /// analysis charges the loss to the best shift).  The default (false)
  /// never discards: a crossing disk is homed at the smallest enclosing
  /// square of a coarser level (or a virtual root spanning the plane),
  /// where it simply participates in that square's selection.  Promotion
  /// preserves both DP invariants — homed disks stay strictly inside their
  /// square, and context restriction stays lossless — so the result can
  /// only improve; the ablation bench compares both modes.
  bool strict_survive = false;
  /// Threads for the k² grid-shift fan-out (0 = hardware concurrency).  The
  /// shifts are independent given the frozen read-state, each worker
  /// evaluates weights through its own scratch, and the per-shift results
  /// are reduced in shift order, so the chosen set, the best shift, and the
  /// stats are identical for any value; 1 runs the sequential loop inline.
  int num_threads = 0;
};

class PtasScheduler final : public OneShotScheduler {
 public:
  explicit PtasScheduler(PtasOptions opt = {});

  std::string name() const override { return "Alg1"; }
  OneShotResult schedule(const core::System& sys) override;

  /// Diagnostics from the most recent schedule() call.
  struct Stats {
    int best_shift_r = 0;
    int best_shift_s = 0;
    int levels = 0;           // number of radius levels in play
    std::int64_t dp_entries = 0;   // memoized (square, context) states
    std::int64_t weight_evals = 0; // exact weight evaluations performed
  };
  const Stats& lastStats() const { return stats_; }

 private:
  PtasOptions opt_;
  Stats stats_;
};

}  // namespace rfid::sched
