#include "sched/ptas.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/parallel.h"
#include "geometry/shifted_grid.h"
#include "obs/timer.h"
#include "sched/exact.h"

namespace rfid::sched {

namespace {

using geom::Aabb;
using geom::Disk;
using geom::ShiftedGrid;
using geom::SquareKey;
using geom::SquareKeyHash;

/// One shift's DP over the square forest.
///
/// Scoring is *decomposed*: a node's solution value is the marginal weight
/// of its locally chosen disks (w.r.t. the boundary context) plus the sum
/// of its children's memoized values.  Decomposition is sound because two
/// disks homed in disjoint child boxes can neither conflict nor RRc-overlap
/// each other's *exclusive* accounting across boxes — each child scores
/// itself against a context that already contains every coarser chosen disk
/// intersecting it.  The one residual approximation (a local disk's own
/// exclusive tags later double-covered by a different child's pick) is
/// corrected at the top: the final reported weight is the referee's exact
/// w(X) and the best shift is chosen by that exact value.
class ShiftSolver {
 public:
  /// `single_weight` is shift-invariant and shared read-only across the
  /// parallel shifts; `scratch` must be exclusive to this solver's thread
  /// (all referee evaluations go through it).
  ShiftSolver(const core::System& sys, const ShiftedGrid& grid,
              const std::vector<Disk>& scaled, const std::vector<int>& level,
              const PtasOptions& opt, PtasScheduler::Stats& stats,
              std::span<const int> single_weight, core::WeightScratch& scratch)
      : sys_(sys), grid_(grid), scaled_(scaled), level_(level), opt_(opt),
        stats_(stats), single_weight_(single_weight), scratch_(scratch) {
    buildForest();
  }

  /// Runs the DP and returns the chosen reader set for this shift.
  std::vector<int> solveAll() {
    // The virtual root spans the whole plane: its children are the level-0
    // squares and its own pool holds the disks no square strictly contains
    // (only possible in promotion mode).  With an empty pool this reduces
    // to solving each root independently and uniting the results.
    Node virtual_root;
    virtual_root.home_disks = root_pool_;
    virtual_root.children = roots_;
    std::vector<int> total =
        solveNode(virtual_root, {}, /*is_virtual_root=*/true).members;
    std::sort(total.begin(), total.end());
    return total;
  }

 private:
  struct Node {
    std::vector<int> home_disks;     // disks homed at this square
    std::vector<SquareKey> children; // existing child squares only
  };

  struct Solution {
    std::vector<int> members;  // ascending
    int value = 0;             // marginal weight w.r.t. the context
  };

  void buildForest() {
    // Home every disk, then materialize ancestor chains.
    for (int i = 0; i < sys_.numReaders(); ++i) {
      const Disk& d = scaled_[static_cast<std::size_t>(i)];
      const int lv = level_[static_cast<std::size_t>(i)];
      // Readers that cannot serve any unread tag never help (adding a
      // reader cannot increase others' exclusive coverage), so prune them.
      if (single_weight_[static_cast<std::size_t>(i)] == 0) continue;
      SquareKey sq = grid_.containingSquare(d.center, lv);
      if (!d.strictlyInside(grid_.squareBox(sq))) {
        if (opt_.strict_survive) continue;  // §IV: drop for this shift
        // Promotion: walk up to the smallest enclosing square; disks that
        // even level-0 squares cannot contain go to the virtual root.
        bool promoted = false;
        while (sq.level > 0) {
          sq = grid_.parent(sq);
          if (d.strictlyInside(grid_.squareBox(sq))) {
            promoted = true;
            break;
          }
        }
        if (!promoted) {
          root_pool_.push_back(i);
          continue;
        }
      }
      nodes_[sq].home_disks.push_back(i);
      linkAncestors(sq);
    }
    std::sort(root_pool_.begin(), root_pool_.end());
    for (auto& [key, node] : nodes_) {
      // Deterministic traversal order regardless of hash layout.
      std::sort(node.children.begin(), node.children.end(),
                [](const SquareKey& a, const SquareKey& b) {
                  return std::tie(a.level, a.ix, a.iy) <
                         std::tie(b.level, b.ix, b.iy);
                });
      std::sort(node.home_disks.begin(), node.home_disks.end());
    }
    std::sort(roots_.begin(), roots_.end(),
              [](const SquareKey& a, const SquareKey& b) {
                return std::tie(a.level, a.ix, a.iy) <
                       std::tie(b.level, b.ix, b.iy);
              });
  }

  void linkAncestors(SquareKey sq) {
    while (sq.level > 0) {
      const SquareKey par = grid_.parent(sq);
      Node& pnode = nodes_[par];
      const bool fresh =
          std::find(pnode.children.begin(), pnode.children.end(), sq) ==
          pnode.children.end();
      if (fresh) pnode.children.push_back(sq);
      if (!fresh) return;  // ancestors above are already linked
      sq = par;
    }
    if (std::find(roots_.begin(), roots_.end(), sq) == roots_.end()) {
      roots_.push_back(sq);
    }
  }

  bool disksIndependent(int i, int j) const { return sys_.independent(i, j); }

  /// Memo key: square + sorted context reader ids.
  struct MemoKey {
    SquareKey sq;
    std::vector<int> ctx;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    std::size_t operator()(const MemoKey& k) const {
      std::size_t h = SquareKeyHash{}(k.sq);
      for (const int v : k.ctx) {
        h ^= static_cast<std::size_t>(v) + 0x9e3779b9u + (h << 6) + (h >> 2);
      }
      return h;
    }
  };

  /// w(x ∪ ctx) − w(ctx), evaluated exactly by the referee.
  int marginalWeight(std::vector<int> x, const std::vector<int>& ctx,
                     int ctx_weight) {
    if (x.empty()) return 0;
    ++stats_.weight_evals;
    x.insert(x.end(), ctx.begin(), ctx.end());
    return sys_.weight(x, scratch_) - ctx_weight;
  }

  Solution solve(const SquareKey& sq, const std::vector<int>& ctx) {
    const MemoKey key{sq, ctx};
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
    Solution sol = solveNode(nodes_.at(sq), ctx, /*is_virtual_root=*/false);
    ++stats_.dp_entries;
    memo_.emplace(key, sol);
    return sol;
  }

  /// The DP body, shared by real squares and the virtual root.
  Solution solveNode(const Node& node, const std::vector<int>& ctx,
                     bool is_virtual_root) {
    // Candidate pool Y: disks homed here, independent of the context.
    std::vector<int> pool;
    for (const int i : node.home_disks) {
      bool ok = true;
      for (const int c : ctx) {
        if (!disksIndependent(i, c)) { ok = false; break; }
      }
      if (ok) pool.push_back(i);
    }

    if (node.children.empty()) {
      // Leaf square: exact branch & bound over the full pool, marginal to
      // the context.  No Λ or pool truncation.
      BnbResult bnb =
          maxWeightFeasibleSubset(sys_, pool, opt_.leaf_node_limit, ctx);
      stats_.weight_evals += bnb.nodes;
      return {std::move(bnb.members), bnb.weight};
    }

    // Large internal pools: sequential conditioning — pick the coarse
    // local disks by exact B&B, then let each child fill in around them.
    // See PtasOptions::joint_enumeration_cap for the trade-off.
    if (static_cast<int>(pool.size()) > opt_.joint_enumeration_cap) {
      BnbResult local =
          maxWeightFeasibleSubset(sys_, pool, opt_.leaf_node_limit, ctx);
      stats_.weight_evals += local.nodes;
      Solution sol{std::move(local.members), local.weight};
      for (const SquareKey& child : node.children) {
        const Aabb cbox = grid_.squareBox(child);
        std::vector<int> child_ctx;
        for (const int c : ctx) {
          if (scaled_[static_cast<std::size_t>(c)].intersects(cbox)) child_ctx.push_back(c);
        }
        for (const int c : sol.members) {
          if (scaled_[static_cast<std::size_t>(c)].intersects(cbox)) child_ctx.push_back(c);
        }
        std::sort(child_ctx.begin(), child_ctx.end());
        const Solution sub = solve(child, child_ctx);
        sol.value += sub.value;
        sol.members.insert(sol.members.end(), sub.members.begin(),
                           sub.members.end());
      }
      std::sort(sol.members.begin(), sol.members.end());
      return sol;
    }

    // Moderate pools: joint (children-coupled) branch & bound over local
    // subsets D ⊆ pool; each partial D is completed by the children's
    // memoized solutions under the context (ctx ∪ D) restricted per child.
    // The depth cap Λ applies to real squares (the packing argument bounds
    // useful |D| there) but not to the virtual root.
    if (!is_virtual_root &&
        static_cast<int>(pool.size()) > opt_.square_candidate_cap) {
      std::stable_sort(pool.begin(), pool.end(), [this](int a, int b) {
        return single_weight_[static_cast<std::size_t>(a)] >
               single_weight_[static_cast<std::size_t>(b)];
      });
      pool.resize(static_cast<std::size_t>(opt_.square_candidate_cap));
      std::sort(pool.begin(), pool.end());
    }
    // Explore high-coverage candidates first (better incumbents earlier).
    std::stable_sort(pool.begin(), pool.end(), [this](int a, int b) {
      return single_weight_[static_cast<std::size_t>(a)] >
             single_weight_[static_cast<std::size_t>(b)];
    });

    const int ctx_weight = ctx.empty() ? 0 : sys_.weight(ctx, scratch_);
    if (!ctx.empty()) ++stats_.weight_evals;
    // Suffix sums of standalone weights for the admissible bound.
    std::vector<int> suffix(pool.size() + 1, 0);
    for (std::size_t i = pool.size(); i-- > 0;) {
      suffix[i] = suffix[i + 1] + single_weight_[static_cast<std::size_t>(pool[i])];
    }

    Solution best;  // empty selection is always available (value ≥ 0)
    std::vector<int> chosen;
    dfs(node, ctx, ctx_weight, pool, suffix, 0, is_virtual_root, chosen, best);
    std::sort(best.members.begin(), best.members.end());
    return best;
  }

  /// Completes the current D = `chosen` via the children, scores it, and
  /// recurses on extensions with bound pruning.
  void dfs(const Node& node, const std::vector<int>& ctx, int ctx_weight,
           const std::vector<int>& pool, const std::vector<int>& suffix,
           std::size_t pos, bool is_virtual_root, std::vector<int>& chosen,
           Solution& best) {
    // Score D ∪ children(D).
    int child_sum = 0;
    std::vector<int> completion = chosen;
    for (const SquareKey& child : node.children) {
      const Aabb cbox = grid_.squareBox(child);
      std::vector<int> child_ctx;
      for (const int c : ctx) {
        if (scaled_[static_cast<std::size_t>(c)].intersects(cbox)) child_ctx.push_back(c);
      }
      for (const int c : chosen) {
        if (scaled_[static_cast<std::size_t>(c)].intersects(cbox)) child_ctx.push_back(c);
      }
      std::sort(child_ctx.begin(), child_ctx.end());
      // Child picks are strictly inside cbox.  A context disk that does not
      // intersect cbox can conflict with none of them (neither center can
      // lie in the other's disk), so the restriction is lossless; the child
      // enforces independence against everything passed down.
      const Solution sub = solve(child, child_ctx);
      child_sum += sub.value;
      completion.insert(completion.end(), sub.members.begin(),
                        sub.members.end());
    }
    const int d_value = marginalWeight(chosen, ctx, ctx_weight);
    const int value = d_value + child_sum;
    if (value > best.value || best.members.empty()) {
      if (value >= best.value) {
        best.value = value;
        best.members = std::move(completion);
      }
    }

    if (!is_virtual_root && static_cast<int>(chosen.size()) >= opt_.lambda) {
      return;
    }
    // Bound: extensions E add at most Σ singleWeight(E), and children
    // values only shrink as the context grows.
    if (d_value + child_sum + suffix[pos] <= best.value) return;

    for (std::size_t i = pos; i < pool.size(); ++i) {
      const int cand = pool[i];
      bool ok = true;
      for (const int c : chosen) {
        if (!disksIndependent(cand, c)) { ok = false; break; }
      }
      if (!ok) continue;
      chosen.push_back(cand);
      dfs(node, ctx, ctx_weight, pool, suffix, i + 1, is_virtual_root, chosen,
          best);
      chosen.pop_back();
    }
  }

  const core::System& sys_;
  const ShiftedGrid& grid_;
  const std::vector<Disk>& scaled_;
  const std::vector<int>& level_;
  const PtasOptions& opt_;
  PtasScheduler::Stats& stats_;
  std::span<const int> single_weight_;
  core::WeightScratch& scratch_;
  std::unordered_map<SquareKey, Node, SquareKeyHash> nodes_;
  std::vector<SquareKey> roots_;
  std::vector<int> root_pool_;  // disks no square strictly contains
  std::unordered_map<MemoKey, Solution, MemoKeyHash> memo_;
};

}  // namespace

PtasScheduler::PtasScheduler(PtasOptions opt) : opt_(opt) {
  assert(opt_.k >= 2 && "shifting requires k >= 2");
  assert(opt_.lambda >= 1);
}

OneShotResult PtasScheduler::schedule(const core::System& sys) {
  stats_ = {};
  const int n = sys.numReaders();
  if (n == 0) return {};
  obs::ScopedTimer sched_span(trace() != nullptr ? metrics() : nullptr,
                              "alg1.schedule_us", trace(),
                              "alg1.schedule");

  // Scale so the largest interference radius becomes exactly 1/2 (§IV).
  double max_r = 0.0;
  for (const core::Reader& r : sys.readers()) {
    max_r = std::max(max_r, r.interference_radius);
  }
  assert(max_r > 0.0);
  const double scale = 0.5 / max_r;
  std::vector<Disk> scaled(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const core::Reader& r = sys.reader(i);
    scaled[static_cast<std::size_t>(i)] = {r.pos * scale, r.interference_radius * scale};
  }

  // Standalone weights are shift-invariant: compute once, share read-only
  // across the shift fan-out.
  std::vector<int> single_weight(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    single_weight[static_cast<std::size_t>(i)] = sys.singleWeight(i);
  }
  {
    obs::CostBill b;
    b.weight_evals = n;
    b.csr_rows = n;
    chargeCost("alg1.standalone", b);
  }

  // The k² shifts are independent given the frozen read-state, so they fan
  // out over threads, each worker evaluating weights through its own
  // scratch and filling its shifts' private slots.  Cancellation poll: one
  // per shift — a shift not yet started is skipped (done stays false), so
  // stopping early just returns the best of the shifts finished so far.
  struct ShiftOutcome {
    std::vector<int> x;
    int w = 0;
    int max_level = 0;
    PtasScheduler::Stats stats;
    bool done = false;
  };
  const int num_shifts = opt_.k * opt_.k;
  std::vector<ShiftOutcome> shifts(static_cast<std::size_t>(num_shifts));
  const std::uint64_t parent_span = sched_span.spanId();
  analysis::parallelForChunks(
      0, num_shifts,
      [this, &sys, &scaled, &single_weight, &shifts, parent_span, n](
          int /*worker*/, int lo, int hi) {
        core::WeightScratch scratch;
        sys.initScratch(scratch);
        for (int idx = lo; idx < hi; ++idx) {
          if (cancelled()) continue;
          ShiftOutcome& out = shifts[static_cast<std::size_t>(idx)];
          std::optional<obs::ScopedTimer> span;
          if (trace() != nullptr) {
            // Worker-thread span: parent it under alg1.schedule explicitly.
            span.emplace(nullptr, "alg1.shift_us", trace(), "alg1.shift");
            span->setParent(parent_span);
            span->arg("r", static_cast<double>(idx / opt_.k));
            span->arg("s", static_cast<double>(idx % opt_.k));
          }
          const ShiftedGrid grid(opt_.k, idx / opt_.k, idx % opt_.k);
          std::vector<int> level(static_cast<std::size_t>(n));
          for (int i = 0; i < n; ++i) {
            level[static_cast<std::size_t>(i)] =
                grid.levelOf(scaled[static_cast<std::size_t>(i)].radius);
            out.max_level = std::max(out.max_level, level[static_cast<std::size_t>(i)]);
          }
          ShiftSolver solver(sys, grid, scaled, level, opt_, out.stats,
                             single_weight, scratch);
          out.x = solver.solveAll();
          out.w = sys.weight(out.x, scratch);
          ++out.stats.weight_evals;
          out.done = true;
          if (span.has_value()) {
            span->arg("weight", static_cast<double>(out.w));
            span->arg("dp_entries", static_cast<double>(out.stats.dp_entries));
          }
        }
      },
      opt_.num_threads);

  // Reduce in shift order: replicates the sequential loop's strict-
  // improvement, first-wins best-shift choice for any thread count.
  OneShotResult best;
  int max_level = 0;
  obs::CostBill shift_bill;
  for (int idx = 0; idx < num_shifts; ++idx) {
    ShiftOutcome& out = shifts[static_cast<std::size_t>(idx)];
    if (!out.done) continue;
    stats_.dp_entries += out.stats.dp_entries;
    stats_.weight_evals += out.stats.weight_evals;
    shift_bill.weight_evals += out.stats.weight_evals;
    shift_bill.dp_entries += out.stats.dp_entries;
    max_level = std::max(max_level, out.max_level);
    if (out.w > best.weight || best.readers.empty()) {
      best.weight = out.w;
      best.readers = std::move(out.x);
      stats_.best_shift_r = idx / opt_.k;
      stats_.best_shift_s = idx % opt_.k;
    }
  }
  chargeCost("alg1.shifts", shift_bill);
  stats_.levels = max_level + 1;
  recordScheduleMetrics(stats_.weight_evals, stats_.dp_entries);
  return best;
}

}  // namespace rfid::sched
