// test_check_grid.cpp — the oracle's bucket grid (src/check/bucket_grid.h)
// against brute force.
//
// check::geometricCoverage and ScheduleValidator enumerate candidates
// through their own bucket grid; tests/reference_paths answers the same
// questions with no enumeration at all.  Over the fuzz matrix (random
// seeds; clustered, aisle and grid layouts; mixed radii; departed tags;
// churned systems whose tags arrived, moved outside the construction
// bounding box or onto a reader's interrogation circle, and departed) and
// hand-built adversarial inputs (a tag exactly on the interrogation circle,
// points on cell boundaries, negative coordinates, every point in one
// place, empty deployments, far-flung sparse readers), the grid must return
// the brute-force coverage list for list, accept the brute-force served
// set, reject it with one tag added or dropped, and name the first
// infeasible pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "check/bucket_grid.h"
#include "check/invariants.h"
#include "fault/fault_plan.h"
#include "reference_paths.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "test_helpers.h"
#include "workload/io.h"
#include "workload/rng.h"
#include "workload/scenario.h"

namespace rfid {
namespace {

using check::GeometricCoverage;
using check::ScheduleValidator;

/// The smallest positive radius.  Its square underflows to 0, so a reader
/// with this γ covers exactly the tags at its own position, as γ = 0 would,
/// while keeping the System's 0 < γ <= R.
constexpr double kPointRadius = std::numeric_limits<double>::denorm_min();

/// `sys` with mixed radii: point-sized, stretched and γ = R readers.
core::System mixedRadii(const core::System& sys) {
  std::vector<core::Reader> readers(sys.readers().begin(), sys.readers().end());
  std::vector<core::Tag> tags(sys.tags().begin(), sys.tags().end());
  for (std::size_t i = 0; i < readers.size(); ++i) {
    core::Reader& r = readers[i];
    if (i % 5 == 0) r.interrogation_radius = kPointRadius;
    if (i % 5 == 1) {
      r.interference_radius *= 4.0;
      r.interrogation_radius *= 3.0;
    }
    if (i % 5 == 2) r.interrogation_radius = r.interference_radius;
  }
  return core::System(std::move(readers), std::move(tags));
}

/// `sys`, built in a 50 × 50 square, after streaming churn: arrivals
/// inside and far outside that box, moves far outside it and onto every
/// reader's interrogation circle (three points of it each), and
/// departures, some of tags that arrived or moved.
core::System churned(core::System sys, std::uint64_t seed) {
  workload::Rng rng(seed);
  const auto liveTag = [&] {
    int t = rng.uniformInt(0, sys.numTags() - 1);
    while (sys.departed(t)) t = (t + 1) % sys.numTags();
    return t;
  };
  for (int k = 0; k < 12; ++k) {
    sys.addTag(test::makeTag(rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)));
    sys.addTag(test::makeTag(rng.uniform(-200.0, 250.0), rng.uniform(-200.0, 250.0)));
  }
  for (int v = 0; v < sys.numReaders(); ++v) {
    const core::Reader& r = sys.reader(v);
    const double g = r.interrogation_radius;
    for (const geom::Vec2 d :
         {geom::Vec2{g, 0.0}, geom::Vec2{0.0, -g}, geom::Vec2{-0.6 * g, 0.8 * g}}) {
      sys.moveTag(liveTag(), r.pos + d);
    }
  }
  for (int k = 0; k < 10; ++k) {
    sys.moveTag(liveTag(), {rng.uniform(-300.0, -60.0), rng.uniform(60.0, 300.0)});
  }
  for (int k = 0; k < 25; ++k) sys.removeTag(liveTag());
  return sys;
}

/// The fuzz matrix for one seed: the uniform small system, the clustered,
/// aisle and grid layouts, a mixed-radii variant (point-sized, stretched
/// and γ = R readers), a system with departed tags, and churned copies of
/// the uniform and mixed-radii systems.
std::vector<core::System> fuzzMatrix(std::uint64_t seed) {
  std::vector<core::System> out;
  out.push_back(test::smallRandomSystem(seed, 14, 120, 45.0));
  for (const workload::Layout layout :
       {workload::Layout::kClusteredTags, workload::Layout::kAisles,
        workload::Layout::kGridReaders}) {
    workload::Scenario sc;
    sc.layout = layout;
    sc.deploy.num_readers = 18;
    sc.deploy.num_tags = 150;
    sc.deploy.region_side = 50.0;
    sc.deploy.lambda_R = 8.0;
    sc.deploy.lambda_r = 4.0;
    sc.num_clusters = 4;
    sc.num_aisles = 5;
    sc.grid_cols = 6;
    sc.grid_rows = 3;
    out.push_back(workload::makeSystem(sc, seed));
  }
  out.push_back(mixedRadii(test::smallRandomSystem(seed + 1000, 16, 140, 50.0)));
  {
    core::System sys = test::smallRandomSystem(seed + 2000, 14, 120, 45.0);
    for (int t = 0; t < sys.numTags(); t += 7) sys.removeTag(t);
    out.push_back(std::move(sys));
  }
  out.push_back(churned(test::smallRandomSystem(seed + 3000, 16, 140, 50.0), seed + 3001));
  out.push_back(churned(mixedRadii(test::smallRandomSystem(seed + 4000, 16, 140, 50.0)),
                        seed + 4001));
  return out;
}

void expectSameCoverage(const core::System& sys, const std::string& label) {
  const GeometricCoverage got = check::geometricCoverage(sys);
  const GeometricCoverage want = test::ref::geometricCoverage(sys);
  EXPECT_EQ(got.covr_off, want.covr_off) << label;
  EXPECT_EQ(got.covr_idx, want.covr_idx) << label;
  EXPECT_EQ(got.cov_off, want.cov_off) << label;
  EXPECT_EQ(got.cov_idx, want.cov_idx) << label;
}

bool hasIssue(const ScheduleValidator& val, const std::string& invariant) {
  for (const auto& i : val.issues()) {
    if (i.invariant == invariant) return true;
  }
  return false;
}

std::string issueList(const ScheduleValidator& val) {
  std::string out;
  for (const auto& i : val.issues()) out += i.invariant + ": " + i.detail + "\n";
  return out;
}

/// A proposal (readers ascending, channels empty or aligned) and the fault
/// plan it runs under at slot 0.
struct SlotCase {
  sched::OneShotResult proposal;
  fault::FaultPlan plan;
};

/// GHC's and MC2's proposals plus random subsets, with and without
/// channels, each clean and under a plan that crashes the first member and
/// keeps one outsider loud forever.
std::vector<SlotCase> slotCases(const core::System& sys, std::uint64_t seed) {
  std::vector<sched::OneShotResult> proposals;
  sched::HillClimbingScheduler ghc;
  proposals.push_back(ghc.schedule(sys));
  sched::MultiChannelScheduler mc(sched::ChannelOptions{2});
  proposals.push_back(mc.schedule(sys));
  workload::Rng rng(seed);
  for (int k = 0; k < 4; ++k) {
    sched::OneShotResult r;
    for (int v = 0; v < sys.numReaders(); ++v) {
      if (rng.bernoulli(0.35)) {
        r.readers.push_back(v);
        if (k % 2 == 1) r.channel.push_back(rng.uniformInt(0, 1));
      }
    }
    proposals.push_back(r);
  }
  std::vector<SlotCase> out;
  for (const sched::OneShotResult& p : proposals) {
    out.push_back({p, {}});
    if (p.readers.empty() || sys.numReaders() < 2) continue;
    SlotCase faulted{p, {}};
    faulted.plan.addCrash(p.readers.front(), 0, 1);
    int outsider = 0;
    while (std::binary_search(p.readers.begin(), p.readers.end(), outsider) &&
           outsider + 1 < sys.numReaders()) {
      ++outsider;
    }
    faulted.plan.addCrash(outsider, 0, -1, /*loud=*/true);
    out.push_back(std::move(faulted));
  }
  return out;
}

/// What the driver executes for `c` at slot 0, by the plan alone.
struct Executed {
  std::vector<int> live;
  std::vector<int> live_chan;
  std::vector<int> jamming;
};

Executed executed(const SlotCase& c) {
  Executed e;
  const sched::OneShotResult& p = c.proposal;
  for (std::size_t i = 0; i < p.readers.size(); ++i) {
    if (c.plan.crashed(p.readers[i], 0)) continue;
    e.live.push_back(p.readers[i]);
    if (!p.channel.empty()) e.live_chan.push_back(p.channel[i]);
  }
  e.jamming = c.plan.loudAt(0);
  return e;
}

/// Checks slot 0 of `c` with `served` on a fresh validator; the claimed
/// weight is the brute-force no-fault recount, so only the served set (and
/// feasibility, when `expect_feasible`) can flag.
ScheduleValidator checkSlotZero(const core::System& sys, const SlotCase& c,
                                const Executed& e, std::span<const int> served,
                                bool expect_feasible) {
  check::CheckOptions co;
  co.expect_feasible = expect_feasible;
  co.expect_progress = false;
  co.fail_fast = false;
  co.faults = c.plan.empty() ? nullptr : &c.plan;
  ScheduleValidator val(co);
  EXPECT_TRUE(val.beginRun(sys)) << issueList(val);
  sched::OneShotResult p = c.proposal;
  p.weight = static_cast<int>(
      test::ref::geometricServed(sys, p.readers, p.channel).size());
  val.checkSlot(sys, 0, p, e.live, e.jamming, served);
  return val;
}

/// Marks about a quarter of the live tags read, so the walks skip some.
void markSomeRead(core::System& sys, std::uint64_t seed) {
  workload::Rng rng(seed);
  for (int t = 0; t < sys.numTags(); ++t) {
    if (!sys.departed(t) && rng.bernoulli(0.25)) sys.markRead(t);
  }
}

/// A validated GHC covering schedule must pass the oracle and complete.
void expectValidatedMcs(core::System& sys, const std::string& label) {
  sched::HillClimbingScheduler ghc;
  ScheduleValidator val;
  sched::McsOptions opt;
  opt.validator = &val;
  const sched::McsResult res = sched::runCoveringSchedule(sys, ghc, opt);
  EXPECT_TRUE(val.ok()) << label << "\n" << issueList(val);
  EXPECT_TRUE(res.completed) << label;
}

core::System loadRegression(const std::string& name) {
  std::string err;
  auto sys = workload::loadDeploymentFile(
      std::string(RFIDSCHED_REGRESSION_DIR) + "/" + name, &err);
  EXPECT_TRUE(sys.has_value()) << name << ": " << err;
  return sys ? std::move(*sys) : core::System({}, {});
}

// ---- the grid itself ----

TEST(BucketGrid, QueriesNeverMissAPointInTheDisk) {
  for (const std::uint64_t seed : test::seedRange(701, test::iterBudget(6))) {
    workload::Rng rng(seed);
    std::vector<geom::Vec2> pts;
    const int n = rng.uniformInt(0, 200);
    for (int i = 0; i < n; ++i) {
      // Half uniform over a square straddling the origin, half piled on a
      // few integer lattice points (cell-boundary ties).
      if (rng.bernoulli(0.5)) {
        pts.push_back({rng.uniform(-300.0, 300.0), rng.uniform(-80.0, 80.0)});
      } else {
        pts.push_back({static_cast<double>(rng.uniformInt(-3, 3)) * 8.0,
                       static_cast<double>(rng.uniformInt(-3, 3)) * 8.0});
      }
    }
    const double width = rng.uniform(0.0, 40.0);
    const check::BucketGrid grid(
        pts.size(), [&](std::size_t i) { return pts[i]; }, width);
    for (int q = 0; q < 200; ++q) {
      const geom::Vec2 c = q % 2 == 0
                               ? geom::Vec2{rng.uniform(-350.0, 350.0),
                                            rng.uniform(-120.0, 120.0)}
                               : geom::Vec2{static_cast<double>(rng.uniformInt(-4, 4)) * 8.0,
                                            static_cast<double>(rng.uniformInt(-4, 4)) * 8.0};
      const double r = q % 3 == 0 ? width : rng.uniform(0.0, width);
      std::vector<char> seen(pts.size(), 0);
      grid.forEachNear(c, r, [&](std::size_t i) {
        ASSERT_EQ(seen[i], 0) << "point " << i << " offered twice";
        seen[i] = 1;
      });
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (geom::dist2(pts[i], c) <= r * r) {
          EXPECT_EQ(seen[i], 1) << "seed " << seed << " point " << i
                                << " missed by query " << q;
        }
      }
    }
  }
}

// ---- the fuzz matrix ----

TEST(OracleGrid, CoverageMatchesBruteForceAcrossTheFuzzMatrix) {
  for (const std::uint64_t seed : test::seedRange(601, test::iterBudget(6))) {
    const std::vector<core::System> systems = fuzzMatrix(seed);
    for (std::size_t k = 0; k < systems.size(); ++k) {
      expectSameCoverage(systems[k], "seed " + std::to_string(seed) +
                                         " system " + std::to_string(k));
    }
  }
}

TEST(OracleGrid, ReferenceServedSetPassesAndOneTagOffFlags) {
  int cases = 0;
  int jammed = 0;
  for (const std::uint64_t seed : test::seedRange(611, test::iterBudget(4))) {
    std::vector<core::System> systems = fuzzMatrix(seed);
    for (std::size_t k = 0; k < systems.size(); ++k) {
      core::System& sys = systems[k];
      markSomeRead(sys, seed + k);
      for (const SlotCase& c : slotCases(sys, seed * 31 + k)) {
        const std::string label = "seed " + std::to_string(seed) +
                                  " system " + std::to_string(k) + " X " +
                                  ::testing::PrintToString(c.proposal.readers);
        const Executed e = executed(c);
        const std::vector<int> served =
            test::ref::geometricServed(sys, e.live, e.live_chan, e.jamming);
        ++cases;
        if (!e.jamming.empty()) ++jammed;
        {
          const ScheduleValidator val =
              checkSlotZero(sys, c, e, served, /*expect_feasible=*/false);
          EXPECT_TRUE(val.ok()) << label << "\n" << issueList(val);
        }
        // One unread tag added: the smallest the reference did not serve.
        for (int t = 0; t < sys.numTags(); ++t) {
          if (sys.isRead(t) || std::binary_search(served.begin(), served.end(), t)) {
            continue;
          }
          std::vector<int> more = served;
          more.insert(std::lower_bound(more.begin(), more.end(), t), t);
          const ScheduleValidator val = checkSlotZero(sys, c, e, more, false);
          EXPECT_TRUE(hasIssue(val, "slot.served-mismatch")) << label;
          break;
        }
        if (!served.empty()) {
          std::vector<int> fewer = served;
          fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(fewer.size() / 2));
          const ScheduleValidator val = checkSlotZero(sys, c, e, fewer, false);
          EXPECT_TRUE(hasIssue(val, "slot.served-mismatch")) << label;
        }
      }
    }
  }
  EXPECT_GT(jammed, 0);
  EXPECT_GT(cases, jammed);
}

TEST(OracleGrid, InfeasibleProposalNamesTheFirstPair) {
  int infeasible = 0;
  for (const std::uint64_t seed : test::seedRange(621, test::iterBudget(4))) {
    std::vector<core::System> systems = fuzzMatrix(seed);
    for (std::size_t k = 0; k < systems.size(); ++k) {
      const core::System& sys = systems[k];
      for (const SlotCase& c : slotCases(sys, seed * 37 + k)) {
        if (!c.plan.empty()) continue;
        const sched::OneShotResult& p = c.proposal;
        const Executed e = executed(c);
        const ScheduleValidator val = checkSlotZero(
            sys, c, e, test::ref::geometricServed(sys, p.readers, p.channel),
            /*expect_feasible=*/true);
        const auto pair = test::ref::firstDependentPair(sys, p.readers, p.channel);
        std::vector<std::string> details;
        for (const auto& i : val.issues()) {
          if (i.invariant == "slot.infeasible") details.push_back(i.detail);
        }
        if (!pair) {
          EXPECT_TRUE(details.empty()) << issueList(val);
          continue;
        }
        ++infeasible;
        ASSERT_EQ(details.size(), 1u) << issueList(val);
        EXPECT_EQ(details[0], "readers " + std::to_string(pair->first) +
                                  " and " + std::to_string(pair->second) +
                                  " violate ‖v_i−v_j‖ > max(R_i,R_j)");
      }
    }
  }
  EXPECT_GT(infeasible, 0);
}

// ---- adversarial inputs ----

TEST(OracleGrid, TagExactlyOnTheInterrogationCircleIsCovered) {
  // 3-4-5 triangles put tags at dist² = 25 = γ² exactly; the tag one ulp
  // past x = 5 leaves reader 0 and falls to reader 1 alone.
  const double past = std::nextafter(5.0, 6.0);
  core::System sys(
      {test::makeReader(0, 0, 12.0, 5.0), test::makeReader(10, 0, 12.0, 5.0)},
      {test::makeTag(3, 4), test::makeTag(-3, -4), test::makeTag(0, -5),
       test::makeTag(5, 0), test::makeTag(past, 0), test::makeTag(13, 4)});
  expectSameCoverage(sys, "circle");
  const GeometricCoverage g = check::geometricCoverage(sys);
  EXPECT_EQ(test::toVec(g.coverers(0)), std::vector<int>({0}));
  EXPECT_EQ(test::toVec(g.coverers(3)), std::vector<int>({0, 1}));
  EXPECT_EQ(test::toVec(g.coverers(4)), std::vector<int>({1}));
  EXPECT_EQ(test::toVec(g.coverers(5)), std::vector<int>({1}));
  expectValidatedMcs(sys, "circle");
}

TEST(OracleGrid, PointsOnCellBoundaries) {
  // Readers on an integer lattice whose spacing equals γ (so, the cell
  // width): tags at lattice points, half points and exactly γ away sit on
  // cell edges; readers exactly R apart are dependent (not dist² > R²).
  std::vector<core::Reader> readers;
  std::vector<core::Tag> tags;
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 6; ++x) {
      readers.push_back(test::makeReader(x, y, 1.0, 1.0));
      tags.push_back(test::makeTag(x, y));
      tags.push_back(test::makeTag(x + 0.5, y));
      tags.push_back(test::makeTag(x, y + 0.5));
    }
  }
  core::System sys(std::move(readers), std::move(tags));
  expectSameCoverage(sys, "lattice");
  SlotCase c;
  c.proposal.readers = {0, 1, 7, 14, 20};
  const Executed e = executed(c);
  const ScheduleValidator val = checkSlotZero(
      sys, c, e, test::ref::geometricServed(sys, c.proposal.readers), true);
  const auto pair = test::ref::firstDependentPair(sys, c.proposal.readers);
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(*pair, std::make_pair(0, 1));
  ASSERT_EQ(val.issues().size(), 1u) << issueList(val);
  EXPECT_EQ(val.issues()[0].detail,
            "readers 0 and 1 violate ‖v_i−v_j‖ > max(R_i,R_j)");
  expectValidatedMcs(sys, "lattice");
}

TEST(OracleGrid, NegativeCoordinates) {
  const core::System base = test::smallRandomSystem(631, 20, 200, 60.0);
  std::vector<core::Reader> readers(base.readers().begin(), base.readers().end());
  std::vector<core::Tag> tags(base.tags().begin(), base.tags().end());
  for (core::Reader& r : readers) r.pos = r.pos - geom::Vec2{1.0e4, 35.0};
  for (core::Tag& t : tags) t.pos = t.pos - geom::Vec2{1.0e4, 35.0};
  core::System sys(std::move(readers), std::move(tags));
  expectSameCoverage(sys, "negative");
  expectValidatedMcs(sys, "negative");
}

TEST(OracleGrid, AllPointsAtOnePosition) {
  std::vector<core::Reader> readers = {
      test::makeReader(3, 3, kPointRadius, kPointRadius),
      test::makeReader(3, 3, 2.0, 1.0),
      test::makeReader(3, 3, 5.0, kPointRadius)};
  std::vector<core::Tag> tags(4, test::makeTag(3, 3));
  core::System sys(std::move(readers), std::move(tags));
  expectSameCoverage(sys, "one point");
  EXPECT_EQ(test::toVec(check::geometricCoverage(sys).coverers(0)),
            std::vector<int>({0, 1, 2}));
  expectValidatedMcs(sys, "one point");
}

TEST(OracleGrid, ZeroReadersAndZeroTags) {
  core::System no_readers({}, {test::makeTag(1, 1), test::makeTag(-2, 5)});
  core::System no_tags({test::makeReader(0, 0, 4.0), test::makeReader(9, 9, 4.0)}, {});
  core::System empty({}, {});
  for (core::System* sys : {&no_readers, &no_tags, &empty}) {
    expectSameCoverage(*sys, "empty");
    expectValidatedMcs(*sys, "empty");
  }
}

TEST(OracleGrid, RegressionDeployments) {
  // One reader with R/γ_max ≈ 3·10⁴, and two readers 10⁶ apart with
  // γ = 0.1: a γ-wide grid over the second would need 10¹⁴ cells.
  for (const char* name :
       {"huge_interference_radius.csv", "far_sparse_readers.csv"}) {
    core::System sys = loadRegression(name);
    expectSameCoverage(sys, name);
    expectValidatedMcs(sys, name);
  }
}

}  // namespace
}  // namespace rfid
