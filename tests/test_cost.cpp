// test_cost.cpp — the deterministic cost-attribution contract (obs/cost.h):
// CostBill arithmetic and JSON layout, CostLedger accounting identities
// (Σ slots <= total, phases name-sorted), and the headline guarantee that
// the exported attribution JSON is byte-for-byte identical across
// --threads counts — on plain MCS runs, under a fault plan, and through a
// checkpoint interrupt/resume cycle.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "ckpt/mcs_ckpt.h"
#include "fault/fault_plan.h"
#include "graph/interference_graph.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "reference_paths.h"
#include "sched/growth.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "test_helpers.h"

namespace rfid {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 9105;

// --- CostBill: plain data, live in every build mode -------------------------

TEST(CostBill, ArithmeticAndWorkUnits) {
  obs::CostBill a;
  a.weight_evals = 10;
  a.queue_work = 5;
  a.dp_entries = 3;
  a.bnb_nodes = 2;
  a.cache_hits = 7;
  a.net_messages = 100;
  obs::CostBill b;
  b.weight_evals = 1;
  b.net_rounds = 4;

  a.add(b);
  EXPECT_EQ(a.weight_evals, 11);
  EXPECT_EQ(a.net_rounds, 4);
  // Cache and network terms deliberately stay out of the headline scalar.
  EXPECT_EQ(a.workUnits(), 11 + 5 + 3 + 2);
  a.subtract(b);
  EXPECT_EQ(a.weight_evals, 10);
  EXPECT_EQ(a.net_rounds, 0);

  obs::CostBill c;
  EXPECT_TRUE(c.zero());
  EXPECT_FALSE(a.zero());
  EXPECT_TRUE(c == obs::CostBill{});
  EXPECT_FALSE(c == a);
}

TEST(CostBill, JsonCarriesEveryFieldInDeclarationOrder) {
  obs::CostBill b;
  b.weight_evals = 1;
  b.net_rounds = 2;
  std::ostringstream os;
  b.writeJson(os);
  const std::string j = os.str();
  std::size_t pos = 0;
  for (const auto& f : obs::kCostFields) {
    const std::size_t at = j.find(std::string("\"") + f.name + "\":", pos);
    ASSERT_NE(at, std::string::npos) << f.name << " missing/out of order: " << j;
    pos = at;
  }
  EXPECT_NE(j.find("\"weight_evals\":1"), std::string::npos);
  EXPECT_NE(j.find("\"net_rounds\":2"), std::string::npos);
}

// --- ledger API --------------------------------------------------------------

TEST(CostLedger, ApiIsUsableInEveryBuildMode) {
  obs::CostLedger ledger;
  obs::CostBill b;
  b.weight_evals = 3;
  ledger.charge("alg.phase", b);
  ledger.commitSlot(b);
  std::ostringstream os;
  ledger.writeJson(os);
  EXPECT_FALSE(os.str().empty());
  (void)ledger.total();
  (void)ledger.numPhases();
  (void)ledger.numSlots();
}

// --- ledger semantics --------------------------------------------------------

TEST(CostLedger, ChargesAccumulateAndSlotsSliceTheTotal) {
  obs::CostLedger ledger;
  obs::CostBill b;
  b.weight_evals = 4;
  ledger.charge("b.phase", b);
  ledger.charge("a.phase", b);
  ledger.charge("b.phase", b);
  obs::CostBill empty;
  ledger.charge("skipped", empty);  // zero bills never create a phase

  EXPECT_EQ(ledger.numPhases(), 2u);
  EXPECT_EQ(ledger.total().weight_evals, 12);
  ASSERT_NE(ledger.phase("b.phase"), nullptr);
  EXPECT_EQ(ledger.phase("b.phase")->weight_evals, 8);
  EXPECT_EQ(ledger.phase("skipped"), nullptr);

  ledger.commitSlot(ledger.total());
  EXPECT_EQ(ledger.numSlots(), 1u);
  EXPECT_EQ(ledger.slot(0).weight_evals, 12);

  std::ostringstream os;
  ledger.writeJson(os);
  const std::string j = os.str();
  // Phases iterate name-sorted, independent of charge order.
  EXPECT_LT(j.find("a.phase"), j.find("b.phase"));
  EXPECT_NE(j.find("\"slots\""), std::string::npos);
}

// --- cross-thread determinism ------------------------------------------------

std::string costJsonForMcs(int threads, bool with_faults) {
  core::System sys = test::smallRandomSystem(kSeed, 24, 400, 70.0);
  const graph::InterferenceGraph g(sys);
  sched::GrowthOptions o;
  o.num_threads = threads;
  sched::GrowthScheduler alg2(g, o);

  obs::CostLedger ledger;
  alg2.attachCost(&ledger);
  sched::McsOptions opt;
  opt.max_stall = 50;
  opt.cost = &ledger;
  fault::FaultPlan plan;
  plan.setSeed(kSeed);
  if (with_faults) {
    for (int i = 0; i < 5; ++i) {
      plan.addCrash(i * 3, 0, -1, /*loud=*/(i % 2) != 0);
    }
    opt.faults = &plan;
  }
  sched::runCoveringSchedule(sys, alg2, opt);

  std::ostringstream os;
  ledger.writeJson(os);
  return os.str();
}

TEST(CostDeterminism, McsAttributionIsByteIdenticalAcrossThreadCounts) {
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faulted" : "clean");
    const std::string at1 = costJsonForMcs(1, faults);
    EXPECT_EQ(at1, costJsonForMcs(4, faults));
    EXPECT_EQ(at1, costJsonForMcs(8, faults));
    // A real run charged real work.
    EXPECT_NE(at1.find("alg2.selection"), std::string::npos);
    EXPECT_NE(at1.find("mcs.referee"), std::string::npos);
  }
}

TEST(CostDeterminism, PtasShiftAttributionIsThreadCountInvariant) {
  const auto run = [](int threads) {
    core::System sys = test::smallRandomSystem(kSeed + 1, 18, 250, 60.0);
    sched::PtasOptions o;
    o.num_threads = threads;
    sched::PtasScheduler alg1(o);
    obs::CostLedger ledger;
    alg1.attachCost(&ledger);
    alg1.schedule(sys);
    std::ostringstream os;
    ledger.writeJson(os);
    return os.str();
  };
  const std::string at1 = run(1);
  EXPECT_EQ(at1, run(4));
  EXPECT_NE(at1.find("alg1.shifts"), std::string::npos);
  EXPECT_NE(at1.find("alg1.standalone"), std::string::npos);
}

TEST(CostDeterminism, LazyAndReferencePathsChargeTheSameRefereeBill) {
  // The lazy selection and the full-scan reference legitimately differ in
  // *search* cost (that asymmetry is the whole point of the lazy path), but
  // the MCS referee's bill depends only on the schedule — which is
  // identical.
  const auto refereeBill = [](bool lazy) {
    core::System sys = test::smallRandomSystem(kSeed + 2, 20, 300, 65.0);
    const graph::InterferenceGraph g(sys);
    sched::GrowthScheduler fast(g);
    test::ref::ScanGrowthScheduler scan(g);
    sched::OneShotScheduler& alg2 =
        lazy ? static_cast<sched::OneShotScheduler&>(fast) : scan;
    obs::CostLedger ledger;
    alg2.attachCost(&ledger);
    sched::McsOptions opt;
    opt.max_stall = 50;
    opt.cost = &ledger;
    sched::runCoveringSchedule(sys, alg2, opt);
    const obs::CostBill* bill = ledger.phase("mcs.referee");
    return bill == nullptr ? obs::CostBill{} : *bill;
  };
  const obs::CostBill lazy = refereeBill(true);
  const obs::CostBill ref = refereeBill(false);
  EXPECT_FALSE(lazy.zero());
  EXPECT_TRUE(lazy == ref);
}

class CostCkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid suffix: ctest -j cases are separate processes sharing one cwd.
    dir_ = "cost_ckpt_tmp." + std::to_string(::getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

std::string costJsonCheckpointed(int threads, const std::string& ckpt_path,
                                 bool resume, int slot_cap) {
  core::System sys = test::smallRandomSystem(kSeed, 24, 400, 70.0);
  const graph::InterferenceGraph g(sys);
  sched::GrowthOptions o;
  o.num_threads = threads;
  sched::GrowthScheduler alg2(g, o);

  obs::CostLedger ledger;
  alg2.attachCost(&ledger);
  sched::McsOptions opt;
  opt.max_stall = 50;
  opt.cost = &ledger;

  ckpt::RunBudget budget;
  if (slot_cap > 0) {
    budget.setSlotCap(slot_cap);
    opt.budget = &budget;
    alg2.attachCancel(&budget.token());
  }
  ckpt::CheckpointSetup setup;
  setup.path = ckpt_path;
  setup.resume = resume;
  setup.seed = kSeed;
  const ckpt::CheckpointedRun run =
      ckpt::runMcsCheckpointed(sys, alg2, opt, setup);
  EXPECT_TRUE(run.ok) << run.error;

  std::ostringstream os;
  ledger.writeJson(os);
  return os.str();
}

TEST_F(CostCkptTest, ResumedRunReproducesTheUninterruptedAttribution) {
  // Replay recomputes every committed slot through the live loop, so the
  // resumed ledger must equal an uninterrupted run's — at any thread count.
  const std::string base =
      costJsonCheckpointed(1, dir_ + "/base", /*resume=*/false, /*slot_cap=*/0);
  const std::string cut =
      costJsonCheckpointed(1, dir_ + "/cut", /*resume=*/false, /*slot_cap=*/1);
  EXPECT_NE(base, cut);  // the interrupt genuinely cut the run short
  const std::string resumed =
      costJsonCheckpointed(4, dir_ + "/cut", /*resume=*/true, /*slot_cap=*/0);
  EXPECT_EQ(base, resumed);
}

}  // namespace
}  // namespace rfid
