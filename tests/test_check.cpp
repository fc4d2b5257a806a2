// test_check.cpp — the invariant oracle itself (src/check/invariants.h).
//
// Two directions, both load-bearing: clean runs across every scheduler and
// execution path must validate with zero violations (no false alarms), and
// seeded corruptions — a tampered served set, an infeasible proposal, an
// inflated weight claim, a double-read, a flipped bitmap bit — must each
// raise the specific invariant they break (no blindness).
// tools/mutation_smoke.sh repeats the blindness check end-to-end against
// mutated production binaries.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "ckpt/budget.h"
#include "ckpt/mcs_ckpt.h"
#include "core/weight.h"
#include "fault/fault_plan.h"
#include "graph/interference_graph.h"
#include "obs/metrics.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "test_helpers.h"

namespace rfid {
namespace {

using check::CheckLevel;
using check::CheckOptions;
using check::ScheduleValidator;

bool hasIssue(const ScheduleValidator& val, const std::string& invariant) {
  for (const auto& i : val.issues()) {
    if (i.invariant == invariant) return true;
  }
  return false;
}

std::string issueList(const ScheduleValidator& val) {
  std::string out;
  for (const auto& i : val.issues()) out += i.invariant + " ";
  return out;
}

// ---- no false alarms: clean runs validate across schedulers ----

TEST(ScheduleValidator, CleanMcsRunsPassAcrossSchedulers) {
  for (const std::uint64_t seed : {401u, 402u}) {
    core::System sys = test::smallRandomSystem(seed, 16, 120, 50.0);
    const graph::InterferenceGraph g(sys);
    sched::PtasScheduler alg1;
    sched::GrowthScheduler alg2(g);
    sched::HillClimbingScheduler ghc;
    const std::vector<sched::OneShotScheduler*> all = {&alg1, &alg2, &ghc};
    for (sched::OneShotScheduler* s : all) {
      sys.resetReads();
      ScheduleValidator val;
      sched::McsOptions opt;
      opt.validator = &val;
      const sched::McsResult res = sched::runCoveringSchedule(sys, *s, opt);
      EXPECT_TRUE(res.completed) << s->name();
      EXPECT_NE(res.stop, sched::McsStop::kCheckFailed) << s->name();
      EXPECT_TRUE(val.ok()) << s->name() << ": " << issueList(val);
      EXPECT_EQ(val.slotsChecked(), res.slots) << s->name();
    }
  }
}

TEST(ScheduleValidator, ParanoidLevelPassesOnCleanRun) {
  core::System sys = test::smallRandomSystem(411, 14, 100, 45.0);
  obs::MetricsRegistry reg;
  CheckOptions co;
  co.level = CheckLevel::kParanoid;
  co.metrics = &reg;
  ScheduleValidator val(co);
  sched::HillClimbingScheduler ghc;
  sched::McsOptions opt;
  opt.validator = &val;
  const sched::McsResult res = sched::runCoveringSchedule(sys, ghc, opt);
  EXPECT_TRUE(res.completed);
  EXPECT_TRUE(val.ok()) << issueList(val);
  // The observability contract: slots and violations land in check.*.
  EXPECT_EQ(reg.counter("check.slots_checked").value(), res.slots);
  EXPECT_EQ(reg.counter("check.violations").value(), 0);
  EXPECT_GT(reg.counter("check.tags_scanned").value(), 0);
}

TEST(ScheduleValidator, FaultInjectedRunValidatesAgainstFaultedReferee) {
  fault::FaultPlan plan;
  plan.addCrash(2, 1, -1, /*loud=*/true);   // reader 2: permanently loud
  plan.addCrash(4, 0, 9, /*loud=*/false);   // reader 4: silent, slots 0–9
  plan.setMissRate(0.1);

  core::System sys = test::smallRandomSystem(421, 16, 120, 50.0);
  const graph::InterferenceGraph g(sys);
  sched::GrowthScheduler alg2(g);
  CheckOptions co;
  co.faults = &plan;
  ScheduleValidator val(co);
  sched::McsOptions opt;
  opt.validator = &val;
  opt.faults = &plan;
  ASSERT_EQ(co.reprobe_interval, opt.reprobe_interval)
      << "validator must mirror the driver's bench bookkeeping";
  const sched::McsResult res = sched::runCoveringSchedule(sys, alg2, opt);
  EXPECT_NE(res.stop, sched::McsStop::kCheckFailed);
  EXPECT_TRUE(val.ok()) << issueList(val);
  EXPECT_EQ(val.slotsChecked(), res.slots);
}

TEST(ScheduleValidator, CheckpointResumeRevalidatesReplayedSlots) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "check_resume.journal").string();
  std::remove(path.c_str());
  std::remove((path + ".snap").c_str());

  // The instance must genuinely outlast the slot cap.
  {
    core::System sys = test::smallRandomSystem(431, 30, 400, 60.0);
    sched::HillClimbingScheduler ghc;
    ASSERT_GE(sched::runCoveringSchedule(sys, ghc).slots, 3)
        << "instance too easy to test a mid-run resume";
  }
  // Interrupted prefix, validated.
  {
    core::System sys = test::smallRandomSystem(431, 30, 400, 60.0);
    sched::HillClimbingScheduler ghc;
    ckpt::RunBudget budget;
    budget.setSlotCap(2);
    ScheduleValidator val;
    sched::McsOptions opt;
    opt.validator = &val;
    opt.budget = &budget;
    ckpt::CheckpointSetup setup;
    setup.path = path;
    setup.seed = 431;
    const ckpt::CheckpointedRun run =
        ckpt::runMcsCheckpointed(sys, ghc, opt, setup);
    ASSERT_TRUE(run.ok) << run.error;
    ASSERT_TRUE(run.result.interrupted);
    EXPECT_TRUE(val.ok()) << issueList(val);
    EXPECT_EQ(val.slotsChecked(), run.result.slots);
  }
  // Resume: replayed slots re-enter the driver loop and are re-validated
  // exactly like live ones (a fresh validator sees the whole run).
  {
    core::System sys = test::smallRandomSystem(431, 30, 400, 60.0);
    sched::HillClimbingScheduler ghc;
    ScheduleValidator val;
    sched::McsOptions opt;
    opt.validator = &val;
    ckpt::CheckpointSetup setup;
    setup.path = path;
    setup.resume = true;
    setup.seed = 431;
    const ckpt::CheckpointedRun run =
        ckpt::runMcsCheckpointed(sys, ghc, opt, setup);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.replayed_slots, 2);
    EXPECT_TRUE(run.result.completed);
    EXPECT_TRUE(val.ok()) << issueList(val);
    EXPECT_EQ(val.slotsChecked(), run.result.slots);
  }
  std::remove(path.c_str());
  std::remove((path + ".snap").c_str());
}

// ---- no blindness: seeded corruptions raise the specific invariant ----

/// A slot proposal as the driver would hand it to the validator.
sched::OneShotResult proposalFor(core::System& sys) {
  sched::HillClimbingScheduler ghc;
  return ghc.schedule(sys);
}

TEST(ScheduleValidator, CleanManualSlotPasses) {
  core::System sys = test::figure2System();
  ScheduleValidator val;
  ASSERT_TRUE(val.beginRun(sys));
  const sched::OneShotResult one = proposalFor(sys);
  const std::vector<int> served = sys.wellCoveredTags(one.readers);
  EXPECT_TRUE(val.checkSlot(sys, 0, one, one.readers, {}, served));
  EXPECT_TRUE(val.ok()) << issueList(val);
}

TEST(ScheduleValidator, CatchesTamperedServedSet) {
  core::System sys = test::figure2System();
  ScheduleValidator val;
  ASSERT_TRUE(val.beginRun(sys));
  const sched::OneShotResult one = proposalFor(sys);
  std::vector<int> served = sys.wellCoveredTags(one.readers);
  ASSERT_FALSE(served.empty());
  served.pop_back();  // referee "loses" a tag it must have served
  EXPECT_FALSE(val.checkSlot(sys, 0, one, one.readers, {}, served));
  EXPECT_TRUE(hasIssue(val, "slot.served-mismatch")) << issueList(val);
}

TEST(ScheduleValidator, CatchesInfeasibleProposal) {
  // Two readers 5 apart with R = 10: flagrantly dependent (Definition 2).
  std::vector<core::Reader> readers = {test::makeReader(0, 0, 10.0, 6.0),
                                       test::makeReader(5, 0, 10.0, 6.0)};
  std::vector<core::Tag> tags = {test::makeTag(0, 3), test::makeTag(5, -3)};
  core::System sys(std::move(readers), std::move(tags));
  ScheduleValidator val;
  ASSERT_TRUE(val.beginRun(sys));
  sched::OneShotResult bad;
  bad.readers = {0, 1};
  bad.weight = 0;
  val.checkSlot(sys, 0, bad, bad.readers, {}, sys.wellCoveredTags(bad.readers));
  EXPECT_FALSE(val.ok());
  EXPECT_TRUE(hasIssue(val, "slot.infeasible")) << issueList(val);
}

TEST(ScheduleValidator, CatchesInflatedWeightClaim) {
  core::System sys = test::figure2System();
  ScheduleValidator val;
  ASSERT_TRUE(val.beginRun(sys));
  sched::OneShotResult one = proposalFor(sys);
  const std::vector<int> served = sys.wellCoveredTags(one.readers);
  one.weight += 3;  // scheduler brags
  EXPECT_FALSE(val.checkSlot(sys, 0, one, one.readers, {}, served));
  EXPECT_TRUE(hasIssue(val, "slot.claimed-weight-mismatch")) << issueList(val);
}

TEST(ScheduleValidator, CatchesDoubleRead) {
  core::System sys = test::figure2System();
  ScheduleValidator val;
  ASSERT_TRUE(val.beginRun(sys));
  const sched::OneShotResult one = proposalFor(sys);
  const std::vector<int> served = sys.wellCoveredTags(one.readers);
  ASSERT_FALSE(served.empty());
  // Proper driver order: validate pre-commit, then commit.
  ASSERT_TRUE(val.checkSlot(sys, 0, one, one.readers, {}, served));
  sys.markRead(served);
  // Same served set again: every tag is now read in the shadow ledger.
  sys.resetReads();  // production state lies; the shadow does not
  EXPECT_FALSE(val.checkSlot(sys, 1, one, one.readers, {}, served));
  EXPECT_TRUE(hasIssue(val, "slot.reread")) << issueList(val);
}

TEST(ScheduleValidator, CatchesZeroWeightCommit) {
  // Reader 1 covers nothing; committing it alone is a wasted slot while
  // tag 0 (coverable by reader 0) remains unread.
  std::vector<core::Reader> readers = {test::makeReader(0, 0, 8.0, 4.0),
                                       test::makeReader(100, 0, 8.0, 4.0)};
  std::vector<core::Tag> tags = {test::makeTag(0, 2)};
  core::System sys(std::move(readers), std::move(tags));
  ScheduleValidator val;
  ASSERT_TRUE(val.beginRun(sys));
  sched::OneShotResult idle;
  idle.readers = {1};
  idle.weight = 0;
  EXPECT_FALSE(val.checkSlot(sys, 0, idle, idle.readers, {}, {}));
  EXPECT_TRUE(hasIssue(val, "slot.zero-weight-commit")) << issueList(val);
}

TEST(ScheduleValidator, FailFastOffAccumulatesIssues) {
  core::System sys = test::figure2System();
  CheckOptions co;
  co.fail_fast = false;
  ScheduleValidator val(co);
  ASSERT_TRUE(val.beginRun(sys));
  sched::OneShotResult one = proposalFor(sys);
  std::vector<int> served = sys.wellCoveredTags(one.readers);
  one.weight += 1;
  ASSERT_FALSE(served.empty());
  served.pop_back();
  // Without fail_fast the slot call reports true (keep running) while the
  // violations accumulate for the end-of-run report.
  EXPECT_TRUE(val.checkSlot(sys, 0, one, one.readers, {}, served));
  EXPECT_FALSE(val.ok());
  EXPECT_GE(val.violations(), 2);
  EXPECT_TRUE(hasIssue(val, "slot.claimed-weight-mismatch")) << issueList(val);
  EXPECT_TRUE(hasIssue(val, "slot.served-mismatch")) << issueList(val);
}

TEST(ScheduleValidator, DriverAbortsRunOnViolation) {
  // A scheduler that lies about its weight on every slot: the driver must
  // stop at the first commit attempt with kCheckFailed and commit nothing.
  class Braggart : public sched::OneShotScheduler {
   public:
    sched::OneShotResult schedule(const core::System& sys) override {
      sched::HillClimbingScheduler inner;
      sched::OneShotResult r = inner.schedule(sys);
      r.weight += 5;
      return r;
    }
    std::string name() const override { return "braggart"; }
  };
  core::System sys = test::smallRandomSystem(441, 12, 90, 45.0);
  Braggart bad;
  ScheduleValidator val;
  sched::McsOptions opt;
  opt.validator = &val;
  const sched::McsResult res = sched::runCoveringSchedule(sys, bad, opt);
  EXPECT_EQ(res.stop, sched::McsStop::kCheckFailed);
  EXPECT_EQ(res.slots, 0);
  EXPECT_FALSE(val.ok());
  EXPECT_TRUE(hasIssue(val, "slot.claimed-weight-mismatch")) << issueList(val);
}

TEST(ScheduleValidator, BeginAuditFlagsCorruptBitmapRow) {
  // The referee sweeps the bitmap rows, so the begin audit must read them:
  // one flipped arena bit, with the coverers CSR intact, fails the run
  // before a single slot.
  core::System sys = test::smallRandomSystem(3, 60, 1500, 110.0);
  sys.testOnlyCorruptBitmap();
  ScheduleValidator val;
  EXPECT_FALSE(val.beginRun(sys));
  EXPECT_TRUE(hasIssue(val, "begin.coverage-row-mismatch")) << issueList(val);
  EXPECT_FALSE(hasIssue(val, "begin.coverers-csr-mismatch")) << issueList(val);

  // The other direction: two swapped coverers entries, with the bitmap rows
  // intact, fail it through the tag rows.
  core::System csr = test::smallRandomSystem(3, 60, 1500, 110.0);
  csr.testOnlyCorruptIndex();
  ScheduleValidator csr_val;
  EXPECT_FALSE(csr_val.beginRun(csr));
  EXPECT_TRUE(hasIssue(csr_val, "begin.coverers-csr-mismatch"))
      << issueList(csr_val);
  EXPECT_FALSE(hasIssue(csr_val, "begin.coverage-row-mismatch"))
      << issueList(csr_val);
}

// ---- the WeightEvaluator self-audit ----

TEST(WeightEvaluatorAudit, PassesThroughPushPopSequences) {
  core::System sys = test::smallRandomSystem(451, 12, 90, 45.0);
  core::WeightEvaluator eval(sys);
  std::string why;
  EXPECT_TRUE(eval.checkInvariants(&why)) << why;
  for (int v = 0; v < sys.numReaders(); v += 2) eval.push(v);
  EXPECT_TRUE(eval.checkInvariants(&why)) << why;
  eval.pop();
  eval.pop();
  EXPECT_TRUE(eval.checkInvariants(&why)) << why;
  eval.clear();
  EXPECT_TRUE(eval.checkInvariants(&why)) << why;
}

TEST(WeightEvaluatorAudit, DetectsReadStateMutatedUnderHeldStack) {
  core::System sys = test::figure2System();
  core::WeightEvaluator eval(sys);
  eval.push(0);  // reader A exclusively covers Tag1
  ASSERT_GT(eval.weight(), 0);
  sys.markRead(0);  // mutate read-state behind the evaluator's back
  std::string why;
  EXPECT_FALSE(eval.checkInvariants(&why));
  EXPECT_FALSE(why.empty());
  sys.resetReads();
}

}  // namespace
}  // namespace rfid
