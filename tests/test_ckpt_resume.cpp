// test_ckpt_resume.cpp — the resume contract (docs/recovery.md): for every
// algorithm, with and without a fault plan, a run interrupted by a budget
// and resumed from its journal must be bit-identical to an uninterrupted
// run — the McsResult, the full schedule, and the exported metrics JSON.
// Also the fail-closed paths: identity mismatches, missing journals, and
// torn tails.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "ckpt/mcs_ckpt.h"
#include "distributed/colorwave.h"
#include "distributed/growth_distributed.h"
#include "fault/fault_plan.h"
#include "graph/interference_graph.h"
#include "obs/metrics.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "test_helpers.h"

namespace rfid::ckpt {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 7003;

core::System makeSys() { return test::smallRandomSystem(kSeed, 24, 400, 70.0); }

fault::FaultPlan makeCrashPlan() {
  fault::FaultPlan plan;
  plan.setSeed(kSeed);
  for (int i = 0; i < 6; ++i) {
    plan.addCrash(i * 4, 0, -1, /*loud=*/(i % 2) != 0);
  }
  return plan;
}

std::unique_ptr<sched::OneShotScheduler> makeScheduler(
    const std::string& algo, const graph::InterferenceGraph& g,
    const core::System& sys) {
  if (algo == "alg2") return std::make_unique<sched::GrowthScheduler>(g);
  if (algo == "alg3") {
    return std::make_unique<dist::GrowthDistributedScheduler>(g);
  }
  if (algo == "ghc") return std::make_unique<sched::HillClimbingScheduler>();
  if (algo == "mc") return std::make_unique<sched::MultiChannelScheduler>();
  if (algo == "ca") {
    return std::make_unique<dist::ColorwaveScheduler>(sys, kSeed);
  }
  ADD_FAILURE() << "unknown algo " << algo;
  return nullptr;
}

struct RunOut {
  CheckpointedRun run;
  std::string metrics;
};

/// One checkpointed MCS run from scratch: fresh system, fresh scheduler,
/// fresh metrics registry — exactly what a restarted process would have.
RunOut runOnce(const std::string& algo, bool with_faults,
               const std::string& ckpt_path, bool resume, int slot_cap) {
  core::System sys = makeSys();
  const graph::InterferenceGraph g(sys);
  auto scheduler = makeScheduler(algo, g, sys);
  const fault::FaultPlan plan = makeCrashPlan();

  obs::MetricsRegistry reg;
  sched::McsOptions opt;
  opt.max_stall = 50;
  opt.metrics = &reg;
  if (with_faults) opt.faults = &plan;

  RunBudget budget;
  if (slot_cap > 0) {
    budget.setSlotCap(slot_cap);
    opt.budget = &budget;
    scheduler->attachCancel(&budget.token());
  }

  CheckpointSetup setup;
  setup.path = ckpt_path;
  setup.resume = resume;
  setup.seed = kSeed;
  setup.snapshot_every = 2;  // exercise snapshots on short test runs

  RunOut out;
  out.run = runMcsCheckpointed(sys, *scheduler, opt, setup);
  std::ostringstream os;
  reg.writeJson(os);
  out.metrics = os.str();
  return out;
}

void expectSameResult(const sched::McsResult& a, const sched::McsResult& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.tags_read, b.tags_read);
  EXPECT_EQ(a.uncoverable, b.uncoverable);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.interrupted, b.interrupted);
  EXPECT_EQ(a.degradation.faulty_slots, b.degradation.faulty_slots);
  EXPECT_EQ(a.degradation.slots_lost, b.degradation.slots_lost);
  EXPECT_EQ(a.degradation.crashed_activations,
            b.degradation.crashed_activations);
  EXPECT_EQ(a.degradation.replanned_activations,
            b.degradation.replanned_activations);
  EXPECT_EQ(a.degradation.tags_missed, b.degradation.tags_missed);
  EXPECT_EQ(a.degradation.tags_orphaned, b.degradation.tags_orphaned);
  EXPECT_EQ(a.degradation.ideal_tags_read, b.degradation.ideal_tags_read);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t q = 0; q < a.schedule.size(); ++q) {
    EXPECT_EQ(a.schedule[q].active, b.schedule[q].active) << "slot " << q;
    EXPECT_EQ(a.schedule[q].channel, b.schedule[q].channel) << "slot " << q;
    EXPECT_EQ(a.schedule[q].tags_read, b.schedule[q].tags_read)
        << "slot " << q;
  }
}

class CkptResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid suffix: ctest -j cases are separate processes sharing one cwd.
    dir_ = "ckpt_resume_tmp." + std::to_string(::getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }
  std::string dir_;
};

TEST_F(CkptResumeTest, InterruptThenResumeIsBitIdenticalForEveryAlgorithm) {
  for (const std::string algo : {"alg2", "alg3", "ghc", "ca", "mc"}) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE(algo + (faults ? "+faults" : " clean"));
      const std::string tag = algo + std::string(faults ? "-f" : "-c");
      // MC2 covers the clean deployment in 2 slots, so it is cut after 1.
      const int cap = algo == "mc" ? 1 : 2;

      // Uninterrupted run, journaled.
      const RunOut base = runOnce(algo, faults, path(tag + "-base"),
                                  /*resume=*/false, /*slot_cap=*/0);
      ASSERT_TRUE(base.run.ok) << base.run.error;
      EXPECT_FALSE(base.run.resumed);
      EXPECT_FALSE(base.run.result.interrupted);
      // The scenario must be long enough that the cap really interrupts.
      ASSERT_GT(base.run.result.slots, cap) << "scenario too easy to test resume";

      // Same run interrupted by a slot cap…
      const RunOut cut = runOnce(algo, faults, path(tag),
                                 /*resume=*/false, /*slot_cap=*/cap);
      ASSERT_TRUE(cut.run.ok) << cut.run.error;
      ASSERT_TRUE(cut.run.result.interrupted);
      EXPECT_EQ(cut.run.result.stop, sched::McsStop::kSlotCap);
      EXPECT_EQ(cut.run.result.slots, cap);

      // …and resumed from its journal in a fresh "process".
      const RunOut res = runOnce(algo, faults, path(tag),
                                 /*resume=*/true, /*slot_cap=*/0);
      ASSERT_TRUE(res.run.ok) << res.run.error;
      EXPECT_TRUE(res.run.resumed);
      EXPECT_EQ(res.run.replayed_slots, cap);
      EXPECT_EQ(res.run.result.replayed_slots, cap);

      // The resumed run is bit-identical to the uninterrupted one —
      // result, schedule, and metrics JSON (replayed_slots excepted,
      // which records the resume itself).
      expectSameResult(base.run.result, res.run.result);
      EXPECT_EQ(base.metrics, res.metrics);

      // And checkpointing itself never changes the computed result.
      const RunOut plain = runOnce(algo, faults, "", false, 0);
      ASSERT_TRUE(plain.run.ok);
      expectSameResult(plain.run.result, base.run.result);
    }
  }
}

TEST_F(CkptResumeTest, ResumeOfCompleteJournalReproducesTheRun) {
  const RunOut base =
      runOnce("alg2", false, path("done"), /*resume=*/false, /*slot_cap=*/0);
  ASSERT_TRUE(base.run.ok) << base.run.error;
  const RunOut res =
      runOnce("alg2", false, path("done"), /*resume=*/true, /*slot_cap=*/0);
  ASSERT_TRUE(res.run.ok) << res.run.error;
  EXPECT_TRUE(res.run.resumed);
  EXPECT_EQ(res.run.replayed_slots, base.run.result.slots);
  expectSameResult(base.run.result, res.run.result);
  EXPECT_EQ(base.metrics, res.metrics);
}

TEST_F(CkptResumeTest, ResumeToleratesTornTail) {
  const RunOut base =
      runOnce("ghc", true, path("base"), /*resume=*/false, /*slot_cap=*/0);
  ASSERT_TRUE(base.run.ok) << base.run.error;
  const RunOut cut =
      runOnce("ghc", true, path("torn"), /*resume=*/false, /*slot_cap=*/3);
  ASSERT_TRUE(cut.run.ok) << cut.run.error;
  // Simulate dying mid-append: half a record at the tail.
  {
    std::ofstream os(path("torn"), std::ios::binary | std::ios::app);
    os << "{\"type\":\"slot\",\"q\":3,\"active\":[1,2";
  }
  const RunOut res =
      runOnce("ghc", true, path("torn"), /*resume=*/true, /*slot_cap=*/0);
  ASSERT_TRUE(res.run.ok) << res.run.error;
  EXPECT_EQ(res.run.replayed_slots, 3);
  expectSameResult(base.run.result, res.run.result);
  EXPECT_EQ(base.metrics, res.metrics);
}

TEST_F(CkptResumeTest, ResumeWithoutJournalFailsClosed) {
  const RunOut res =
      runOnce("alg2", false, path("missing"), /*resume=*/true, 0);
  EXPECT_FALSE(res.run.ok);
  EXPECT_NE(res.run.error.find("cannot resume"), std::string::npos)
      << res.run.error;
}

TEST_F(CkptResumeTest, IdentityMismatchesFailClosed) {
  const RunOut base =
      runOnce("alg2", false, path("j"), /*resume=*/false, /*slot_cap=*/2);
  ASSERT_TRUE(base.run.ok) << base.run.error;
  // Wrong algorithm.
  const RunOut wrong_algo =
      runOnce("ghc", false, path("j"), /*resume=*/true, 0);
  EXPECT_FALSE(wrong_algo.run.ok);
  EXPECT_NE(wrong_algo.run.error.find("mismatch"), std::string::npos)
      << wrong_algo.run.error;
  // Wrong fault plan (journal was written clean).
  const RunOut wrong_fault =
      runOnce("alg2", true, path("j"), /*resume=*/true, 0);
  EXPECT_FALSE(wrong_fault.run.ok);
  EXPECT_NE(wrong_fault.run.error.find("mismatch"), std::string::npos)
      << wrong_fault.run.error;
}

TEST_F(CkptResumeTest, FreshRunRefusesToClobberExistingJournal) {
  const RunOut base =
      runOnce("alg2", false, path("j"), /*resume=*/false, /*slot_cap=*/2);
  ASSERT_TRUE(base.run.ok) << base.run.error;
  const RunOut clobber =
      runOnce("alg2", false, path("j"), /*resume=*/false, 0);
  EXPECT_FALSE(clobber.run.ok);
}

TEST_F(CkptResumeTest, AutoResumeStartsFreshThenPicksUp) {
  // No journal yet: auto-resume falls back to a fresh run.
  core::System sys = makeSys();
  const graph::InterferenceGraph g(sys);
  auto s1 = makeScheduler("alg2", g, sys);
  sched::McsOptions opt;
  opt.max_stall = 50;
  CheckpointSetup setup;
  setup.path = path("auto");
  setup.auto_resume = true;
  setup.seed = kSeed;
  RunBudget budget;
  budget.setSlotCap(2);
  opt.budget = &budget;
  const CheckpointedRun first = runMcsCheckpointed(sys, *s1, opt, setup);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.resumed);
  ASSERT_TRUE(first.result.interrupted);

  // Journal exists now: the identical invocation resumes it.
  core::System sys2 = makeSys();
  auto s2 = makeScheduler("alg2", g, sys2);
  opt.budget = nullptr;
  const CheckpointedRun second = runMcsCheckpointed(sys2, *s2, opt, setup);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.resumed);
  EXPECT_EQ(second.replayed_slots, 2);
  EXPECT_FALSE(second.result.interrupted);
}

}  // namespace
}  // namespace rfid::ckpt
