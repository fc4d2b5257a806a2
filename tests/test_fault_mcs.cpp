// Fault-injected MCS driver tests: the referee semantics of crashes (silent
// vs loud), benching/re-planning, degradation accounting, orphan-aware
// termination, and the empty-plan bit-identity guarantee.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/channel_model.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "sched/exact.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "test_helpers.h"

namespace rfid::sched {
namespace {

std::string dumpJson(const obs::MetricsRegistry& r) {
  std::ostringstream os;
  r.writeJson(os, 2);
  return os.str();
}

TEST(FaultMcs, SilentlyCrashedReaderReadsNothingAndOrphansItsTags) {
  // Figure 2, reader A dead from slot 0 forever (silent).  Tag1 is covered
  // by A alone → orphaned; everything else is still servable by B and C.
  core::System sys = test::figure2System();
  fault::FaultPlan plan;
  plan.addCrash(0, 0, -1, /*loud=*/false);

  HillClimbingScheduler ghc;
  McsOptions opt;
  opt.faults = &plan;
  const McsResult res = runCoveringSchedule(sys, ghc, opt);

  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.tags_read, 4);  // Tags 2..5
  EXPECT_EQ(res.degradation.tags_orphaned, 1);
  EXPECT_FALSE(sys.isRead(0));
  // A was proposed at least once before the driver learned it is dead.
  EXPECT_GE(res.degradation.crashed_activations, 1);
  EXPECT_GE(res.degradation.faulty_slots, 1);
}

TEST(FaultMcs, LoudCrashJamsItsInterrogationDiskForever) {
  // Same geometry, but reader B fails *loud*: its stuck transmitter keeps
  // every tag in its interrogation disk at multiplicity >= 2 in every
  // future slot.  Tag5 (B only, coverer dead) and Tags 2, 3 (inside B's
  // disk, jammed) are all orphaned; a silent B-crash would orphan Tag5
  // alone.  Only the exclusive tags of A and C survive.
  core::System sys = test::figure2System();
  fault::FaultPlan loud_plan;
  loud_plan.addCrash(1, 0, -1, /*loud=*/true);

  ExactScheduler exact;  // proposes {A, C} (weight 4) in slot 0
  McsOptions opt;
  opt.faults = &loud_plan;
  const McsResult res = runCoveringSchedule(sys, exact, opt);

  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.tags_read, 2);  // Tag1 (A) and Tag4 (C)
  EXPECT_EQ(res.degradation.tags_orphaned, 3);

  core::System sys2 = test::figure2System();
  fault::FaultPlan silent_plan;
  silent_plan.addCrash(1, 0, -1, /*loud=*/false);
  McsOptions opt2;
  opt2.faults = &silent_plan;
  const McsResult res2 = runCoveringSchedule(sys2, exact, opt2);
  EXPECT_EQ(res2.tags_read, 4);
  EXPECT_EQ(res2.degradation.tags_orphaned, 1);
}

TEST(FaultMcs, BenchedReaderIsReplannedAroundThenReprobed) {
  // A crashes for slots [0, 2) only.  The driver sees the slot-0 failure,
  // benches A for reprobe_interval slots (proposals strip it: re-planned
  // activations), then re-probes; since A recovered at slot 2 the run still
  // completes with every tag read.
  core::System sys = test::figure2System();
  fault::FaultPlan plan;
  plan.addCrash(0, 0, 2, /*loud=*/false);

  ExactScheduler exact;
  McsOptions opt;
  opt.faults = &plan;
  opt.reprobe_interval = 8;
  const McsResult res = runCoveringSchedule(sys, exact, opt);

  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.tags_read, 5);
  EXPECT_GE(res.degradation.crashed_activations, 1);
  EXPECT_GE(res.degradation.replanned_activations, 1);
  EXPECT_EQ(res.degradation.tags_orphaned, 0);
  // A stays benched until slot 1 + reprobe_interval even though the outage
  // ended at slot 2 — its exclusive Tag1 cannot be served before then.
  EXPECT_GE(res.slots, 1 + opt.reprobe_interval);
}

TEST(FaultMcs, TerminatesImmediatelyWhenEverythingLeftIsOrphaned) {
  // One reader, dead from slot 0 forever: every coverable tag is orphaned
  // before the first slot executes.  The driver must exit without burning
  // max_stall empty slots.
  std::vector<core::Reader> readers = {test::makeReader(0, 0, 5.0, 3.0)};
  std::vector<core::Tag> tags = {test::makeTag(1, 0), test::makeTag(-1, 1)};
  core::System sys(std::move(readers), std::move(tags));
  fault::FaultPlan plan;
  plan.addCrash(0, 0, -1);

  HillClimbingScheduler ghc;
  McsOptions opt;
  opt.faults = &plan;
  const McsResult res = runCoveringSchedule(sys, ghc, opt);

  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.slots, 0);
  EXPECT_EQ(res.tags_read, 0);
  EXPECT_EQ(res.degradation.tags_orphaned, 2);
}

TEST(FaultMcs, DegradationAccountingIsConsistent) {
  // A busier run: one permanent death, one transient outage, interrogation
  // misses.  Whatever the schedule does, the conservation law holds:
  // tags read + still-unread-coverable == initially coverable, and the
  // orphan count never exceeds what is left unread.
  core::System sys = test::smallRandomSystem(21, 12, 90, 45.0);
  const int coverable_before = sys.unreadCoverableCount();
  ASSERT_GT(coverable_before, 0);

  fault::FaultPlan plan;
  plan.setSeed(5);
  plan.addCrash(3, 0, -1, /*loud=*/false);
  plan.addCrash(7, 2, 6, /*loud=*/false);
  plan.setMissRate(0.1);

  HillClimbingScheduler ghc;
  McsOptions opt;
  opt.faults = &plan;
  const McsResult res = runCoveringSchedule(sys, ghc, opt);

  EXPECT_EQ(res.tags_read + sys.unreadCoverableCount(), coverable_before);
  EXPECT_LE(res.degradation.tags_orphaned, sys.unreadCoverableCount());
  EXPECT_GE(res.degradation.faulty_slots, res.degradation.slots_lost);
  EXPECT_LE(res.degradation.faulty_slots, res.slots);
  // If the run fell short, only orphans explain giving up early (stall and
  // slot caps are far above what this instance needs).
  if (!res.completed) {
    EXPECT_EQ(sys.unreadCoverableCount(), res.degradation.tags_orphaned);
  }
  int sum = 0;
  for (const SlotRecord& s : res.schedule) sum += s.tags_read;
  EXPECT_EQ(sum, res.tags_read);
}

TEST(FaultMcs, MissedTagsAreRetriedInLaterSlots) {
  // Miss faults re-arm tags rather than losing them: with no crashes the
  // run must still complete, just in more slots, and every miss is counted.
  core::System sys = test::smallRandomSystem(22, 10, 60, 40.0);
  const int coverable = sys.unreadCoverableCount();

  fault::FaultPlan plan;
  plan.setSeed(9);
  plan.setMissRate(0.3);

  HillClimbingScheduler ghc;
  McsOptions opt;
  opt.faults = &plan;
  const McsResult res = runCoveringSchedule(sys, ghc, opt);

  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.tags_read, coverable);
  EXPECT_GT(res.degradation.tags_missed, 0);
  EXPECT_EQ(res.degradation.tags_orphaned, 0);
  EXPECT_EQ(res.degradation.crashed_activations, 0);
}

TEST(FaultMcs, EmptyPlanIsBitIdenticalToNoPlan) {
  // The acceptance criterion in code: attaching an all-zero FaultPlan (and
  // its ChannelModel) must reproduce the unfaulted run bit for bit —
  // schedule, result fields, and the exported metrics JSON.
  core::System a = test::smallRandomSystem(23, 12, 90, 45.0);
  core::System b = test::smallRandomSystem(23, 12, 90, 45.0);

  HillClimbingScheduler ghc;
  obs::MetricsRegistry plain_reg;
  McsOptions plain;
  plain.metrics = &plain_reg;
  const McsResult r1 = runCoveringSchedule(a, ghc, plain);

  fault::FaultPlan zero;
  zero.setSeed(99);  // a seed alone leaves the plan empty
  ASSERT_TRUE(zero.empty());
  fault::ChannelModel ch(zero);
  obs::MetricsRegistry fault_reg;
  McsOptions wired;
  wired.metrics = &fault_reg;
  wired.faults = &zero;
  wired.channel = &ch;
  const McsResult r2 = runCoveringSchedule(b, ghc, wired);

  EXPECT_EQ(r1.slots, r2.slots);
  EXPECT_EQ(r1.tags_read, r2.tags_read);
  EXPECT_EQ(r1.completed, r2.completed);
  ASSERT_EQ(r1.schedule.size(), r2.schedule.size());
  for (std::size_t i = 0; i < r1.schedule.size(); ++i) {
    EXPECT_EQ(r1.schedule[i].active, r2.schedule[i].active);
    EXPECT_EQ(r1.schedule[i].tags_read, r2.schedule[i].tags_read);
  }
  EXPECT_EQ(r2.degradation.faulty_slots, 0);
  EXPECT_EQ(r2.degradation.ideal_tags_read, 0);
  EXPECT_EQ(dumpJson(plain_reg), dumpJson(fault_reg));
}

TEST(FaultMcs, FaultCountersMatchDegradationStruct) {
  core::System sys = test::smallRandomSystem(24, 12, 90, 45.0);
  fault::FaultPlan plan;
  plan.setSeed(3);
  plan.addCrash(1, 0, -1);
  plan.setMissRate(0.15);

  HillClimbingScheduler ghc;
  obs::MetricsRegistry reg;
  McsOptions opt;
  opt.metrics = &reg;
  opt.faults = &plan;
  const McsResult res = runCoveringSchedule(sys, ghc, opt);

  const std::string json = dumpJson(reg);
  EXPECT_NE(json.find("fault.mcs.crashed_activations"), std::string::npos);
  EXPECT_EQ(reg.counter("fault.mcs.crashed_activations").value(),
            res.degradation.crashed_activations);
  EXPECT_EQ(reg.counter("fault.mcs.replanned_activations").value(),
            res.degradation.replanned_activations);
  EXPECT_EQ(reg.counter("fault.mcs.tags_missed").value(),
            res.degradation.tags_missed);
  EXPECT_EQ(reg.counter("fault.mcs.faulty_slots").value(),
            res.degradation.faulty_slots);
  EXPECT_EQ(reg.counter("fault.mcs.slots_lost").value(),
            res.degradation.slots_lost);
}

}  // namespace
}  // namespace rfid::sched
