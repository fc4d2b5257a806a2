// FaultPlan tests: spec parsing, crash/link/miss queries, and the
// determinism contract — the same plan seed produces byte-identical
// fault.* metrics on every run and at any sweep thread count.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/parallel.h"
#include "distributed/colorwave.h"
#include "fault/channel_model.h"
#include "fault/fault_plan.h"
#include "graph/interference_graph.h"
#include "obs/metrics.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "test_helpers.h"

namespace rfid::fault {
namespace {

std::string dumpJson(const obs::MetricsRegistry& r) {
  std::ostringstream os;
  r.writeJson(os, 2);
  return os.str();
}

// --- construction and queries ----------------------------------------------

TEST(FaultPlan, DefaultPlanIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.crashed(0, 0));
  EXPECT_FALSE(plan.hasLinkFaults());
  EXPECT_FALSE(plan.hasMissFaults());
  EXPECT_FALSE(plan.hasPermanentDeaths());
  EXPECT_FALSE(plan.drawMiss(0, 0));
}

TEST(FaultPlan, CrashIntervalsAreHalfOpen) {
  FaultPlan plan;
  plan.addCrash(2, 5, 9);
  EXPECT_FALSE(plan.crashed(2, 4));
  EXPECT_TRUE(plan.crashed(2, 5));
  EXPECT_TRUE(plan.crashed(2, 8));
  EXPECT_FALSE(plan.crashed(2, 9));  // recovered
  EXPECT_FALSE(plan.crashed(1, 6));  // other reader unaffected
  EXPECT_FALSE(plan.permanentlyDead(2, 6));
  EXPECT_FALSE(plan.hasPermanentDeaths());
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ForeverCrashIsPermanentDeath) {
  FaultPlan plan;
  plan.addCrash(0, 3, -1);
  EXPECT_TRUE(plan.hasPermanentDeaths());
  EXPECT_FALSE(plan.permanentlyDead(0, 2));
  EXPECT_TRUE(plan.permanentlyDead(0, 3));
  EXPECT_TRUE(plan.crashed(0, 1000000));
}

TEST(FaultPlan, LoudRequiresTheLoudInterval) {
  FaultPlan plan;
  plan.addCrash(1, 0, 5, /*loud=*/true);
  plan.addCrash(1, 10, 15, /*loud=*/false);
  EXPECT_TRUE(plan.loud(1, 2));
  EXPECT_TRUE(plan.crashed(1, 12));
  EXPECT_FALSE(plan.loud(1, 12));
  EXPECT_FALSE(plan.loud(1, 7));  // not even crashed between intervals
}

TEST(FaultPlan, LinkOverridesBeatDefaults) {
  FaultPlan plan;
  LinkFaults def;
  def.drop = 0.5;
  plan.setLinkDefaults(def);
  LinkFaults quiet;  // all-zero
  plan.setLink(3, 4, quiet);
  EXPECT_DOUBLE_EQ(plan.link(0, 1).drop, 0.5);
  EXPECT_DOUBLE_EQ(plan.link(3, 4).drop, 0.0);
  // Overrides are directed.
  EXPECT_DOUBLE_EQ(plan.link(4, 3).drop, 0.5);
  EXPECT_TRUE(plan.hasLinkFaults());
}

TEST(FaultPlan, SlotMissOverridesDefault) {
  FaultPlan plan;
  plan.setMissRate(0.25);
  plan.setSlotMissRate(7, 0.0);
  EXPECT_DOUBLE_EQ(plan.missRate(0), 0.25);
  EXPECT_DOUBLE_EQ(plan.missRate(7), 0.0);
  EXPECT_TRUE(plan.hasMissFaults());
}

TEST(FaultPlan, DrawMissIsDeterministicAndSeedSensitive) {
  FaultPlan a;
  a.setSeed(1);
  a.setMissRate(0.5);
  FaultPlan b;
  b.setSeed(1);
  b.setMissRate(0.5);
  FaultPlan c;
  c.setSeed(2);
  c.setMissRate(0.5);
  int agree_ab = 0, agree_ac = 0;
  const int n = 512;
  for (int t = 0; t < n; ++t) {
    agree_ab += a.drawMiss(3, t) == b.drawMiss(3, t);
    agree_ac += a.drawMiss(3, t) == c.drawMiss(3, t);
  }
  EXPECT_EQ(agree_ab, n);  // same seed: identical draws
  EXPECT_LT(agree_ac, n);  // different seed: different fate pattern
}

TEST(FaultPlan, DrawMissRateIsRoughlyHonored) {
  FaultPlan plan;
  plan.setSeed(9);
  plan.setMissRate(0.2);
  int missed = 0;
  const int n = 5000;
  for (int t = 0; t < n; ++t) missed += plan.drawMiss(0, t) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(missed) / n, 0.2, 0.03);
  // Extremes short-circuit without hashing.
  plan.setMissRate(1.0);
  EXPECT_TRUE(plan.drawMiss(0, 0));
  plan.setMissRate(0.0);
  EXPECT_FALSE(plan.drawMiss(0, 0));
}

// --- text spec --------------------------------------------------------------

TEST(FaultPlanParse, FullGrammarRoundTrips) {
  const char* spec = R"(# a full plan
seed 77
crash 3 2 9 loud
crash 7 5 -

drop 0.10
dup 0.05
delay 0.20 3
link 1 2 drop 0.9
miss 0.05
miss-slot 4 0.5
)";
  std::string err;
  const auto plan = FaultPlan::parse(spec, &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_EQ(plan->seed(), 77u);
  EXPECT_TRUE(plan->loud(3, 2));
  EXPECT_FALSE(plan->crashed(3, 9));
  EXPECT_TRUE(plan->permanentlyDead(7, 5));
  EXPECT_DOUBLE_EQ(plan->linkDefaults().drop, 0.10);
  EXPECT_DOUBLE_EQ(plan->linkDefaults().dup, 0.05);
  EXPECT_DOUBLE_EQ(plan->linkDefaults().delay, 0.20);
  EXPECT_EQ(plan->linkDefaults().max_delay, 3);
  EXPECT_DOUBLE_EQ(plan->link(1, 2).drop, 0.9);
  // The override inherited the defaults present when it was parsed.
  EXPECT_DOUBLE_EQ(plan->link(1, 2).dup, 0.05);
  EXPECT_DOUBLE_EQ(plan->missRate(0), 0.05);
  EXPECT_DOUBLE_EQ(plan->missRate(4), 0.5);
}

TEST(FaultPlanParse, BlankAndCommentOnlySpecIsEmpty) {
  const auto plan = FaultPlan::parse("\n# nothing\n\n");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlanParse, RejectsMalformedLinesAndNamesThem) {
  const char* bad[] = {
      "seed",                  // missing value
      "seed 1 2",              // trailing token
      "crash 1 2",             // missing end
      "crash 1 2 1",           // end <= start
      "crash 1 2 x",           // non-integer end
      "crash 1 2 9 quiet",     // unknown modifier
      "drop 1.5",              // probability out of range
      "drop -0.1",             // probability out of range
      "delay 0.5",             // missing max rounds
      "delay 0.5 0",           // max rounds < 1
      "link 1 2 teleport 0.5", // unknown link fault
      "miss 2",                // out of range
      "miss-slot -1 0.5",      // negative slot
      "warp 9",                // unknown directive
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(spec, &err).has_value()) << spec;
    EXPECT_NE(err.find("line 1"), std::string::npos) << spec << " -> " << err;
  }
  // The failing line number names the actual offender.
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("seed 1\nmiss 0.5\nbogus\n", &err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

// --- channel model ----------------------------------------------------------

TEST(ChannelModel, ZeroPlanDeliversEverythingOnTime) {
  FaultPlan plan;
  ChannelModel ch(plan);
  std::vector<int> delays;
  for (int i = 0; i < 100; ++i) {
    delays.clear();
    ch.onSend(0, 1, delays);
    ASSERT_EQ(delays.size(), 1u);
    EXPECT_EQ(delays[0], 0);
  }
}

TEST(ChannelModel, DropRateIsRoughlyHonoredAndDeterministic) {
  FaultPlan plan;
  plan.setSeed(5);
  LinkFaults lf;
  lf.drop = 0.3;
  plan.setLinkDefaults(lf);

  const auto fates = [&plan]() {
    ChannelModel ch(plan);
    std::vector<char> dropped;
    std::vector<int> delays;
    for (int i = 0; i < 2000; ++i) {
      delays.clear();
      ch.onSend(0, 1, delays);
      dropped.push_back(delays.empty() ? 1 : 0);
    }
    return dropped;
  };
  const auto a = fates();
  EXPECT_EQ(a, fates());  // same plan, fresh model: identical fates
  int drops = 0;
  for (const char d : a) drops += d;
  EXPECT_NEAR(static_cast<double>(drops) / static_cast<double>(a.size()), 0.3,
              0.04);
}

TEST(ChannelModel, DuplicatesAndDelaysStayInBounds) {
  FaultPlan plan;
  plan.setSeed(6);
  LinkFaults lf;
  lf.dup = 0.5;
  lf.delay = 0.5;
  lf.max_delay = 3;
  plan.setLinkDefaults(lf);
  ChannelModel ch(plan);
  std::vector<int> delays;
  int dup_seen = 0, delay_seen = 0;
  for (int i = 0; i < 500; ++i) {
    delays.clear();
    ch.onSend(2, 3, delays);
    ASSERT_GE(delays.size(), 1u);  // dup never drops
    ASSERT_LE(delays.size(), 2u);
    dup_seen += delays.size() == 2 ? 1 : 0;
    for (const int d : delays) {
      ASSERT_GE(d, 0);
      ASSERT_LE(d, 3);
      delay_seen += d > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(dup_seen, 0);
  EXPECT_GT(delay_seen, 0);
}

TEST(ChannelModel, NodeDownTracksSlot) {
  FaultPlan plan;
  plan.addCrash(4, 2, 5);
  ChannelModel ch(plan);
  EXPECT_FALSE(ch.nodeDown(4));
  ch.setSlot(3);
  EXPECT_TRUE(ch.nodeDown(4));
  EXPECT_FALSE(ch.nodeDown(5));
  ch.setSlot(5);
  EXPECT_FALSE(ch.nodeDown(4));
}

// --- determinism of the full fault pipeline (satellite: same seed ⇒
// byte-identical fault.* export across runs and thread counts) -------------

std::string faultyRunJson(int threads) {
  const int n = 8;  // independent fault-injected MCS runs, merged in order
  std::vector<obs::MetricsRegistry> regs(static_cast<std::size_t>(n));
  analysis::parallelFor(
      0, n,
      [&regs](int i) {
        const std::uint64_t seed = 100 + static_cast<std::uint64_t>(i);
        core::System sys = test::smallRandomSystem(seed, 14, 120, 50.0);
        FaultPlan plan;
        plan.setSeed(seed);
        plan.addCrash(i % 3, 1, 4 + i % 5, (i % 2) != 0);
        LinkFaults lf;
        lf.drop = 0.15;
        lf.dup = 0.05;
        lf.delay = 0.10;
        lf.max_delay = 2;
        plan.setLinkDefaults(lf);
        plan.setMissRate(0.1);
        ChannelModel ch(plan);

        obs::MetricsRegistry& r = regs[static_cast<std::size_t>(i)];
        dist::ColorwaveScheduler ca(sys, seed);
        ca.attachMetrics(&r);
        ca.attachChannel(&ch);
        sched::McsOptions opt;
        opt.metrics = &r;
        opt.faults = &plan;
        opt.channel = &ch;
        opt.max_slots = 200;
        opt.max_stall = 50;
        (void)sched::runCoveringSchedule(sys, ca, opt);
      },
      threads);
  obs::MetricsRegistry total;
  for (const auto& r : regs) total.merge(r);
  return dumpJson(total);
}

TEST(FaultDeterminism, MetricsExportIsByteIdenticalAcrossRunsAndThreads) {
  const std::string at1 = faultyRunJson(1);
  EXPECT_NE(at1.find("fault.net.dropped"), std::string::npos);
  EXPECT_NE(at1.find("fault.mcs.faulty_slots"), std::string::npos);
  EXPECT_EQ(at1, faultyRunJson(1));  // run-to-run
  EXPECT_EQ(at1, faultyRunJson(4));  // thread-count independence
  EXPECT_EQ(at1, faultyRunJson(7));
}

}  // namespace
}  // namespace rfid::fault
