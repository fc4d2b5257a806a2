// Extension experiment: Gen2 link-layer variants on a fixed MCS schedule.
//
// PR10's seconds-denominated objective: schedule one covering schedule per
// deployment (Alg2), then replay it under every link model — unit cost,
// framed ALOHA, tree-walking, and EPC Gen2 with session / policy / MPR
// variations.  The schedule is identical across variants, so differences
// are pure link-layer physics: sessions decide whether already-read tags
// burn air-time, MPR(k≥2) resolves k-occupancy collisions in one
// micro-slot and must shorten the schedule versus baseline Gen2.
//
// Machine-readable `gen2point` lines become the gen2/<variant>/<seed>
// points of BENCH_HISTORY.json; tools/bench_compare.py gates every field
// by exact match.
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "graph/interference_graph.h"
#include "protocol/gen2.h"
#include "protocol/slot_timing.h"
#include "sched/growth.h"
#include "sched/mcs.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace rfid;
  const int seeds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 2;

  std::cout << "# Extension: Gen2 link variants on a fixed Alg2 MCS schedule\n"
            << "# 50 readers, 1200 tags, lambda_R=10, lambda_r=4, " << seeds
            << " seeds\n\n";

  struct Variant {
    const char* name;
    protocol::LinkOptions lo;
  };
  std::vector<Variant> variants;
  {
    Variant v;
    v.name = "aloha";
    v.lo.link = protocol::Link::kAloha;
    variants.push_back(v);
    v.name = "tree";
    v.lo.link = protocol::Link::kTreeWalk;
    variants.push_back(v);
    v.name = "gen2-s2";  // baseline Gen2: S2, Q-algorithm, no MPR
    v.lo = {};
    v.lo.link = protocol::Link::kGen2;
    variants.push_back(v);
    v.name = "gen2-s0";
    v.lo.gen2.session = protocol::Gen2Session::kS0;
    variants.push_back(v);
    v.name = "gen2-s1";
    v.lo.gen2.session = protocol::Gen2Session::kS1;
    variants.push_back(v);
    v.name = "gen2-afsa";
    v.lo.gen2 = {};
    v.lo.gen2.policy = protocol::Gen2Policy::kAfsa;
    variants.push_back(v);
    v.name = "gen2-mpr2";
    v.lo.gen2 = {};
    v.lo.gen2.mpr_k = 2;
    variants.push_back(v);
    v.name = "gen2-mpr4";
    v.lo.gen2.mpr_k = 4;
    variants.push_back(v);
  }

  const workload::Scenario sc = workload::paperScenario(10.0, 4.0);
  std::cout << std::left << std::setw(11) << "variant" << std::setw(7)
            << "seed" << std::setw(13) << "air_s" << std::setw(13)
            << "serial_s" << std::setw(10) << "micro" << std::setw(7)
            << "macro" << std::setw(7) << "tags" << std::setw(8) << "skips"
            << '\n';

  std::int64_t base_air = 0, mpr2_air = 0, mpr4_air = 0;
  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 8100 + static_cast<std::uint64_t>(s);
    core::System sys = workload::makeSystem(sc, seed);
    const graph::InterferenceGraph g(sys);
    sched::GrowthScheduler alg2(g);
    sys.resetReads();
    const sched::McsResult mcs = sched::runCoveringSchedule(sys, alg2);

    for (const Variant& v : variants) {
      const protocol::LinkTimingResult lt = protocol::timeScheduleLink(
          sys, mcs, v.lo, workload::Rng(seed).split("link"));
      const std::string name(v.name);
      if (name == "gen2-s2") base_air += lt.air_us;
      if (name == "gen2-mpr2") mpr2_air += lt.air_us;
      if (name == "gen2-mpr4") mpr4_air += lt.air_us;
      std::cout << std::setw(11) << v.name << std::setw(7) << seed
                << std::setw(13) << std::fixed << std::setprecision(6)
                << static_cast<double>(lt.air_us) / 1e6 << std::setw(13)
                << static_cast<double>(lt.air_us_serial) / 1e6
                << std::setw(10) << lt.micro_slots << std::setw(7)
                << lt.macro_slots << std::setw(7) << lt.tags_read
                << std::setw(8) << lt.session_skips
                << (lt.check_ok ? "" : "  CHECK-FAIL") << '\n';
      // Machine-readable point for tools/bench_compare.py.
      std::cout << "gen2point variant=" << v.name << " seed=" << seed
                << " air_us=" << lt.air_us << " serial_us=" << lt.air_us_serial
                << " micro=" << lt.micro_slots << " macro=" << lt.macro_slots
                << " tags=" << lt.tags_read << " skips=" << lt.session_skips
                << " double_id=" << lt.double_identifications
                << " check=" << (lt.check_ok ? 1 : 0) << '\n';
    }
    std::cout << '\n';
  }

  std::cout << "# MPR ablation (sum over seeds): baseline=" << base_air
            << "us mpr2=" << mpr2_air << "us mpr4=" << mpr4_air << "us\n";
  const bool mpr_wins = mpr2_air < base_air && mpr4_air <= mpr2_air;
  std::cout << (mpr_wins ? "# PASS: MPR(k>=2) shortens the schedule\n"
                         : "# FAIL: MPR did not shorten the schedule\n");
  return mpr_wins ? 0 : 1;
}
