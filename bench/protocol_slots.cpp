// Extension experiment: physical air-time of the covering schedules.
//
// The paper counts macro time-slots and sizes the slot so every active
// reader serves ≥1 tag (§III).  This bench descends to the link layer
// (§II's TTc substrate): each slot costs the micro-slots of its slowest
// reader's tag arbitration — framed ALOHA or deterministic tree-walking —
// turning "slots" into comparable on-air time.  A schedule with fewer
// macro-slots but heavily loaded readers can lose in air-time; this bench
// shows whether the paper's ranking survives the conversion.
#include <iomanip>
#include <iostream>

#include "analysis/stats.h"
#include "distributed/colorwave.h"
#include "distributed/growth_distributed.h"
#include "graph/interference_graph.h"
#include "protocol/slot_timing.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace rfid;
  const int seeds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 10;

  std::cout << "# Extension: link-layer air-time of covering schedules\n"
            << "# 50 readers, 1200 tags, lambda_R=10, lambda_r=4, " << seeds
            << " seeds\n\n";
  std::cout << std::left << std::setw(7) << "algo" << std::setw(12)
            << "macroslots" << std::setw(16) << "aloha_micro"
            << std::setw(16) << "tree_micro" << std::setw(12) << "tags"
            << '\n';

  const workload::Scenario sc = workload::paperScenario(10.0, 4.0);

  struct Row {
    analysis::RunningStat slots, aloha, tree, tags;
  };
  const std::vector<std::string> names = {"Alg1", "Alg2", "Alg3", "CA", "GHC"};
  std::vector<Row> rows(names.size());

  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 8000 + static_cast<std::uint64_t>(s);
    core::System sys = workload::makeSystem(sc, seed);
    const graph::InterferenceGraph g(sys);

    sched::PtasScheduler alg1;
    sched::GrowthScheduler alg2(g);
    dist::GrowthDistributedScheduler alg3(g);
    dist::ColorwaveScheduler ca(sys, seed);
    sched::HillClimbingScheduler ghc;
    const std::vector<sched::OneShotScheduler*> scheds = {&alg1, &alg2, &alg3,
                                                          &ca, &ghc};
    protocol::LinkOptions aloha_opt;
    aloha_opt.link = protocol::Link::kAloha;
    protocol::LinkOptions tree_opt;
    tree_opt.link = protocol::Link::kTreeWalk;
    for (std::size_t i = 0; i < scheds.size(); ++i) {
      sys.resetReads();
      const sched::McsResult mcs = sched::runCoveringSchedule(sys, *scheds[i]);
      const auto aloha = protocol::timeScheduleLink(sys, mcs, aloha_opt,
                                                    workload::Rng(seed));
      const auto tree = protocol::timeScheduleLink(sys, mcs, tree_opt,
                                                   workload::Rng(seed));
      rows[i].slots.add(mcs.slots);
      rows[i].aloha.add(static_cast<double>(aloha.micro_slots));
      rows[i].tree.add(static_cast<double>(tree.micro_slots));
      rows[i].tags.add(mcs.tags_read);
    }
  }

  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cout << std::setw(7) << names[i] << std::setw(12) << std::fixed
              << std::setprecision(1) << rows[i].slots.mean() << std::setw(16)
              << std::setprecision(0) << rows[i].aloha.mean() << std::setw(16)
              << rows[i].tree.mean() << std::setw(12) << std::setprecision(1)
              << rows[i].tags.mean() << '\n';
  }
  std::cout << "\n# Expected: the macro-slot ranking (Alg1 best) persists in "
               "air-time; tree-walking is deterministic and usually cheaper "
               "than ALOHA at these densities.\n";
  return 0;
}
