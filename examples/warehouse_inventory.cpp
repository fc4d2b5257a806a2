// warehouse_inventory — planned installation over shelf aisles.
//
// The paper's introduction motivates multi-reader deployments with retail
// and logistics (Wal-Mart's goods management).  This example models a
// warehouse: ceiling readers on a regular grid, tags concentrated along
// shelf aisles.  It compares the location-aware PTAS against the greedy
// baseline on schedule size, then descends to the link layer to report
// physical air-time (ALOHA vs tree-walking arbitration).
//
//   $ ./examples/warehouse_inventory
#include <iomanip>
#include <iostream>

#include "graph/interference_graph.h"
#include "protocol/slot_timing.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "workload/scenario.h"

int main() {
  using namespace rfid;

  workload::Scenario sc;
  sc.name = "warehouse";
  sc.layout = workload::Layout::kAisles;
  sc.num_aisles = 8;
  sc.aisle_jitter = 0.8;
  sc.deploy.num_readers = 40;
  sc.deploy.num_tags = 900;
  sc.deploy.region_side = 100.0;
  sc.deploy.lambda_R = 12.0;
  sc.deploy.lambda_r = 5.0;
  // Planned installation: readers on a ceiling grid, not random drops.
  sc.layout = workload::Layout::kAisles;  // tags on aisles, readers uniform

  core::System sys = workload::makeSystem(sc, 2024);
  std::cout << "warehouse: " << sys.numReaders() << " readers over "
            << sc.num_aisles << " aisles, " << sys.numTags() << " tags ("
            << sys.unreadCoverableCount() << " coverable)\n\n";

  struct Outcome {
    std::string name;
    sched::McsResult mcs;
    protocol::LinkTimingResult aloha;
    protocol::LinkTimingResult tree;
  };
  std::vector<Outcome> outcomes;
  protocol::LinkOptions aloha_opt;
  aloha_opt.link = protocol::Link::kAloha;
  protocol::LinkOptions tree_opt;
  tree_opt.link = protocol::Link::kTreeWalk;

  {
    sched::PtasScheduler alg1;
    sys.resetReads();
    Outcome o;
    o.name = alg1.name();
    o.mcs = sched::runCoveringSchedule(sys, alg1);
    o.aloha =
        protocol::timeScheduleLink(sys, o.mcs, aloha_opt, workload::Rng(1));
    o.tree =
        protocol::timeScheduleLink(sys, o.mcs, tree_opt, workload::Rng(1));
    outcomes.push_back(std::move(o));
  }
  {
    sched::HillClimbingScheduler ghc;
    sys.resetReads();
    Outcome o;
    o.name = ghc.name();
    o.mcs = sched::runCoveringSchedule(sys, ghc);
    o.aloha =
        protocol::timeScheduleLink(sys, o.mcs, aloha_opt, workload::Rng(1));
    o.tree =
        protocol::timeScheduleLink(sys, o.mcs, tree_opt, workload::Rng(1));
    outcomes.push_back(std::move(o));
  }

  std::cout << std::left << std::setw(7) << "algo" << std::setw(8) << "slots"
            << std::setw(8) << "tags" << std::setw(14) << "aloha_micro"
            << std::setw(14) << "tree_micro" << '\n';
  for (const Outcome& o : outcomes) {
    std::cout << std::setw(7) << o.name << std::setw(8) << o.mcs.slots
              << std::setw(8) << o.mcs.tags_read << std::setw(14)
              << o.aloha.micro_slots << std::setw(14) << o.tree.micro_slots
              << '\n';
  }

  std::cout << "\nslot-by-slot (" << outcomes[0].name << "):\n";
  const auto& schedule = outcomes[0].mcs.schedule;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    std::cout << "  slot " << std::setw(2) << i + 1 << ": "
              << std::setw(2) << schedule[i].active.size() << " readers, "
              << std::setw(3) << schedule[i].tags_read << " tags\n";
  }
  return 0;
}
