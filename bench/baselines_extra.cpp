// Extended baseline comparison: adds the HiQ Q-learning allocator ([14])
// and the multi-channel greedy to the paper's CA/GHC baselines, on both
// metrics, at the paper's scale.  One table, six algorithms.
#include <iomanip>
#include <iostream>

#include "analysis/stats.h"
#include "distributed/colorwave.h"
#include "graph/interference_graph.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/pruning.h"
#include "sched/ptas.h"
#include "sched/qlearning.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace rfid;
  const int seeds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 10;

  std::cout << "# Extended baselines at paper scale (50 readers, 1200 tags, "
               "lambda_R=10, lambda_r=4), " << seeds << " seeds\n\n";
  std::cout << std::left << std::setw(8) << "algo" << std::setw(14)
            << "oneshot_w" << std::setw(12) << "mcs_slots" << '\n';

  const workload::Scenario sc = workload::paperScenario(10.0, 4.0);
  struct Row {
    analysis::RunningStat w, slots;
  };
  const std::vector<std::string> names = {"Alg1", "Alg2",     "GHC", "CA",
                                          "HiQ",  "CA+prune", "MC2"};
  std::vector<Row> rows(names.size());

  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 12000 + static_cast<std::uint64_t>(s);
    core::System sys = workload::makeSystem(sc, seed);
    const graph::InterferenceGraph g(sys);

    sched::PtasScheduler alg1;
    sched::GrowthScheduler alg2(g);
    sched::HillClimbingScheduler ghc;
    dist::ColorwaveScheduler ca(sys, seed);
    sched::QLearningScheduler hiq(seed);
    sched::MultiChannelScheduler mc2(sched::ChannelOptions{2});

    // Pruning overlay: Colorwave's class, re-selected by marginal weight —
    // isolates how much of CA's gap is weight-blindness vs TDMA structure.
    sched::PruningWrapper ca_pruned(
        std::make_unique<dist::ColorwaveScheduler>(sys, seed));

    // MC2's proposals carry their channels, so the MCS referee scores it
    // in the channeled model (cross-channel interference is legal there).
    const std::vector<sched::OneShotScheduler*> all = {
        &alg1, &alg2, &ghc, &ca, &hiq, &ca_pruned, &mc2};
    for (std::size_t i = 0; i < all.size(); ++i) {
      sys.resetReads();
      rows[i].w.add(all[i]->schedule(sys).weight);
      sys.resetReads();
      rows[i].slots.add(sched::runCoveringSchedule(sys, *all[i]).slots);
    }
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cout << std::setw(8) << names[i] << std::fixed << std::setw(14)
              << std::setprecision(1) << rows[i].w.mean() << std::setw(12)
              << std::setprecision(2) << rows[i].slots.mean() << '\n';
  }
  std::cout << "\n# Expected ranking: Alg1/Alg2 lead; MC2 tops raw one-shot "
               "weight (extra spectrum is a resource the single-channel "
               "algorithms don't have); HiQ lands near CA.  CA+prune "
               "typically equals CA: a converged color class rarely holds "
               "negative-marginal members, so the baseline's gap is "
               "structural (weight-blind class FORMATION), not post-hoc "
               "fixable.\n";
  return 0;
}
