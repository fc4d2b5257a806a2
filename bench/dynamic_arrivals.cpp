// Extension: dynamic tag arrivals.  The paper notes (§VII) that prior work
// assumes a static tag population; this bench measures how the schedulers
// behave when tags stream in — service latency, peak backlog, and stream
// length vs arrival rate — comparing the centralized location-free
// algorithm against the greedy baseline.  Each run is the streaming driver
// (sched/streaming.h) fed an arrivals-only churn trace over a floor that
// starts empty.
#include <iomanip>
#include <iostream>

#include "analysis/stats.h"
#include "graph/interference_graph.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/streaming.h"
#include "workload/deployment.h"

int main(int argc, char** argv) {
  using namespace rfid;
  const int seeds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 10;

  std::cout << "# Extension: dynamic tag arrivals (rate sweep)\n"
            << "# 50 readers, 100x100, lambda_R=10, lambda_r=4; arrivals for "
               "40 slots, then drain; " << seeds << " seeds\n"
            << "# backlog = peak unread coverable tags before a slot's "
               "service; slots = stream clock (busy + idle)\n\n";
  std::cout << std::left << std::setw(7) << "rate" << std::setw(8) << "algo"
            << std::setw(12) << "latency" << std::setw(12) << "backlog"
            << std::setw(12) << "slots" << std::setw(10) << "drained"
            << '\n';

  workload::DeploymentConfig deploy;
  deploy.num_readers = 50;
  deploy.region_side = 100.0;
  deploy.lambda_R = 10.0;
  deploy.lambda_r = 4.0;
  sched::StreamingOptions opt;
  opt.max_slots = 40 + 400;  // arrival slots + drain slots

  for (const double rate : {10.0, 20.0, 40.0, 80.0}) {
    workload::ChurnConfig churn;
    churn.arrival_rate = rate;
    churn.slots = 40;
    churn.region_side = deploy.region_side;

    struct Row {
      analysis::RunningStat latency, backlog, slots;
      int drained = 0;
    } alg2_row, ghc_row;
    const auto record = [](Row& row, const sched::StreamingResult& res) {
      row.latency.add(res.latency_mean);
      row.backlog.add(res.backlog_peak);
      row.slots.add(res.stream_slots);
      row.drained += res.drained;
    };

    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 9500 + static_cast<std::uint64_t>(s);
      const workload::ChurnTrace trace = workload::makeChurnTrace(churn, 0, seed);
      const auto empty_floor = [&] {
        return core::System(
            workload::uniformReaders(deploy, workload::Rng(seed).split("readers")),
            {});
      };
      {
        core::System sys = empty_floor();
        const graph::InterferenceGraph g(sys);
        sched::GrowthScheduler alg2(g);
        record(alg2_row, sched::runStreamingMcs(sys, alg2, trace, opt));
      }
      {
        core::System sys = empty_floor();
        sched::HillClimbingScheduler ghc;
        record(ghc_row, sched::runStreamingMcs(sys, ghc, trace, opt));
      }
    }
    auto print = [&](const char* name, const Row& r) {
      std::cout << std::setw(7) << std::fixed << std::setprecision(0) << rate
                << std::setw(8) << name << std::setw(12)
                << std::setprecision(2) << r.latency.mean() << std::setw(12)
                << std::setprecision(1) << r.backlog.mean() << std::setw(12)
                << r.slots.mean() << std::setw(10)
                << (std::to_string(r.drained) + "/" + std::to_string(seeds))
                << '\n';
    };
    print("Alg2", alg2_row);
    print("GHC", ghc_row);
  }
  std::cout << "\n# Expected: latency and backlog grow with the rate; the "
               "weight-aware scheduler keeps both lower than the baseline "
               "as pressure rises.\n";
  return 0;
}
