// dynamic_arrivals — a dock door receiving pallets all morning.
//
// Tags stream into the reader field (Poisson arrivals) while the scheduler
// keeps running one slot at a time.  Watch the backlog breathe: it rises
// while trucks unload and drains once arrivals stop.  This is the dynamic
// setting the paper points out prior work ignored (§VII).  The run is the
// streaming driver fed an arrivals-only churn trace over an empty floor.
//
//   $ ./examples/dock_door_arrivals
#include <iomanip>
#include <iostream>

#include "graph/interference_graph.h"
#include "sched/growth.h"
#include "sched/streaming.h"
#include "workload/deployment.h"

int main() {
  using namespace rfid;

  workload::DeploymentConfig deploy;
  deploy.num_readers = 30;
  deploy.region_side = 80.0;
  deploy.lambda_R = 10.0;
  deploy.lambda_r = 5.0;
  workload::ChurnConfig churn;
  churn.arrival_rate = 25.0;  // tags per slot while unloading
  churn.slots = 20;
  churn.region_side = deploy.region_side;

  const std::uint64_t seed = 321;
  core::System sys(
      workload::uniformReaders(deploy, workload::Rng(seed).split("readers")),
      {});
  const workload::ChurnTrace trace = workload::makeChurnTrace(churn, 0, seed);
  const int arriving = static_cast<int>(trace.events.size());
  std::cout << "dock door: " << sys.numReaders() << " readers; " << arriving
            << " tags will arrive over " << churn.slots << " slots\n\n";

  const graph::InterferenceGraph g(sys);
  sched::GrowthScheduler alg2(g);
  // The backlog left after each busy slot, read from the commit hook.
  std::vector<int> backlog;
  int last_arrival_slot = -1;  // first busy slot with every tag arrived
  sched::StreamingOptions opt;
  opt.on_commit = [&](int slot, std::span<const int>, std::span<const int>) {
    backlog.push_back(sys.unreadCoverableCount());
    if (last_arrival_slot < 0 && sys.numTags() == arriving) {
      last_arrival_slot = slot;
    }
  };
  const sched::StreamingResult res =
      sched::runStreamingMcs(sys, alg2, trace, opt);

  std::cout << "backlog per slot (unread coverable tags in the field):\n";
  for (int s = 0; s < static_cast<int>(backlog.size()); ++s) {
    const int b = backlog[static_cast<std::size_t>(s)];
    std::cout << "  slot " << std::setw(3) << s + 1 << " |";
    for (int i = 0; i < b; i += 4) std::cout << '#';
    std::cout << ' ' << b << (s == last_arrival_slot ? "   <- last arrivals" : "")
              << '\n';
  }
  std::cout << "\nserved " << res.tags_read << '/'
            << res.arrived - res.uncoverable << " coverable tags, mean latency "
            << std::fixed << std::setprecision(2) << res.latency_mean
            << " slots, peak backlog " << res.backlog_peak
            << (res.drained ? ", floor clean." : ", backlog remains!") << '\n';
  return 0;
}
