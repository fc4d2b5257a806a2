// Ablation: multi-channel operation (paper §VII's dense-mode / k-coloring
// discussion).  With C channels, interfering readers can transmit
// concurrently on different frequencies (RTc is per-channel), but RRc at
// tags persists.  Sweeps C and reports one-shot weight and covering
// schedule size: weight should climb and saturate once RRc binds; the
// schedule should shrink accordingly.
#include <iomanip>
#include <iostream>

#include "analysis/stats.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace rfid;
  const int seeds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 10;

  std::cout << "# Ablation: number of channels (Section VII discussion)\n"
            << "# 50 readers, 1200 tags, lambda_R=10, lambda_r=4, " << seeds
            << " seeds; greedy channel-aware scheduler\n\n";
  std::cout << std::left << std::setw(10) << "channels" << std::setw(14)
            << "oneshot_w" << std::setw(12) << "mcs_slots" << '\n';

  const workload::Scenario sc = workload::paperScenario(10.0, 4.0);
  for (const int channels : {1, 2, 3, 4, 8}) {
    analysis::RunningStat weight, slots;
    for (int s = 0; s < seeds; ++s) {
      core::System sys = workload::makeSystem(sc, 9000 + static_cast<std::uint64_t>(s));
      sched::MultiChannelScheduler mc(sched::ChannelOptions{channels});
      weight.add(mc.schedule(sys).weight);
      sys.resetReads();
      sched::MultiChannelScheduler mc2(sched::ChannelOptions{channels});
      slots.add(sched::runCoveringSchedule(sys, mc2).slots);
    }
    std::cout << std::setw(10) << channels << std::setw(14) << std::fixed
              << std::setprecision(1) << weight.mean() << std::setw(12)
              << std::setprecision(2) << slots.mean() << '\n';
  }
  std::cout << "\n# Expected: weight rises with C then saturates (RRc "
               "becomes the binding constraint); slots shrink in kind.\n";
  return 0;
}
