// Scalability study: the paper motivates its distributed design with
// "large scale RFID systems" — this bench measures how every scheduler's
// wall time and quality scale with fleet size n at constant density
// (region grows with √n), plus the distributed algorithm's communication
// bill, which is the real cost of having no central entity.
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>

#include "analysis/stats.h"
#include "obs/metrics.h"
#include "distributed/growth_distributed.h"
#include "graph/interference_graph.h"
#include "protocol/slot_timing.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "workload/scenario.h"

namespace {

/// Full covering-schedule runs at production scale (n >= 1000).  This is the
/// hot path the perf history (BENCH_HISTORY.json, tools/bench_compare.py)
/// tracks: wall time covers runCoveringSchedule only — deployment generation
/// and graph construction are excluded, so before/after numbers isolate the
/// scheduling kernels.  Only default-constructed schedulers are used, so the
/// section compiles (and means the same thing) against any library version.
void mcsSection(int seeds) {
  using namespace rfid;
  std::cout << "\n# MCS covering schedule at scale (constant density, "
            << seeds << " seed(s); ms per full run)\n";
  std::cout << std::left << std::setw(7) << "n" << std::setw(7) << "algo"
            << std::setw(8) << "slots" << std::setw(9) << "tags"
            << std::setw(12) << "ms" << '\n';
  for (const int n : {1000, 2000, 4000}) {
    workload::Scenario sc = workload::paperScenario(10.0, 4.0);
    sc.deploy.num_readers = n;
    sc.deploy.num_tags = n * 24;
    sc.deploy.region_side = 100.0 * std::sqrt(n / 50.0);

    for (const char* algo : {"alg2", "ghc"}) {
      analysis::RunningStat slots, tags, ms;
      for (int s = 0; s < seeds; ++s) {
        core::System sys =
            workload::makeSystem(sc, 77000 + static_cast<std::uint64_t>(s));
        const graph::InterferenceGraph g(sys);
        sched::GrowthScheduler alg2(g);
        sched::HillClimbingScheduler ghc;
        sched::OneShotScheduler& sch =
            algo[0] == 'a' ? static_cast<sched::OneShotScheduler&>(alg2)
                           : static_cast<sched::OneShotScheduler&>(ghc);
        const auto t0 = std::chrono::steady_clock::now();
        const sched::McsResult res = sched::runCoveringSchedule(sys, sch);
        const auto t = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        slots.add(res.slots);
        tags.add(res.tags_read);
        ms.add(t);
      }
      std::cout << std::setw(7) << n << std::setw(7) << algo << std::fixed
                << std::setprecision(1) << std::setw(8) << slots.mean()
                << std::setw(9) << std::setprecision(0) << tags.mean()
                << std::setw(12) << std::setprecision(2) << ms.mean() << '\n';
    }
  }
}

/// Peak resident set in MiB from /proc/self/status (VmHWM); 0 when the
/// platform has no procfs.
double peakRssMib() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Large-scale sweep (--large): full alg2 MCS up to n=100k readers / m=1M
/// tags, one run per point (all three take 1.2-1.6 s of wall on a 4-core
/// Xeon), then a Gen2 replay of the schedule (protocol::timeScheduleLink).
/// Emits one machine-parseable line per point — MCS and replay wall, peak
/// RSS, the referee/selection work counters, and the replay's frames and
/// air-time — which tools/bench_compare.py records as the large/n<n>
/// points of BENCH_HISTORY.json and gates.  Returns false if a replay
/// fails its self-checks.
bool largeSection() {
  using namespace rfid;
  std::cout << "\n# Large-scale MCS (alg2; one seed per point; "
               "wall includes scheduling only, link the Gen2 replay)\n";
  struct Point {
    int n;
    int tags_per_reader;
  };
  for (const Point pt : {Point{20000, 10}, Point{50000, 10}, Point{100000, 10}}) {
    workload::Scenario sc = workload::paperScenario(10.0, 4.0);
    sc.deploy.num_readers = pt.n;
    sc.deploy.num_tags = static_cast<long long>(pt.n) * pt.tags_per_reader >
                                 std::numeric_limits<int>::max()
                             ? std::numeric_limits<int>::max()
                             : pt.n * pt.tags_per_reader;
    sc.deploy.region_side = 100.0 * std::sqrt(pt.n / 50.0);

    const auto tb0 = std::chrono::steady_clock::now();
    core::System sys = workload::makeSystem(sc, 99000);
    const graph::InterferenceGraph g(sys);
    const double build_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - tb0)
                                .count();

    obs::MetricsRegistry reg;
    sys.attachMetrics(&reg);
    sched::GrowthScheduler alg2(g);
    alg2.attachMetrics(&reg);
    const auto t0 = std::chrono::steady_clock::now();
    const sched::McsResult res = sched::runCoveringSchedule(sys, alg2);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    protocol::LinkOptions lo;
    lo.link = protocol::Link::kGen2;
    const auto tl0 = std::chrono::steady_clock::now();
    const protocol::LinkTimingResult lt = protocol::timeScheduleLink(
        sys, res, lo, workload::Rng(99000).split("link"));
    const double link_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - tl0)
                               .count();
    if (!lt.check_ok) {
      std::cerr << "large n=" << pt.n << ": " << lt.check_detail << '\n';
      return false;
    }
    std::cout << "large n=" << pt.n << " m=" << sc.deploy.num_tags
              << " algo=alg2 slots=" << res.slots << " tags=" << res.tags_read
              << " completed=" << (res.completed ? 1 : 0) << std::fixed
              << std::setprecision(1) << " build_ms=" << build_ms
              << " wall_ms=" << wall_ms << " rss_mib=" << peakRssMib()
              << " weight_evals=" << reg.counter("core.weight_evals").value()
              << " work_units=" << reg.counter("sched.weight_evals").value()
              << " link_ms=" << link_ms << " gen2_frames=" << lt.frames
              << " gen2_air_us=" << lt.air_us << '\n';
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rfid;
  if (argc > 1 && std::strcmp(argv[1], "--large") == 0) {
    return largeSection() ? 0 : 1;
  }
  const int seeds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 5;

  std::cout << "# Scaling study: one-shot scheduling vs fleet size n\n"
            << "# density held constant (region side = 100*sqrt(n/50)); "
            << seeds << " seeds; times in ms per decision\n\n";
  std::cout << std::left << std::setw(6) << "n" << std::setw(11) << "w(Alg1)"
            << std::setw(10) << "ms" << std::setw(11) << "w(Alg2)"
            << std::setw(10) << "ms" << std::setw(11) << "w(Alg3)"
            << std::setw(10) << "ms" << std::setw(12) << "msgs(Alg3)"
            << std::setw(11) << "w(GHC)" << '\n';

  for (const int n : {25, 50, 100, 200, 400}) {
    workload::Scenario sc = workload::paperScenario(10.0, 4.0);
    sc.deploy.num_readers = n;
    sc.deploy.num_tags = n * 24;
    sc.deploy.region_side = 100.0 * std::sqrt(n / 50.0);

    analysis::RunningStat w1, t1, w2, t2, w3, t3, msgs, wg;
    for (int s = 0; s < seeds; ++s) {
      const core::System sys =
          workload::makeSystem(sc, 11000 + static_cast<std::uint64_t>(s));
      const graph::InterferenceGraph g(sys);

      auto timed = [](auto&& fn) {
        const auto t0 = std::chrono::steady_clock::now();
        const int w = fn();
        const auto t = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        return std::pair<int, double>(w, t);
      };

      sched::PtasScheduler alg1;
      const auto [rw1, rt1] = timed([&] { return alg1.schedule(sys).weight; });
      w1.add(rw1);
      t1.add(rt1);

      sched::GrowthScheduler alg2(g);
      const auto [rw2, rt2] = timed([&] { return alg2.schedule(sys).weight; });
      w2.add(rw2);
      t2.add(rt2);

      dist::GrowthDistributedScheduler alg3(g);
      const auto [rw3, rt3] = timed([&] { return alg3.schedule(sys).weight; });
      w3.add(rw3);
      t3.add(rt3);
      msgs.add(static_cast<double>(alg3.lastStats().messages));

      sched::HillClimbingScheduler ghc;
      wg.add(ghc.schedule(sys).weight);
    }
    std::cout << std::setw(6) << n << std::fixed << std::setprecision(1)
              << std::setw(11) << w1.mean() << std::setw(10) << t1.mean()
              << std::setw(11) << w2.mean() << std::setw(10) << t2.mean()
              << std::setw(11) << w3.mean() << std::setw(10) << t3.mean()
              << std::setw(12) << std::setprecision(0) << msgs.mean()
              << std::setw(11) << std::setprecision(1) << wg.mean() << '\n';
  }
  std::cout << "\n# Expected: weights scale ~linearly with n at constant "
               "density; Alg2/Alg3 times stay near-linear (local "
               "neighborhoods), message cost grows with n and degree.\n";

  mcsSection(std::min(seeds, 2));
  return 0;
}
