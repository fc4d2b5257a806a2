// Microbenchmarks for the one-shot schedulers: cost per scheduling decision
// as the system scales, and the full MCS loop at paper scale.
//
// The BM_OneShot* benchmarks run with NO metrics registry attached — the
// "obs compiled in but unsubscribed" cost (EXPERIMENTS.md).
// BM_OneShotInstrumented runs the same decision with a registry attached and
// reports the work counters (weight evaluations per schedule() call)
// alongside the timing.
#include <benchmark/benchmark.h>

#include <memory>

#include "distributed/growth_distributed.h"
#include "graph/interference_graph.h"
#include "obs/metrics.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "workload/scenario.h"

namespace {

using namespace rfid;

workload::Scenario scaled(int readers) {
  workload::Scenario sc = workload::paperScenario(10.0, 4.0);
  sc.deploy.num_readers = readers;
  sc.deploy.num_tags = readers * 24;
  // Grow the region with the fleet to hold density roughly constant.
  sc.deploy.region_side = 100.0 * std::sqrt(readers / 50.0);
  return sc;
}

void BM_OneShotPtas(benchmark::State& state) {
  const core::System sys = workload::makeSystem(
      scaled(static_cast<int>(state.range(0))), 11);
  sched::PtasScheduler ptas;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ptas.schedule(sys).weight);
  }
}
BENCHMARK(BM_OneShotPtas)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_OneShotGrowth(benchmark::State& state) {
  const core::System sys = workload::makeSystem(
      scaled(static_cast<int>(state.range(0))), 12);
  const graph::InterferenceGraph g(sys);
  sched::GrowthScheduler alg2(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg2.schedule(sys).weight);
  }
}
BENCHMARK(BM_OneShotGrowth)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_OneShotDistributed(benchmark::State& state) {
  const core::System sys = workload::makeSystem(
      scaled(static_cast<int>(state.range(0))), 13);
  const graph::InterferenceGraph g(sys);
  dist::GrowthDistributedScheduler alg3(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg3.schedule(sys).weight);
  }
}
BENCHMARK(BM_OneShotDistributed)->Arg(25)->Arg(50)->Arg(100);

void BM_OneShotGhc(benchmark::State& state) {
  const core::System sys = workload::makeSystem(
      scaled(static_cast<int>(state.range(0))), 14);
  sched::HillClimbingScheduler ghc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ghc.schedule(sys).weight);
  }
}
BENCHMARK(BM_OneShotGhc)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

// One scheduling decision at paper scale with a MetricsRegistry attached:
// arg selects the algorithm.  Reports the scheduler's work counters as
// per-iteration benchmark counters, so algorithms can be compared by how
// many w(X) evaluations a decision costs, not just wall-clock.
void BM_OneShotInstrumented(benchmark::State& state) {
  const core::System sys = workload::makeSystem(scaled(50), 16);
  const graph::InterferenceGraph g(sys);
  std::unique_ptr<sched::OneShotScheduler> scheduler;
  switch (state.range(0)) {
    case 0: scheduler = std::make_unique<sched::PtasScheduler>(); break;
    case 1: scheduler = std::make_unique<sched::GrowthScheduler>(g); break;
    case 2:
      scheduler = std::make_unique<dist::GrowthDistributedScheduler>(g);
      break;
    default: scheduler = std::make_unique<sched::HillClimbingScheduler>(); break;
  }
  state.SetLabel(scheduler->name());
  obs::MetricsRegistry registry;
  scheduler->attachMetrics(&registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler->schedule(sys).weight);
  }
  const double calls = static_cast<double>(
      registry.counter("sched.schedule_calls").value());
  if (calls > 0) {
    state.counters["weight_evals_per_call"] = benchmark::Counter(
        static_cast<double>(registry.counter("sched.weight_evals").value()) /
        calls);
    state.counters["candidates_per_call"] = benchmark::Counter(
        static_cast<double>(registry.counter("sched.candidates").value()) /
        calls);
  }
}
BENCHMARK(BM_OneShotInstrumented)->DenseRange(0, 3);

void BM_FullMcsPaperScale(benchmark::State& state) {
  const workload::Scenario sc = workload::paperScenario(10.0, 4.0);
  for (auto _ : state) {
    core::System sys = workload::makeSystem(sc, 15);
    const graph::InterferenceGraph g(sys);
    sched::GrowthScheduler alg2(g);
    const sched::McsResult res = sched::runCoveringSchedule(sys, alg2);
    benchmark::DoNotOptimize(res.slots);
  }
}
BENCHMARK(BM_FullMcsPaperScale);

}  // namespace

BENCHMARK_MAIN();
