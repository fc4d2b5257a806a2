// parallel.h — deterministic parallel sweeps.
//
// Experiment sweeps are embarrassingly parallel across seeds, and the
// library is built so parallelism cannot change results: every iteration
// derives its RNG by splitting (seed, label, index) — independent of
// execution order — and writes to its own output slot; accumulation happens
// afterwards, sequentially.  parallelFor is the minimal tool for that
// pattern: static block partitioning, one thread per block, join, first
// exception rethrown.
//
// The same discipline now also carries the scheduler hot paths (parallel
// PTAS shifts, growth-phase subproblems — docs/performance.md): those run
// thousands of small iterations per second, so the callable is a template
// parameter (no std::function allocation per call) and the chunked variant
// hands each worker a whole [lo, hi) block plus its worker index, letting
// callers keep per-worker scratch state without thread_local.
//
// (On a single-core CI box this degrades to a plain loop; the point is the
// *discipline* — results are bit-identical at any thread count.)
#pragma once

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace rfid::analysis {

/// Runs fn(worker, lo, hi) for a static partition of [begin, end) into up to
/// `num_threads` contiguous chunks (0 = hardware concurrency).  `worker` is
/// the chunk index, dense in [0, chunks); chunk boundaries depend only on
/// (begin, end, resolved thread count), never on scheduling.  Blocks until
/// all chunks finish.  If any chunk throws, the first exception (in worker
/// order) is rethrown after the join; other workers still run to completion.
///
/// fn must be safe to call concurrently for distinct chunks — the intended
/// use writes each result to its own pre-sized slot, keyed by iteration
/// index or worker index.
template <typename Fn>
void parallelForChunks(int begin, int end, Fn&& fn, int num_threads = 0) {
  const int n = end - begin;
  if (n <= 0) return;
  int threads = num_threads > 0
                    ? num_threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  threads = std::clamp(threads, 1, n);

  const int chunk = (n + threads - 1) / threads;
  if (threads == 1) {
    fn(0, begin, end);
    return;
  }

  // Static block partition: worker t handles [begin + t*chunk, ...).
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    const int lo = begin + t * chunk;
    const int hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    pool.emplace_back([lo, hi, t, &fn, &errors]() {
      try {
        fn(t, lo, hi);
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Runs fn(i) for every i in [begin, end), distributed over up to
/// `num_threads` threads (0 = hardware concurrency).  Same contract as
/// parallelForChunks with the chunk loop inlined; the callable is a
/// template parameter, so tight per-index lambdas are invoked directly
/// (no std::function indirection on the hot path).
template <typename Fn>
void parallelFor(int begin, int end, Fn&& fn, int num_threads = 0) {
  parallelForChunks(
      begin, end,
      [&fn](int /*worker*/, int lo, int hi) {
        for (int i = lo; i < hi; ++i) fn(i);
      },
      num_threads);
}

}  // namespace rfid::analysis
