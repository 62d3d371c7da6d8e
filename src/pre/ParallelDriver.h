//===- pre/ParallelDriver.h - Parallel PRE pipeline ------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel compilation pipeline: independent functions compile
/// concurrently on a thread pool (support/ThreadPool.h), one task per
/// function. Each task runs the one PRE driver (compileWithFallback
/// in pre/PreDriver.h) exactly as a serial compile would; statistics
/// and metrics go to per-task shards, stamped with the function index
/// and merged in (function, expression) order, so the merged results
/// equal the serial sequence exactly. With Jobs=1 there is no pool and
/// the tasks run in order on the calling thread.
///
/// The determinism guarantee — `--jobs=N` produces bit-identical IR and
/// PreStats to `--jobs=1` — is asserted over the generated corpus by
/// tests/parallel_driver_test.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_PARALLELDRIVER_H
#define SPECPRE_PRE_PARALLELDRIVER_H

#include "pre/PreDriver.h"
#include "support/PassTimer.h"

#include <memory>
#include <vector>

namespace specpre {

class ThreadPool;

struct ParallelConfig {
  /// Total worker count (the calling thread included); 1 = serial,
  /// 0 = one worker per hardware thread.
  unsigned Jobs = 1;
};

/// One function's compilation request for compileCorpus.
struct CompileTask {
  const Function *Prepared = nullptr; ///< prepared, non-SSA (see prepareFunction)
  /// Opts.Stats, when set, receives this function's records and outcome
  /// unless compileCorpus collects merged statistics instead.
  PreOptions Opts;
};

class ParallelPreDriver {
public:
  explicit ParallelPreDriver(const ParallelConfig &Config);
  ~ParallelPreDriver();

  unsigned jobs() const;

  /// Compiles a whole corpus, one pool task per function, each through
  /// compileWithFallback: one failing function degrades (worst case to
  /// identity) without taking down the batch or perturbing any other
  /// task's output. Results are positionally aligned with \p Tasks.
  /// \p MergedStats, when set, receives every function's records merged
  /// in (function, expression) order — bit-identical to a serial loop
  /// over compileWithFallback — in place of each task's Opts.Stats.
  /// \p Metrics, when set, receives every task's step timings and
  /// robustness counters.
  std::vector<Function> compileCorpus(const std::vector<CompileTask> &Tasks,
                                      PreStats *MergedStats,
                                      PipelineMetrics *Metrics = nullptr);

private:
  ParallelConfig Config;
  std::unique_ptr<ThreadPool> Pool;
};

} // namespace specpre

#endif // SPECPRE_PRE_PARALLELDRIVER_H
