//===- pre/ParallelDriver.h - Parallel PRE pipeline ------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel compilation pipeline. Two levels of fan-out over a
/// work-stealing pool (support/ThreadPool.h):
///
///  * corpus level — independent functions compile concurrently, each
///    accumulating into a private PreStats shard; shards are stamped
///    with the function index and merged in (function, expression)
///    order, so the merged records equal the serial sequence exactly;
///
///  * expression level — within one function, the per-expression
///    placement analyses run concurrently against the pre-motion
///    function and are committed serially in candidate order. That is
///    the one PRE driver (runPre in pre/PreDriver.h) handed this
///    driver's pool; docs/PARALLELISM.md argues why it is sound.
///
/// With Jobs=1 there is no pool and the driver is exactly the serial
/// pipeline.
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
  PreOptions Opts; ///< Opts.Stats is ignored; stats are sharded internally.
};

class ParallelPreDriver {
public:
  explicit ParallelPreDriver(const ParallelConfig &Config);
  ~ParallelPreDriver();

  unsigned jobs() const;

  /// compileWithPre over this driver's pool. \p Metrics, when set,
  /// receives the pipeline step timings of this compile.
  Function compileFunction(const Function &Prepared, const PreOptions &Opts,
                           PipelineMetrics *Metrics = nullptr);

  /// compileWithFallback over this driver's pool: the degradation
  /// ladder, the cache protocol and the robustness counters of
  /// \p Metrics. With no failure the result, stats and metrics are
  /// bit-identical to compileFunction.
  Function
  compileFunctionWithFallback(const Function &Prepared, const PreOptions &Opts,
                              PipelineMetrics *Metrics = nullptr,
                              CompileOutcomeRecord *OutcomeOut = nullptr);

  /// Compiles a whole corpus, fanning functions (and expressions within
  /// them) across the pool. Results are positionally aligned with
  /// \p Tasks. \p MergedStats, when set, receives every function's
  /// records merged in (function, expression) order — bit-identical to
  /// a serial loop over compileWithPre.
  ///
  /// Each task compiles through compileFunctionWithFallback, so one
  /// failing function degrades (worst case to identity) without taking
  /// down the batch or perturbing any other task's output.
  std::vector<Function> compileCorpus(const std::vector<CompileTask> &Tasks,
                                      PreStats *MergedStats,
                                      PipelineMetrics *Metrics = nullptr);

private:
  ParallelConfig Config;
  std::unique_ptr<ThreadPool> Pool;
};

} // namespace specpre

#endif // SPECPRE_PRE_PARALLELDRIVER_H
