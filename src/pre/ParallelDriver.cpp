//===- pre/ParallelDriver.cpp - Parallel PRE pipeline -------------------------===//

#include "pre/ParallelDriver.h"

#include "support/ThreadPool.h"

using namespace specpre;

ParallelPreDriver::ParallelPreDriver(const ParallelConfig &Config)
    : Config(Config) {
  unsigned Jobs =
      Config.Jobs ? Config.Jobs : ThreadPool::hardwareWorkers();
  this->Config.Jobs = Jobs;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);
}

ParallelPreDriver::~ParallelPreDriver() = default;

unsigned ParallelPreDriver::jobs() const { return Config.Jobs; }

Function ParallelPreDriver::compileFunction(const Function &Prepared,
                                            const PreOptions &Opts,
                                            PipelineMetrics *Metrics) {
  return compileWithPre(Prepared, Opts, Pool.get(), Metrics);
}

Function ParallelPreDriver::compileFunctionWithFallback(
    const Function &Prepared, const PreOptions &Opts, PipelineMetrics *Metrics,
    CompileOutcomeRecord *OutcomeOut) {
  return compileWithFallback(Prepared, Opts, OutcomeOut, Pool.get(), Metrics);
}

std::vector<Function>
ParallelPreDriver::compileCorpus(const std::vector<CompileTask> &Tasks,
                                 PreStats *MergedStats,
                                 PipelineMetrics *Metrics) {
  std::vector<Function> Results(Tasks.size());
  std::vector<PreStats> StatShards(Tasks.size());
  std::vector<PipelineMetrics> MetricShards(Tasks.size());

  auto CompileOne = [&](size_t I) {
    PreOptions PO = Tasks[I].Opts;
    PO.Stats = MergedStats ? &StatShards[I] : nullptr;
    Results[I] = compileFunctionWithFallback(
        *Tasks[I].Prepared, PO, Metrics ? &MetricShards[I] : nullptr);
    if (PO.Stats)
      PO.Stats->stampFunctionIndex(static_cast<unsigned>(I));
  };

  if (Pool)
    Pool->parallelFor(Tasks.size(), CompileOne);
  else
    for (size_t I = 0; I != Tasks.size(); ++I)
      CompileOne(I);

  // Deterministic reduction: shards merge in function order, and merge()
  // itself orders records by (function, expression) key.
  for (size_t I = 0; I != Tasks.size(); ++I) {
    if (MergedStats)
      MergedStats->merge(StatShards[I]);
    if (Metrics)
      Metrics->merge(MetricShards[I]);
  }
  return Results;
}
