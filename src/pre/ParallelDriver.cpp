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

std::vector<Function>
ParallelPreDriver::compileCorpus(const std::vector<CompileTask> &Tasks,
                                 PreStats *MergedStats,
                                 PipelineMetrics *Metrics) {
  std::vector<Function> Results(Tasks.size());
  std::vector<PreStats> StatShards(Tasks.size());
  std::vector<PipelineMetrics> MetricShards(Tasks.size());

  auto CompileOne = [&](size_t I) {
    PreOptions PO = Tasks[I].Opts;
    if (MergedStats)
      PO.Stats = &StatShards[I];
    Results[I] = compileWithFallback(*Tasks[I].Prepared, PO, nullptr,
                                     Metrics ? &MetricShards[I] : nullptr);
  };

  if (Pool)
    Pool->parallelFor(Tasks.size(), CompileOne);
  else
    for (size_t I = 0; I != Tasks.size(); ++I)
      CompileOne(I);

  // Deterministic reduction: shards merge in function order, and merge()
  // itself orders records by (function, expression) key.
  for (size_t I = 0; I != Tasks.size(); ++I) {
    if (MergedStats) {
      StatShards[I].stampFunctionIndex(static_cast<unsigned>(I));
      MergedStats->merge(StatShards[I]);
    }
    if (Metrics)
      Metrics->merge(MetricShards[I]);
  }
  return Results;
}
