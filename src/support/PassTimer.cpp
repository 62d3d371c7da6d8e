//===- support/PassTimer.cpp - Pipeline step timing and metrics ---------------===//

#include "support/PassTimer.h"

#include "support/Diagnostics.h"

#include <algorithm>
#include <cstdio>

using namespace specpre;

const char *specpre::pipelineStepName(PipelineStep S) {
  switch (S) {
  case PipelineStep::PhiInsertion:
    return "phi-insertion";
  case PipelineStep::Rename:
    return "rename";
  case PipelineStep::DataFlow:
    return "data-flow";
  case PipelineStep::Reduction:
    return "reduction";
  case PipelineStep::MinCut:
    return "min-cut";
  case PipelineStep::SafePlacement:
    return "safe-placement";
  case PipelineStep::Finalize:
    return "finalize";
  case PipelineStep::CodeMotion:
    return "code-motion";
  case PipelineStep::Count:
    break;
  }
  SPECPRE_UNREACHABLE("bad pipeline step");
}

void PipelineMetrics::note(PipelineStep S, uint64_t Nanos,
                           uint64_t ProblemSize) {
  StepMetrics &M = Steps[static_cast<unsigned>(S)];
  ++M.Invocations;
  M.Nanos += Nanos;
  M.ProblemSize += ProblemSize;
}

uint64_t PipelineMetrics::totalNanos() const {
  uint64_t Total = 0;
  for (const StepMetrics &M : Steps)
    Total += M.Nanos;
  return Total;
}

void PipelineMetrics::merge(const PipelineMetrics &Other) {
  for (unsigned I = 0; I != NumPipelineSteps; ++I) {
    Steps[I].Invocations += Other.Steps[I].Invocations;
    Steps[I].Nanos += Other.Steps[I].Nanos;
    Steps[I].ProblemSize += Other.Steps[I].ProblemSize;
  }
  Robust.FunctionsCompiled += Other.Robust.FunctionsCompiled;
  Robust.FunctionsDegraded += Other.Robust.FunctionsDegraded;
  Robust.LadderRetries += Other.Robust.LadderRetries;
  Robust.WorkerFailures += Other.Robust.WorkerFailures;
  Cache.Hits += Other.Cache.Hits;
  Cache.Misses += Other.Cache.Misses;
  Cache.Stores += Other.Cache.Stores;
  Cache.Evictions += Other.Cache.Evictions;
  Cache.DiskHits += Other.Cache.DiskHits;
  Cache.DiskWrites += Other.Cache.DiskWrites;
  Cache.DiskEvictions += Other.Cache.DiskEvictions;
  Cache.VerifyMismatches += Other.Cache.VerifyMismatches;
  Cache.CorruptDropped += Other.Cache.CorruptDropped;
  Cache.DiskIoErrors += Other.Cache.DiskIoErrors;
  Cache.BreakerOpens += Other.Cache.BreakerOpens;
  Cache.BreakerShortCircuits += Other.Cache.BreakerShortCircuits;
  // A gauge, not an event count: keep the most-degraded observed state.
  Cache.BreakerState = std::max(Cache.BreakerState, Other.Cache.BreakerState);
  Cache.ScrubScanned += Other.Cache.ScrubScanned;
  Cache.ScrubQuarantined += Other.Cache.ScrubQuarantined;
  Service.RequestsReceived += Other.Service.RequestsReceived;
  Service.RequestsSucceeded += Other.Service.RequestsSucceeded;
  Service.RequestsFailed += Other.Service.RequestsFailed;
  Service.RequestsDegraded += Other.Service.RequestsDegraded;
  Service.QueueDepthPeak =
      std::max(Service.QueueDepthPeak, Other.Service.QueueDepthPeak);
  Service.QueueWaitNanos += Other.Service.QueueWaitNanos;
  Service.CompileNanos += Other.Service.CompileNanos;
  Service.WorkerCrashes += Other.Service.WorkerCrashes;
  Service.DeadlineKills += Other.Service.DeadlineKills;
  Service.Quarantined += Other.Service.Quarantined;
  Service.Shed += Other.Service.Shed;
  Service.Retries += Other.Service.Retries;
  Lospre.Solved += Other.Lospre.Solved;
  Lospre.Bailouts += Other.Lospre.Bailouts;
  // A gauge, not an event count: keep the widest observed.
  Lospre.WidthPeak = std::max(Lospre.WidthPeak, Other.Lospre.WidthPeak);
  Lospre.DpEntries += Other.Lospre.DpEntries;
}

std::string PipelineMetrics::lospreToJson() const {
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "{\"solved\": %llu, \"bailouts\": %llu, "
                "\"width_peak\": %llu, \"dp_entries\": %llu}",
                static_cast<unsigned long long>(Lospre.Solved),
                static_cast<unsigned long long>(Lospre.Bailouts),
                static_cast<unsigned long long>(Lospre.WidthPeak),
                static_cast<unsigned long long>(Lospre.DpEntries));
  return Buf;
}

std::string PipelineMetrics::cacheToJson() const {
  char Buf[768];
  std::snprintf(Buf, sizeof(Buf),
                "{\"hits\": %llu, \"misses\": %llu, \"stores\": %llu, "
                "\"evictions\": %llu, \"disk_hits\": %llu, "
                "\"disk_writes\": %llu, \"disk_evictions\": %llu, "
                "\"verify_mismatches\": %llu, \"corrupt_dropped\": %llu, "
                "\"disk_io_errors\": %llu, \"breaker_opens\": %llu, "
                "\"breaker_short_circuits\": %llu, \"breaker_state\": %llu, "
                "\"scrub_scanned\": %llu, \"scrub_quarantined\": %llu}",
                static_cast<unsigned long long>(Cache.Hits),
                static_cast<unsigned long long>(Cache.Misses),
                static_cast<unsigned long long>(Cache.Stores),
                static_cast<unsigned long long>(Cache.Evictions),
                static_cast<unsigned long long>(Cache.DiskHits),
                static_cast<unsigned long long>(Cache.DiskWrites),
                static_cast<unsigned long long>(Cache.DiskEvictions),
                static_cast<unsigned long long>(Cache.VerifyMismatches),
                static_cast<unsigned long long>(Cache.CorruptDropped),
                static_cast<unsigned long long>(Cache.DiskIoErrors),
                static_cast<unsigned long long>(Cache.BreakerOpens),
                static_cast<unsigned long long>(Cache.BreakerShortCircuits),
                static_cast<unsigned long long>(Cache.BreakerState),
                static_cast<unsigned long long>(Cache.ScrubScanned),
                static_cast<unsigned long long>(Cache.ScrubQuarantined));
  return Buf;
}

std::string PipelineMetrics::serviceToJson() const {
  char Buf[640];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"requests_received\": %llu, \"requests_succeeded\": %llu, "
      "\"requests_failed\": %llu, \"requests_degraded\": %llu, "
      "\"queue_depth_peak\": %llu, \"queue_wait_millis\": %.6f, "
      "\"compile_millis\": %.6f, \"worker_crashes\": %llu, "
      "\"deadline_kills\": %llu, \"quarantined\": %llu, "
      "\"shed\": %llu, \"retries\": %llu}",
      static_cast<unsigned long long>(Service.RequestsReceived),
      static_cast<unsigned long long>(Service.RequestsSucceeded),
      static_cast<unsigned long long>(Service.RequestsFailed),
      static_cast<unsigned long long>(Service.RequestsDegraded),
      static_cast<unsigned long long>(Service.QueueDepthPeak),
      static_cast<double>(Service.QueueWaitNanos) / 1e6,
      static_cast<double>(Service.CompileNanos) / 1e6,
      static_cast<unsigned long long>(Service.WorkerCrashes),
      static_cast<unsigned long long>(Service.DeadlineKills),
      static_cast<unsigned long long>(Service.Quarantined),
      static_cast<unsigned long long>(Service.Shed),
      static_cast<unsigned long long>(Service.Retries));
  return Buf;
}

std::string PipelineMetrics::robustnessToJson() const {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"functions_compiled\": %llu, "
                "\"functions_degraded\": %llu, "
                "\"ladder_retries\": %llu, "
                "\"worker_failures\": %llu}",
                static_cast<unsigned long long>(Robust.FunctionsCompiled),
                static_cast<unsigned long long>(Robust.FunctionsDegraded),
                static_cast<unsigned long long>(Robust.LadderRetries),
                static_cast<unsigned long long>(Robust.WorkerFailures));
  return Buf;
}

std::string PipelineMetrics::toJson() const {
  std::string Out = "[";
  for (unsigned I = 0; I != NumPipelineSteps; ++I) {
    const StepMetrics &M = Steps[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n  {\"step\": \"%s\", \"invocations\": %llu, "
                  "\"millis\": %.6f, \"problem_size\": %llu}",
                  I ? "," : "",
                  pipelineStepName(static_cast<PipelineStep>(I)),
                  static_cast<unsigned long long>(M.Invocations),
                  static_cast<double>(M.Nanos) / 1e6,
                  static_cast<unsigned long long>(M.ProblemSize));
    Out += Buf;
  }
  Out += "\n]";
  return Out;
}

namespace {
thread_local PipelineMetrics *CurrentSink = nullptr;
} // namespace

PipelineMetrics *specpre::currentMetricsSink() { return CurrentSink; }

MetricsScope::MetricsScope(PipelineMetrics *M) : Prev(CurrentSink) {
  CurrentSink = M;
}

MetricsScope::~MetricsScope() { CurrentSink = Prev; }
