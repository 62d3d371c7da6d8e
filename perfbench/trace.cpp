//===- perfbench/trace.cpp - Repository benchmark: the traced run -------===//
//
// The traced run replays each request as the sequence of public library
// calls the request path makes, timing each call from here: parseModule,
// prepareFunction, the training interpret, compileWithFallback (with and
// without Verify), printFunction, the serve codecs, compileCacheKey and
// encode/decodeCachePayload. constructSsa and the unverified compile are
// side measurements off the request path; the eight PRE step totals come
// from the library's own PassTimers through a MetricsScope, and the
// daemon's queue wait and compile time from its ServiceCounters. No
// timer is added inside the library.
//
// Every replayed request also runs untraced, so the run reports how much
// of the real request wall time the layer spans account for
// (trace.unaccounted_pct) and what the replay costs on top of it
// (trace.overhead_pct). The spans are kept in memory and written as
// Chrome trace-event JSON when the run ends (--spans-out).
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pre/CachedCompile.h"
#include "pre/PreDriver.h"
#include "profile/Profile.h"
#include "ssa/SsaConstruction.h"
#include "support/PassTimer.h"

#include <cstdio>

using namespace specpre;
using namespace perfbench;

namespace {

/// In-memory span log, written out once at the end of the run.
class SpanLog {
public:
  struct Span {
    const char *Name;
    uint64_t Id, Parent, Request;
    double StartUs, DurUs;
  };

  uint64_t begin(const char *Name, uint64_t Request, uint64_t Parent) {
    Span S{Name, Spans.size() + 1, Parent, Request,
           std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
               .count(),
           0};
    Spans.push_back(S);
    return S.Id;
  }

  /// Closes span \p Id and returns its duration in ms.
  double end(uint64_t Id) {
    Span &S = Spans[Id - 1];
    S.DurUs = std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
                  .count() -
              S.StartUs;
    return S.DurUs / 1000;
  }

  /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
  bool write(const std::string &Path) const {
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out)
      return false;
    std::fprintf(Out, "{\"traceEvents\": [\n");
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(Out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}\n",
                   I ? "," : "", S.Name, S.StartUs, S.DurUs,
                   (unsigned long long)S.Id, (unsigned long long)S.Parent,
                   (unsigned long long)S.Request);
    }
    std::fprintf(Out, "]}\n");
    return std::fclose(Out) == 0;
  }

private:
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
};

/// Per-layer sums of one traced run, by metric name.
struct Layers {
  std::map<std::string, double> Ms;
  std::map<std::string, double> Count;
  double RequestMs = 0; ///< Untraced request wall time.
  double PathMs = 0;    ///< Sum of the spans on the request path.
  double ReplayMs = 0;  ///< Wall time of the whole traced replay.
};

/// Times one public call as a span and adds it to \p Layer.
template <typename Fn>
void timed(SpanLog &Log, Layers &L, const char *Layer, bool OnPath,
           uint64_t Req, uint64_t Parent, double Weight, Fn &&Call) {
  uint64_t Id = Log.begin(Layer, Req, Parent);
  Call();
  double Ms = Log.end(Id);
  L.Ms[Layer] += Ms * Weight;
  if (OnPath)
    L.PathMs += Ms * Weight;
}

/// What a replay needs to do beyond the no-cache request path.
enum class Replay { NoCache, CacheMiss, CacheHit };

/// Replays one request through the library's public calls. Returns the
/// printed optimized function, or "" if the replay failed. \p Payload
/// carries the cache payload from a miss replay to a hit replay. Span
/// times count \p Weight times (how often the request was sent); work
/// counts count once per replay, so they stay deterministic.
std::string replayRequest(SpanLog &Log, Layers &L, const Request &R,
                          uint64_t ReqId, Replay Kind, double Weight,
                          std::string &Payload) {
  Clock::time_point T0 = Clock::now();
  uint64_t Root = Log.begin("request", ReqId, 0);
  std::optional<Module> M;
  std::string Error;
  timed(Log, L, "ir.parse_ms", true, ReqId, Root, Weight,
        [&] { M = parseModule(R.Req.ModuleText, Error); });
  if (!M || M->Functions.size() != 1)
    return "";
  Function &F = M->Functions[0];
  timed(Log, L, "analysis.prepare_ms", true, ReqId, Root, Weight,
        [&] { prepareFunction(F); });
  Profile Prof, NodeOnly;
  ExecResult Train;
  timed(Log, L, "interp.train_ms", true, ReqId, Root, Weight, [&] {
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    Train = interpret(F, *R.Req.TrainArgs, EO);
    NodeOnly = Prof.withoutEdgeFreqs();
  });
  L.Count["interp.train_steps"] += Train.StepsExecuted;
  L.Count["ir.input_kb"] += R.Req.ModuleText.size() / 1024.0;
  if (Train.Trapped || Train.TimedOut)
    return "";

  PreOptions PO;
  PO.Strategy = R.Req.Strategy;
  PO.Prof = &NodeOnly;
  PreStats Stats;
  PO.Stats = &Stats;
  Function Optimized;
  CompileOutcomeRecord Outcome;
  bool Compile = Kind != Replay::CacheHit;
  if (Kind != Replay::NoCache) {
    CacheKey Key;
    timed(Log, L, "cache.key_ms", true, ReqId, Root, Weight,
          [&] { Key = compileCacheKey(F, PO); });
  }
  if (Compile) {
    timed(Log, L, "pre.compile_ms", true, ReqId, Root, Weight,
          [&] { Optimized = compileWithFallback(F, PO, &Outcome); });
    if (Outcome.degraded())
      return "";
    for (const ExprStatsRecord &Rec : Stats.records()) {
      L.Count["pre.exprs"] += 1;
      L.Count["pre.frg_phis"] += Rec.FrgPhis;
      L.Count["pre.frg_reals"] += Rec.FrgReals;
      L.Count["pre.efg_nodes"] += Rec.EfgEmpty ? 0 : Rec.EfgNodes;
      L.Count["pre.efg_edges"] += Rec.EfgEmpty ? 0 : Rec.EfgEdges;
      L.Count["pre.insertions"] += Rec.NumInsertions;
      L.Count["pre.reloads"] += Rec.NumReloads;
    }
    if (Kind == Replay::CacheMiss)
      timed(Log, L, "cache.encode_ms", true, ReqId, Root, Weight, [&] {
        Payload = encodeCachePayload(Optimized, Stats.records(), Outcome);
      });
  } else {
    std::vector<ExprStatsRecord> Records;
    bool Decoded = false;
    timed(Log, L, "cache.decode_ms", true, ReqId, Root, Weight, [&] {
      Decoded = decodeCachePayload(Payload, Optimized, Records, Outcome);
    });
    if (!Decoded)
      return "";
  }
  std::string Printed;
  timed(Log, L, "ir.print_ms", true, ReqId, Root, Weight,
        [&] { Printed = printFunction(Optimized); });
  if (Compile) {
    // Side measurements, off the request path and after it, so that
    // they do not warm the path's compile: SSA construction alone,
    // and the compile without verification under a MetricsScope, whose
    // PassTimers give the eight PRE step totals.
    Function Ssa = F;
    timed(Log, L, "ssa.construct_ms", false, ReqId, Root, Weight,
          [&] { constructSsa(Ssa); });
    PipelineMetrics PM;
    PreOptions Unverified = PO;
    Unverified.Verify = false;
    Unverified.Stats = nullptr;
    timed(Log, L, "pre.unverified_ms", false, ReqId, Root, Weight, [&] {
      MetricsScope Scope(&PM);
      (void)compileWithFallback(F, Unverified);
    });
    static const std::pair<PipelineStep, const char *> Steps[] = {
        {PipelineStep::PhiInsertion, "pre.phi_insertion_ms"},
        {PipelineStep::Rename, "pre.rename_ms"},
        {PipelineStep::DataFlow, "pre.dataflow_ms"},
        {PipelineStep::Reduction, "pre.reduction_ms"},
        {PipelineStep::MinCut, "mincut.cut_ms"},
        {PipelineStep::SafePlacement, "pre.safe_placement_ms"},
        {PipelineStep::Finalize, "pre.finalize_ms"},
        {PipelineStep::CodeMotion, "pre.code_motion_ms"},
    };
    for (const auto &[Step, Name] : Steps)
      L.Ms[Name] += PM.step(Step).Nanos / 1e6 * Weight;
    L.Count["mincut.cuts"] += PM.step(PipelineStep::MinCut).Invocations;
  }
  if (Kind == Replay::NoCache) {
    // A cache-less workload still reports what the cache layers would
    // cost on its inputs, as side spans off the request path.
    CacheKey Key;
    timed(Log, L, "cache.key_ms", false, ReqId, Root, Weight,
          [&] { Key = compileCacheKey(F, PO); });
    timed(Log, L, "cache.encode_ms", false, ReqId, Root, Weight, [&] {
      Payload = encodeCachePayload(Optimized, Stats.records(), Outcome);
    });
    Function Decoded;
    std::vector<ExprStatsRecord> Records;
    CompileOutcomeRecord DecodedOutcome;
    timed(Log, L, "cache.decode_ms", false, ReqId, Root, Weight, [&] {
      decodeCachePayload(Payload, Decoded, Records, DecodedOutcome);
    });
  }
  Log.end(Root);
  L.ReplayMs += msSince(T0) * Weight;
  return Printed;
}

/// Derived per-layer metrics shared by every workload.
void finishLayers(const Layers &L, double Iterations, MetricMap &M) {
  auto Ms = [&](const char *Name) {
    auto It = L.Ms.find(Name);
    return It == L.Ms.end() ? 0.0 : It->second / Iterations;
  };
  static const char *const Plain[] = {
      "ir.parse_ms",          "ir.print_ms",         "analysis.prepare_ms",
      "interp.train_ms",      "ssa.construct_ms",    "pre.phi_insertion_ms",
      "pre.rename_ms",        "pre.dataflow_ms",     "pre.reduction_ms",
      "mincut.cut_ms",        "pre.safe_placement_ms", "pre.finalize_ms",
      "pre.code_motion_ms",   "cache.key_ms",        "cache.encode_ms",
      "cache.decode_ms",      "service.codec_ms",    "service.queue_wait_ms",
      "service.compile_ms",   "service.transport_ms"};
  for (const char *Name : Plain)
    M[Name] = {Ms(Name), "ms"};
  // The verified compile splits into SSA construction, the eight PRE
  // steps, the rest of the unverified compile (candidate collection,
  // ladder bookkeeping) and verification proper.
  double StepSum = 0;
  for (const char *Name :
       {"pre.phi_insertion_ms", "pre.rename_ms", "pre.dataflow_ms",
        "pre.reduction_ms", "mincut.cut_ms", "pre.safe_placement_ms",
        "pre.finalize_ms", "pre.code_motion_ms"})
    StepSum += Ms(Name);
  double Unverified = Ms("pre.unverified_ms");
  M["pre.other_ms"] = {Unverified - Ms("ssa.construct_ms") - StepSum, "ms"};
  M["pre.verify_ms"] = {Ms("pre.compile_ms") - Unverified, "ms"};
  static const std::pair<const char *, const char *> Counts[] = {
      {"ir.input_kb", "KiB"},       {"interp.train_steps", "count"},
      {"pre.exprs", "count"},       {"pre.frg_phis", "count"},
      {"pre.frg_reals", "count"},   {"pre.efg_nodes", "count"},
      {"pre.efg_edges", "count"},   {"pre.insertions", "count"},
      {"pre.reloads", "count"},     {"mincut.cuts", "count"}};
  for (const auto &[Name, Unit] : Counts) {
    auto It = L.Count.find(Name);
    M[Name] = {It == L.Count.end() ? 0.0 : It->second / Iterations, Unit};
  }
  double Request = L.RequestMs / Iterations;
  M["trace.request_ms"] = {Request, "ms"};
  M["mincut.cut_pct"] = {Request > 0 ? 100 * Ms("mincut.cut_ms") / Request : 0,
                         "%"};
}

/// Prints the request-path layers with their share of the request wall
/// time; \p CacheOnPath is false where the cache layers are side spans.
void printBreakdown(const MetricMap &M, bool CacheOnPath) {
  double Request = M.at("trace.request_ms").Value;
  std::printf("layer breakdown in ms (share of request wall %.1f ms):\n",
              Request);
  auto Row = [&](const char *Name, bool Side) {
    double V = M.at(Name).Value;
    std::printf("  %-24s %10.2f  %5.1f%%%s\n", Name, V,
                Request > 0 ? 100 * V / Request : 0,
                Side ? "  (side span, off the request path)" : "");
  };
  for (const char *Name :
       {"ir.parse_ms", "analysis.prepare_ms", "interp.train_ms",
        "ssa.construct_ms", "pre.phi_insertion_ms", "pre.rename_ms",
        "pre.dataflow_ms", "pre.reduction_ms", "mincut.cut_ms",
        "pre.safe_placement_ms", "pre.finalize_ms", "pre.code_motion_ms",
        "pre.other_ms", "pre.verify_ms", "ir.print_ms", "service.codec_ms",
        "service.queue_wait_ms", "service.transport_ms"})
    Row(Name, false);
  for (const char *Name : {"cache.key_ms", "cache.encode_ms", "cache.decode_ms"})
    Row(Name, !CacheOnPath);
  std::printf("  %-24s %10.2f%%\n", "unaccounted",
              M.at("trace.unaccounted_pct").Value);
}

void writeSpans(const Options &O, const SpanLog &Log) {
  if (!O.SpansOut.empty() && !Log.write(O.SpansOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.SpansOut.c_str());
}

} // namespace

void perfbench::traceLocalWorkload(const Options &O, MetricMap &M,
                                   Tally &T) {
  std::vector<Request> Reqs = buildRequests(O);
  size_t N = Reqs.size();
  ParallelConfig PC;
  PC.Jobs = 1;
  ParallelPreDriver Driver(PC);
  SpanLog Log;
  Layers L;
  uint64_t ReqId = 0, Iterations = 0;
  Quality Q;
  std::vector<bool> Checked(N, false);
  Clock::time_point Start = Clock::now();
  do {
    for (size_t Idx : shuffledOrder(N, Iterations + 17 * O.Seed)) {
      const Request &R = Reqs[Idx];
      // Whichever of the request and its replay runs second finds the
      // allocator and caches warmed by the first; alternate the order.
      std::string Payload, Printed;
      bool ReplayFirst = Iterations % 2 == 1;
      if (ReplayFirst)
        Printed = replayRequest(Log, L, R, ++ReqId, Replay::NoCache, 1, Payload);
      Clock::time_point T0 = Clock::now();
      ServeResponse Resp = processServeRequest(R.Req, Driver, nullptr, nullptr);
      L.RequestMs += msSince(T0);
      bool Ok = responseClean(Resp);
      if (Ok && !Checked[Idx]) {
        Ok = checkOutput(R, Resp, Q,
                         O.Break == BreakGate::Miscompile && Idx == 0);
        Checked[Idx] = true;
      }
      if (!ReplayFirst)
        Printed = replayRequest(Log, L, R, ++ReqId, Replay::NoCache, 1, Payload);
      // The replay must compute exactly what the request returned, or
      // its spans describe some other work.
      T.note(Ok && Printed == optimizedIr(Resp.StdoutText));
    }
    ++Iterations;
  } while (msSince(Start) < O.Seconds * 1000);

  finishLayers(L, Iterations, M);
  M["cache.hit_rate"] = {0, "ratio"}; // no cache on this request path
  M["trace.unaccounted_pct"] = {100 * (L.RequestMs - L.PathMs) / L.RequestMs,
                                "%"};
  M["trace.overhead_pct"] = {100 * (L.ReplayMs - L.RequestMs) / L.RequestMs,
                             "%"};
  std::printf("%zu requests x %llu traced iterations; ms per iteration\n",
              N, (unsigned long long)Iterations);
  printBreakdown(M, false);
  writeSpans(O, Log);
}

void perfbench::traceServeWorkload(const Options &O,
                                   const std::string &SocketPath,
                                   MetricMap &M, Tally &T) {
  std::vector<Request> Reqs = buildRequests(O);
  size_t N = serveHits(Reqs);
  std::unique_ptr<ServeServer> Server = startServer(SocketPath);
  ServeTraffic Fill;
  fillServeCache(SocketPath, Reqs, Fill);
  PipelineMetrics Before = Server->service().metricsSnapshot();
  CacheCounters CacheBefore = Server->service().cache()->counters();
  ServeTraffic Traffic = runServeTraffic(SocketPath, Reqs, O);
  PipelineMetrics After = Server->service().metricsSnapshot();
  CacheCounters CacheAfter = Server->service().cache()->counters();
  Server->stop();
  Server.reset();
  T.Attempted += Traffic.Sent.Attempted;
  T.Failed += Traffic.Sent.Failed;

  // Replay every distinct request once, weighted by how often the
  // clients sent it. A hit replays the miss that published its payload
  // off the books (weight 0), then the hit itself.
  std::vector<double> Sends(Reqs.size(), 0);
  Layers L;
  for (const ServeSample &S : Traffic.Samples) {
    Sends[S.Request] += 1;
    L.Ms["service.codec_ms"] += S.CodecMs;
  }
  SpanLog Log;
  Quality Q;
  uint64_t ReqId = 0;
  std::vector<bool> Verdict(Reqs.size(), false);
  for (size_t Idx = 0; Idx != Reqs.size(); ++Idx) {
    if (Sends[Idx] == 0)
      continue;
    const Request &R = Reqs[Idx];
    auto Answer = Traffic.FirstResponse.find(Idx);
    std::string Payload, Printed;
    bool Hit = Idx < N;
    if (Hit) {
      Layers Scratch;
      replayRequest(Log, Scratch, R, ++ReqId, Replay::CacheMiss, 0, Payload);
    }
    // The daemon's side of the codec: decode the request, encode the
    // response.
    ServeRequest Decoded;
    std::string Error, Encoded = encodeServeRequest(R.Req);
    timed(Log, L, "service.codec_ms", false, ++ReqId, 0, Sends[Idx],
          [&] { decodeServeRequest(Encoded, Decoded, Error); });
    Printed = replayRequest(Log, L, R, ReqId,
                            Hit ? Replay::CacheHit : Replay::CacheMiss,
                            Sends[Idx], Payload);
    bool Ok = Answer != Traffic.FirstResponse.end() &&
              responseClean(Answer->second) &&
              Printed == optimizedIr(Answer->second.StdoutText) &&
              checkOutput(R, Answer->second, Q,
                          O.Break == BreakGate::Miscompile && Idx == 0);
    if (Answer != Traffic.FirstResponse.end())
      timed(Log, L, "service.codec_ms", false, ReqId, 0, Sends[Idx],
            [&] { (void)encodeServeResponse(Answer->second); });
    Verdict[Idx] = Ok;
  }
  for (const ServeSample &S : Traffic.Samples)
    T.Failed += S.Repeats && Verdict[S.Request] ? 0 : 1;

  const ServiceCounters &SB = Before.service(), &SA = After.service();
  double QueueMs = (SA.QueueWaitNanos - SB.QueueWaitNanos) / 1e6;
  double CompileMs = (SA.CompileNanos - SB.CompileNanos) / 1e6;
  double RoundTrip = 0;
  for (const ServeSample &S : Traffic.Samples)
    RoundTrip += S.Ms;
  L.Ms["service.queue_wait_ms"] = QueueMs;
  L.Ms["service.compile_ms"] = CompileMs;
  L.Ms["service.transport_ms"] =
      RoundTrip - QueueMs - CompileMs - L.Ms["service.codec_ms"];
  // The daemon's compile time is the request wall time the replayed
  // layer spans have to account for.
  L.RequestMs = CompileMs;
  finishLayers(L, 1, M);
  uint64_t Hits = CacheAfter.Hits - CacheBefore.Hits;
  uint64_t Lookups = Hits + CacheAfter.Misses - CacheBefore.Misses;
  M["cache.hit_rate"] = {Lookups ? double(Hits) / Lookups : 0, "ratio"};
  M["trace.unaccounted_pct"] = {
      CompileMs > 0 ? 100 * (CompileMs - L.PathMs) / CompileMs : 0, "%"};
  M["trace.overhead_pct"] = {
      CompileMs > 0 ? 100 * (L.ReplayMs - CompileMs) / CompileMs : 0, "%"};
  std::printf("%zu hits + %zu misses sent; layers summed over the measured "
              "phase (%.1f s)\n",
              size_t(Hits), Traffic.Samples.size() - size_t(Hits),
              Traffic.WallMs / 1000);
  printBreakdown(M, true);
  writeSpans(O, Log);
}
