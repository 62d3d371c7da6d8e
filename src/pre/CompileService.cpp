//===- pre/CompileService.cpp - Long-lived compilation service ------------===//

#include "pre/CompileService.h"

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opt/Cleanup.h"
#include "opt/ValueNumbering.h"
#include "profile/Profile.h"
#include "ssa/SsaDestruction.h"
#include "support/FaultInjector.h"
#include "support/LineCodec.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace specpre;
using namespace specpre::linecodec;

//===----------------------------------------------------------------------===//
// Request / response codec
//===----------------------------------------------------------------------===//

namespace {

const char *RequestHeader = "specpre-serve-request v1";
const char *ResponseHeader = "specpre-serve-response v1";

} // namespace

std::string specpre::encodeServeRequest(const ServeRequest &R) {
  std::string Out = RequestHeader;
  Out += "\n";
  Out += "strategy ";
  Out += strategyFlagName(R.Strategy);
  Out += "\nplacement ";
  Out += R.Placement == CutPlacement::Earliest ? "earliest" : "latest";
  Out += "\nalgo ";
  Out += maxFlowAlgorithmName(R.Algo);
  // The objective travels as its raw weights, not a preset name, so any
  // CutObjective round-trips (speedThenSize and custom weights alike).
  Out += "\nobjective " + std::to_string(R.Objective.SpeedWeight) + " " +
         std::to_string(R.Objective.SizeWeight);
  Out += "\nbudget " + std::to_string(R.Budget.DeadlineMillis) + " " +
         std::to_string(R.Budget.MaxFlowAugmentations) + " " +
         std::to_string(R.Budget.MaxGraphNodes);
  if (R.Strategy == PreStrategy::Lospre)
    Out += "\nlospre-max-width " + std::to_string(R.LospreMaxWidth);
  Out += "\nflags " + std::string(R.Emit ? "1" : "0") + " " +
         (R.Cleanup ? "1" : "0") + " " + (R.Gvn ? "1" : "0") + " " +
         (R.OutOfSsa ? "1" : "0") + " " + (R.ReportOutcomes ? "1" : "0");
  if (R.TrainArgs) {
    Out += "\ntrain";
    for (int64_t A : *R.TrainArgs)
      Out += " " + std::to_string(A);
  }
  if (!R.OnlyFunction.empty())
    Out += "\nfunction " + esc(R.OnlyFunction);
  if (!R.ProfileText.empty())
    Out += "\nprofile " + esc(R.ProfileText);
  Out += "\nir " + esc(R.ModuleText) + "\n";
  return Out;
}

bool specpre::decodeServeRequest(const std::string &Payload,
                                 ServeRequest &Out, std::string &Error) {
  Out = ServeRequest();
  size_t Pos = 0;
  std::string Line;
  auto Bad = [&](const std::string &Msg) {
    Error = Msg;
    return false;
  };
  if (!nextLine(Payload, Pos, Line) || Line != RequestHeader)
    return Bad("bad request header");
  bool SawIr = false;
  while (nextLine(Payload, Pos, Line)) {
    std::vector<std::string> Tok = splitTokens(Line);
    if (Tok.empty())
      continue; // blank (or all-space) lines are harmless padding
    const std::string &Key = Tok[0];
    if (Key == "strategy") {
      if (Tok.size() != 2 || !parseStrategyFlag(Tok[1], Out.Strategy))
        return Bad("bad strategy directive");
    } else if (Key == "placement") {
      if (Tok.size() != 2)
        return Bad("bad placement directive");
      if (Tok[1] == "latest")
        Out.Placement = CutPlacement::Latest;
      else if (Tok[1] == "earliest")
        Out.Placement = CutPlacement::Earliest;
      else
        return Bad("bad placement '" + Tok[1] + "'");
    } else if (Key == "algo") {
      if (Tok.size() != 2 || !parseMaxFlowAlgorithm(Tok[1].c_str(), Out.Algo))
        return Bad("bad algo directive");
    } else if (Key == "objective") {
      if (Tok.size() != 3 || !parseU64(Tok[1], Out.Objective.SpeedWeight) ||
          !parseU64(Tok[2], Out.Objective.SizeWeight))
        return Bad("bad objective directive");
    } else if (Key == "budget") {
      if (Tok.size() != 4 || !parseU64(Tok[1], Out.Budget.DeadlineMillis) ||
          !parseU64(Tok[2], Out.Budget.MaxFlowAugmentations) ||
          !parseU64(Tok[3], Out.Budget.MaxGraphNodes))
        return Bad("bad budget directive");
    } else if (Key == "lospre-max-width") {
      uint64_t W;
      if (Tok.size() != 2 || !parseU64(Tok[1], W) || W > 64)
        return Bad("bad lospre-max-width directive");
      Out.LospreMaxWidth = static_cast<unsigned>(W);
    } else if (Key == "flags") {
      if (Tok.size() != 6 || !parseBool(Tok[1], Out.Emit) ||
          !parseBool(Tok[2], Out.Cleanup) || !parseBool(Tok[3], Out.Gvn) ||
          !parseBool(Tok[4], Out.OutOfSsa) ||
          !parseBool(Tok[5], Out.ReportOutcomes))
        return Bad("bad flags directive");
    } else if (Key == "train") {
      std::vector<int64_t> Args;
      for (size_t I = 1; I != Tok.size(); ++I) {
        int64_t V;
        if (!parseI64(Tok[I], V))
          return Bad("bad integer '" + Tok[I] + "' in train directive");
        Args.push_back(V);
      }
      Out.TrainArgs = std::move(Args);
    } else if (Key == "function") {
      if (Tok.size() != 2 || !unesc(Tok[1], Out.OnlyFunction))
        return Bad("bad function directive");
    } else if (Key == "profile") {
      if (Tok.size() != 2 || !unesc(Tok[1], Out.ProfileText))
        return Bad("bad profile directive");
    } else if (Key == "ir") {
      if (Tok.size() != 2 || !unesc(Tok[1], Out.ModuleText))
        return Bad("bad ir directive");
      SawIr = true;
    } else {
      return Bad("unknown directive '" + Key + "'");
    }
  }
  if (!SawIr)
    return Bad("missing ir directive");
  return true;
}

std::string specpre::encodeServeResponse(const ServeResponse &R) {
  std::string Out = ResponseHeader;
  Out += "\nok ";
  Out += R.Ok ? "1" : "0";
  Out += "\nexit " + std::to_string(R.ExitCode);
  Out += "\ndegraded ";
  Out += R.Degraded ? "1" : "0";
  Out += "\nquarantined ";
  Out += R.Quarantined ? "1" : "0";
  Out += "\nerror " + esc(R.Error);
  Out += "\nstdout " + esc(R.StdoutText);
  Out += "\nstderr " + esc(R.StderrText) + "\n";
  return Out;
}

bool specpre::decodeServeResponse(const std::string &Payload,
                                  ServeResponse &Out, std::string &Error) {
  Out = ServeResponse();
  size_t Pos = 0;
  std::string Line;
  auto Bad = [&](const std::string &Msg) {
    Error = Msg;
    return false;
  };
  if (!nextLine(Payload, Pos, Line) || Line != ResponseHeader)
    return Bad("bad response header");
  bool SawOk = false, SawExit = false;
  while (nextLine(Payload, Pos, Line)) {
    std::vector<std::string> Tok = splitTokens(Line);
    if (Tok.empty())
      continue; // blank (or all-space) lines are harmless padding
    const std::string &Key = Tok[0];
    if (Key == "ok") {
      if (Tok.size() != 2 || !parseBool(Tok[1], Out.Ok))
        return Bad("bad ok directive");
      SawOk = true;
    } else if (Key == "exit") {
      int64_t V;
      if (Tok.size() != 2 || !parseI64(Tok[1], V) || V < 0 || V > 255)
        return Bad("bad exit directive");
      Out.ExitCode = static_cast<int>(V);
      SawExit = true;
    } else if (Key == "degraded") {
      if (Tok.size() != 2 || !parseBool(Tok[1], Out.Degraded))
        return Bad("bad degraded directive");
    } else if (Key == "quarantined") {
      if (Tok.size() != 2 || !parseBool(Tok[1], Out.Quarantined))
        return Bad("bad quarantined directive");
    } else if (Key == "error") {
      if (Tok.size() != 2 || !unesc(Tok[1], Out.Error))
        return Bad("bad error directive");
    } else if (Key == "stdout") {
      if (Tok.size() != 2 || !unesc(Tok[1], Out.StdoutText))
        return Bad("bad stdout directive");
    } else if (Key == "stderr") {
      if (Tok.size() != 2 || !unesc(Tok[1], Out.StderrText))
        return Bad("bad stderr directive");
    } else {
      return Bad("unknown directive '" + Key + "'");
    }
  }
  if (!SawOk || !SawExit)
    return Bad("missing ok/exit directive");
  return true;
}

//===----------------------------------------------------------------------===//
// Request execution
//===----------------------------------------------------------------------===//

void specpre::appendRunReport(std::string &Out, const char *Label,
                              const ExecResult &R) {
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "%s: ret=%lld computations=%llu cycles=%llu%s%s\n", Label,
                static_cast<long long>(R.ReturnValue),
                static_cast<unsigned long long>(R.DynamicComputations),
                static_cast<unsigned long long>(R.Cycles),
                R.Trapped ? " [TRAPPED]" : "",
                R.TimedOut ? " [TIMED OUT]" : "");
  Out += Buf;
}

namespace {

/// One selected function of a request between the passes of
/// processServeRequest.
struct ServeFunction {
  Function *F = nullptr; ///< Prepared in place by pass 1.
  Profile Prof;          ///< Full profile (MC-PRE reads edge counts).
  Profile NodeOnly;      ///< Node counts, for the other legs.
  PreStats Stats;        ///< Filled by pass 2: records and the outcome.
  std::string Stdout;    ///< Pass 1's training report.
  std::string Stderr;    ///< Pass 1's diagnostic when it failed.
};

bool needsProfile(PreStrategy S) {
  return S == PreStrategy::McSsaPre || S == PreStrategy::McPre ||
         S == PreStrategy::Lospre;
}

/// Pass 1 for one function: prepare it and collect its profile. Returns
/// false, with the diagnostic in Fn.Stderr, when the request must stop
/// at this function.
bool prepareServeFunction(const ServeRequest &R, ServeFunction &Fn) {
  Function &F = *Fn.F;
  prepareFunction(F);
  if (!needsProfile(R.Strategy))
    return true;
  if (!R.ProfileText.empty()) {
    std::string Error;
    if (!parseProfile(R.ProfileText, Fn.Prof, Error)) {
      Fn.Stderr += "error: profile: " + Error + "\n";
      return false;
    }
    Fn.Prof.BlockFreq.resize(F.numBlocks(), 0);
  } else {
    if (!R.TrainArgs) {
      Fn.Stderr += "error: --strategy=";
      Fn.Stderr += strategyName(R.Strategy);
      Fn.Stderr += " requires --train=... arguments or a profile\n";
      return false;
    }
    if (R.TrainArgs->size() != F.Params.size()) {
      char Buf[192];
      std::snprintf(Buf, sizeof(Buf),
                    "error: function '%s' takes %zu arguments, --train has "
                    "%zu\n",
                    F.Name.c_str(), F.Params.size(), R.TrainArgs->size());
      Fn.Stderr += Buf;
      return false;
    }
    ExecOptions EO;
    EO.CollectProfile = &Fn.Prof;
    ExecResult Train = interpret(F, *R.TrainArgs, EO);
    appendRunReport(Fn.Stdout, "train", Train);
    if (Train.Trapped || Train.TimedOut) {
      Fn.Stderr += "error: training run failed\n";
      return false;
    }
  }
  return true;
}

/// Pass 3 for one compiled function: report its ladder outcome, clean
/// up, emit, then hand the result to \p OnFunction.
int finishServeFunction(const ServeRequest &R, const ServeFunction &Fn,
                        Function &Optimized,
                        const ServeFunctionHook &OnFunction,
                        ServeResponse &Resp) {
  Resp.StdoutText += Fn.Stdout;
  const CompileOutcomeRecord &Outcome = Fn.Stats.outcomes().back();
  // Degradations go to stderr so stdout stays bit-identical to a clean
  // run; ReportOutcomes forces a line even for clean compiles.
  if (Outcome.degraded())
    Resp.Degraded = true;
  if (Outcome.degraded() || R.ReportOutcomes) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "outcome: %s requested=%s used=%s retries=%u",
                  Fn.F->Name.c_str(), Outcome.Requested.c_str(),
                  Outcome.Used.c_str(), Outcome.Retries);
    Resp.StderrText += Buf;
    if (!Outcome.Cause.empty())
      Resp.StderrText +=
          " cause=" + Outcome.Cause + " (" + Outcome.Message + ")";
    Resp.StderrText += "\n";
  }
  if (R.Gvn && Optimized.IsSSA)
    runValueNumbering(Optimized);
  if (R.Cleanup && Optimized.IsSSA)
    runCleanupPipeline(Optimized);
  if (R.OutOfSsa && Optimized.IsSSA)
    destructSsa(Optimized);

  if (R.Emit)
    Resp.StdoutText += printFunction(Optimized);
  if (!OnFunction)
    return 0;
  return OnFunction({*Fn.F, needsProfile(R.Strategy) ? &Fn.Prof : nullptr,
                     Optimized, Fn.Stats},
                    Resp);
}

} // namespace

ServeResponse
specpre::processServeRequest(const ServeRequest &R, ParallelPreDriver &Driver,
                             CompileCache *Cache, PipelineMetrics *Metrics,
                             const ServeFunctionHook &OnFunction) {
  ServeResponse Resp;
  Resp.Ok = true;

  std::string Error;
  std::optional<Module> M = parseModule(R.ModuleText, Error);
  if (!M) {
    Resp.StderrText += "error: " + Error + "\n";
    Resp.ExitCode = 1;
    return Resp;
  }

  std::vector<ServeFunction> Fns;
  for (Function &F : M->Functions)
    if (R.OnlyFunction.empty() || F.Name == R.OnlyFunction)
      Fns.emplace_back().F = &F;
  if (Fns.empty()) {
    Resp.StderrText += "error: no function matched\n";
    Resp.ExitCode = 1;
    return Resp;
  }

  // Pass 1: prepare and profile in order, up to the first failure.
  size_t Ready = 0;
  while (Ready != Fns.size() && prepareServeFunction(R, Fns[Ready]))
    ++Ready;

  // Pass 2: compile the prepared functions, fanned out over the pool.
  std::vector<CompileTask> Tasks;
  for (size_t I = 0; I != Ready; ++I) {
    ServeFunction &Fn = Fns[I];
    Fn.NodeOnly = Fn.Prof.withoutEdgeFreqs();
    PreOptions PO;
    PO.Strategy = R.Strategy;
    PO.Prof = R.Strategy == PreStrategy::McPre ? &Fn.Prof : &Fn.NodeOnly;
    PO.Placement = R.Placement;
    PO.Algo = R.Algo;
    PO.Objective = R.Objective;
    PO.Budget = R.Budget;
    PO.LospreMaxWidth = R.LospreMaxWidth;
    PO.Cache = Cache;
    PO.Stats = &Fn.Stats;
    Tasks.push_back({Fn.F, PO});
  }
  std::vector<Function> Optimized =
      Driver.compileCorpus(Tasks, nullptr, Metrics);

  // Pass 3: finish and emit in order, so the streams read as if each
  // function had gone through all three passes before the next.
  for (size_t I = 0; I != Ready; ++I)
    if (int Rc =
            finishServeFunction(R, Fns[I], Optimized[I], OnFunction, Resp)) {
      Resp.ExitCode = Rc;
      return Resp;
    }
  if (Ready != Fns.size()) {
    Resp.StdoutText += Fns[Ready].Stdout;
    Resp.StderrText += Fns[Ready].Stderr;
    Resp.ExitCode = 1;
  }
  return Resp;
}

//===----------------------------------------------------------------------===//
// CompileService: the request queue
//===----------------------------------------------------------------------===//

namespace {

/// The cache tier a service configuration asks for, shared by the
/// daemon's own cache and each sandbox worker's disk-only instance.
CompileCache::Config cacheConfigFor(const CompileService::Config &Cfg) {
  CompileCache::Config CC;
  CC.DiskDir = Cfg.CacheDir;
  CC.MaxEntries = Cfg.CacheMaxEntries;
  CC.MaxDiskBytes = Cfg.CacheMaxDiskBytes;
  CC.Durable = Cfg.CacheDurable;
  CC.BreakerThreshold = Cfg.CacheBreakerThreshold;
  CC.BreakerCooldownMs = Cfg.CacheBreakerCooldownMs;
  CC.Mode = Cfg.Mode;
  return CC;
}

} // namespace

CompileService::CompileService(const Config &C)
    : Cfg(C), Driver([&] {
        ParallelConfig PC;
        PC.Jobs = C.Jobs;
        return PC;
      }()) {
  if (Cfg.RequestWorkers == 0)
    Cfg.RequestWorkers = 1;
  if (Cfg.Mode != CacheMode::Off)
    Cache = std::make_unique<CompileCache>(cacheConfigFor(Cfg));
  Workers.reserve(Cfg.RequestWorkers);
  for (unsigned I = 0; I != Cfg.RequestWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  if (Cache && !Cfg.CacheDir.empty() && Cfg.CacheScrubIntervalMs) {
    // Background scrubber: wakes every interval, validates the disk
    // tier's checksums at a bounded byte rate, quarantines corruption.
    Scrubber = std::thread([this] {
      std::unique_lock<std::mutex> Lock(ScrubStopMu);
      while (!ScrubStop) {
        if (ScrubStopCv.wait_for(
                Lock, std::chrono::milliseconds(Cfg.CacheScrubIntervalMs),
                [this] { return ScrubStop; }))
          break;
        Lock.unlock();
        Cache->scrubDiskTier(Cfg.CacheScrubBytesPerSec);
        Lock.lock();
      }
    });
  }
}

CompileService::~CompileService() { shutdown(); }

std::future<ServeResponse> CompileService::enqueue(ServeRequest R,
                                                   bool Bounded,
                                                   bool &Shed) {
  Shed = false;
  auto P = std::make_unique<Pending>();
  P->Req = std::move(R);
  P->Submitted = std::chrono::steady_clock::now();
  std::future<ServeResponse> Fut = P->Result.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stopping) {
      ServeResponse Rej;
      Rej.Ok = false;
      Rej.Error = "service is shutting down";
      Rej.ExitCode = 1;
      P->Result.set_value(std::move(Rej));
      return Fut;
    }
    if (Bounded && Cfg.QueueMaxDepth && Queue.size() >= Cfg.QueueMaxDepth) {
      // Load shedding: the request arrived but is refused at the door.
      ++Metrics.service().RequestsReceived;
      ++Metrics.service().Shed;
      Shed = true;
      return Fut;
    }
    ++Metrics.service().RequestsReceived;
    Queue.push_back(std::move(P));
    uint64_t Depth = Queue.size() + InFlight;
    Metrics.service().QueueDepthPeak =
        std::max(Metrics.service().QueueDepthPeak, Depth);
  }
  QueueCv.notify_one();
  return Fut;
}

std::future<ServeResponse> CompileService::submit(ServeRequest R) {
  bool Shed = false;
  return enqueue(std::move(R), /*Bounded=*/false, Shed);
}

bool CompileService::trySubmit(ServeRequest R,
                               std::future<ServeResponse> &Out) {
  bool Shed = false;
  std::future<ServeResponse> Fut =
      enqueue(std::move(R), /*Bounded=*/true, Shed);
  if (Shed)
    return false;
  Out = std::move(Fut);
  return true;
}

void CompileService::noteProtocolFailure() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Metrics.service().RequestsReceived;
  ++Metrics.service().RequestsFailed;
}

namespace {

/// FNV-1a over the encoded request: the quarantine key. Collisions
/// would only over-quarantine a hash-twin request — acceptable for a
/// 64-bit space and a set that grows one entry per poisoned request.
uint64_t requestQuarantineKey(const std::string &Encoded) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : Encoded) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

/// Child side of --isolate=process: serve exactly one request over
/// \p Fd, then _exit. Forked from a multithreaded supervisor, so only
/// this thread exists here: everything below builds fresh objects (a
/// Jobs=1 driver spawns no pool threads; the cache is a new instance
/// over the shared *disk* tier, whose multi-process safety serve_test
/// pins) and never touches the parent service's locks or memory cache.
[[noreturn]] void sandboxWorkerMain(int Fd,
                                    const CompileService::Config &Cfg) {
  // Drop inherited descriptors (listener, other clients' connections)
  // so a wedged worker can't hold peers' sockets open past the daemon.
  long MaxFd = ::sysconf(_SC_OPEN_MAX);
  if (MaxFd < 0 || MaxFd > 4096)
    MaxFd = 4096;
  for (int I = 3; I < MaxFd; ++I)
    if (I != Fd)
      ::close(I);
  if (Cfg.WorkerMemLimitMb) {
    // RLIMIT_DATA, not RLIMIT_AS: sanitizer shadow mappings count
    // toward address space and would kill every ASan worker at birth.
    struct rlimit Rl;
    Rl.rlim_cur = Rl.rlim_max =
        static_cast<rlim_t>(Cfg.WorkerMemLimitMb) * 1024 * 1024;
    ::setrlimit(RLIMIT_DATA, &Rl);
  }
  Socket Conn(Fd);
  Frame F;
  bool PeerClosed = false;
  if (!readFrame(Conn, F, PeerClosed, /*TimeoutMs=*/60000) || PeerClosed)
    ::_exit(3);
  if (F.Type == 'X') // supervisor-injected crash (chaos harness)
    ::raise(SIGSEGV);
  if (F.Type != 'C')
    ::_exit(3);
  ServeRequest Req;
  std::string Error;
  ServeResponse Resp;
  if (!decodeServeRequest(F.Payload, Req, Error)) {
    Resp.Ok = false;
    Resp.Error = "worker decode: " + Error;
    Resp.ExitCode = 1;
  } else {
    ParallelConfig PC;
    PC.Jobs = 1; // post-fork: strictly single-threaded
    ParallelPreDriver Driver(PC);
    std::unique_ptr<CompileCache> Cache;
    if (Cfg.Mode != CacheMode::Off && !Cfg.CacheDir.empty())
      Cache = std::make_unique<CompileCache>(cacheConfigFor(Cfg));
    Resp = processServeRequest(Req, Driver, Cache.get(), nullptr);
  }
  (void)writeFrame(Conn, 'R', encodeServeResponse(Resp), 60000);
  Conn.close();
  ::_exit(0);
}

} // namespace

ServeResponse CompileService::superviseRequest(const ServeRequest &R,
                                               PipelineMetrics &Shard) {
  const std::string Encoded = encodeServeRequest(R);
  const uint64_t Key = requestQuarantineKey(Encoded);
  const unsigned MaxDeaths = std::max(1u, Cfg.QuarantineAfter);
  auto QuarantinedResponse = [&](unsigned Deaths) {
    ServeResponse Resp;
    Resp.Ok = false;
    Resp.Quarantined = true;
    Resp.ExitCode = 1;
    Resp.Error = "request killed " + std::to_string(Deaths) +
                 " compile worker(s); refusing to retry";
    return Resp;
  };
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Quarantine.count(Key)) {
      ++Shard.service().Quarantined;
      return QuarantinedResponse(MaxDeaths);
    }
  }
  auto SupervisorError = [&](const char *What) {
    ServeResponse Resp;
    Resp.Ok = false;
    Resp.Error = std::string(What) + ": " + std::strerror(errno);
    Resp.ExitCode = 1;
    return Resp;
  };
  // No deadline configured still means a *bounded* wait: a wedged worker
  // must never wedge its request-worker thread forever.
  const uint64_t DeadlineMs =
      Cfg.RequestDeadlineMs ? Cfg.RequestDeadlineMs : 600000;
  unsigned Deaths = 0;
  for (;;) {
    if (Deaths)
      ++Shard.service().Retries;
    // Chaos probes run on the supervisor side so every retry flips a
    // fresh deterministic coin — a forked child's hit counters are
    // frozen copies and would replay the same fault forever. The crash
    // instruction travels to the worker as the 'X' frame type.
    bool InjectCrash = faultInjectionEnabled() &&
                       shouldInjectFault(FaultSite::WorkerCrash);
    bool InjectKill = !InjectCrash && faultInjectionEnabled() &&
                      shouldInjectFault(FaultSite::WorkerKill);

    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      return SupervisorError("socketpair");
    pid_t Child = ::fork();
    if (Child < 0) {
      ::close(Fds[0]);
      ::close(Fds[1]);
      return SupervisorError("fork");
    }
    if (Child == 0) {
      ::close(Fds[0]);
      sandboxWorkerMain(Fds[1], Cfg); // noreturn
    }
    ::close(Fds[1]);
    Socket Conn(Fds[0]);

    ServeResponse Resp;
    bool Dead = false, DeadlineHit = false;
    int WriteBudget = static_cast<int>(std::min<uint64_t>(DeadlineMs, 60000));
    if (!writeFrame(Conn, InjectCrash ? 'X' : 'C', Encoded, WriteBudget)) {
      Dead = true; // worker died before consuming the request
    } else {
      if (InjectKill)
        ::kill(Child, SIGKILL);
      Frame F;
      bool PeerClosed = false;
      Status Rd = readFrame(Conn, F, PeerClosed,
                            static_cast<int>(DeadlineMs));
      if (!Rd) {
        Dead = true;
        DeadlineHit = Rd.code() == ErrorCode::ResourceLimit;
      } else if (PeerClosed || F.Type != 'R') {
        Dead = true;
      } else {
        std::string Error;
        if (!decodeServeResponse(F.Payload, Resp, Error))
          Dead = true;
      }
    }
    Conn.close();
    if (DeadlineHit)
      ::kill(Child, SIGKILL); // past the hard deadline: no mercy
    int WStatus = 0;
    pid_t W;
    do {
      W = ::waitpid(Child, &WStatus, 0);
    } while (W < 0 && errno == EINTR);
    if (!Dead && W == Child && WIFEXITED(WStatus) &&
        WEXITSTATUS(WStatus) == 0)
      return Resp;

    ++Deaths;
    if (DeadlineHit)
      ++Shard.service().DeadlineKills;
    else
      ++Shard.service().WorkerCrashes;
    if (Deaths >= MaxDeaths) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        Quarantine.insert(Key);
      }
      ++Shard.service().Quarantined;
      return QuarantinedResponse(Deaths);
    }
  }
}

ServeResponse CompileService::executeRequest(const ServeRequest &R,
                                             PipelineMetrics &Shard) {
  if (Cfg.Isolation == IsolationMode::Process)
    return superviseRequest(R, Shard);
  if (Cfg.RequestDeadlineMs) {
    // In-process, the deadline can only be enforced cooperatively:
    // clamp the compile budget so pass boundaries and max-flow sampling
    // notice it (docs/ROBUSTNESS.md). Hard kills need a process.
    ServeRequest Clamped = R;
    if (!Clamped.Budget.DeadlineMillis ||
        Clamped.Budget.DeadlineMillis > Cfg.RequestDeadlineMs)
      Clamped.Budget.DeadlineMillis = Cfg.RequestDeadlineMs;
    return processServeRequest(Clamped, Driver, Cache.get(), &Shard);
  }
  return processServeRequest(R, Driver, Cache.get(), &Shard);
}

void CompileService::workerLoop() {
  for (;;) {
    std::unique_ptr<Pending> Work;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      QueueCv.wait(Lock, [this] { return !Queue.empty() || Stopping; });
      if (Queue.empty())
        return; // Stopping with a drained queue: worker retires.
      Work = std::move(Queue.front());
      Queue.pop_front();
      ++InFlight;
    }
    auto Started = std::chrono::steady_clock::now();
    PipelineMetrics Shard;
    ServeResponse Resp = executeRequest(Work->Req, Shard);
    auto Finished = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ServiceCounters &S = Shard.service();
      S.QueueWaitNanos = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Started - Work->Submitted)
              .count());
      S.CompileNanos = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Finished -
                                                               Started)
              .count());
      if (Resp.Ok && Resp.ExitCode == 0)
        ++S.RequestsSucceeded;
      else
        ++S.RequestsFailed;
      if (Resp.Degraded)
        ++S.RequestsDegraded;
      Metrics.merge(Shard);
      --InFlight;
      if (Queue.empty() && InFlight == 0)
        IdleCv.notify_all();
    }
    // Resolve the future outside the lock: a continuation on the waiting
    // thread must not run under the service mutex.
    Work->Result.set_value(std::move(Resp));
  }
}

void CompileService::drain() {
  std::unique_lock<std::mutex> Lock(Mu);
  IdleCv.wait(Lock, [this] { return Queue.empty() && InFlight == 0; });
}

void CompileService::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stopping && Workers.empty())
      return;
    Stopping = true;
  }
  // Workers drain the remaining queue before retiring (they only exit
  // on an empty queue), so every accepted request still gets a result.
  QueueCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
  if (Scrubber.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(ScrubStopMu);
      ScrubStop = true;
    }
    ScrubStopCv.notify_all();
    Scrubber.join();
  }
  if (Cache)
    Cache->sweepDiskTier();
}

PipelineMetrics CompileService::metricsSnapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  PipelineMetrics Out = Metrics;
  if (Cache)
    Out.cache() = Cache->counters();
  return Out;
}

//===----------------------------------------------------------------------===//
// ServeServer: the socket front end
//===----------------------------------------------------------------------===//

ServeServer::ServeServer(const Config &C) : Cfg(C), Service(C.Service) {}

ServeServer::~ServeServer() { stop(); }

Status ServeServer::start() {
  // A dead client mid-response must surface as EPIPE on the write path,
  // never SIGPIPE taking down the daemon and every other client with it.
  ignoreSigPipeForProcess();
  if (unixSocketInUse(Cfg.SocketPath))
    return Status::error(ErrorCode::ResourceLimit,
                         "socket path '" + Cfg.SocketPath +
                             "' is in use by a live daemon");
  Expected<Socket> L = listenUnix(Cfg.SocketPath);
  if (!L)
    return L.status();
  Listener = std::move(*L);
  Acceptor = std::thread([this] { acceptLoop(); });
  return Status::ok();
}

void ServeServer::acceptLoop() {
  while (!StopRequested.load()) {
    Expected<Socket> Conn = acceptOn(Listener, 200);
    if (!Conn) {
      if (StopRequested.load())
        return;
      continue; // transient accept error; keep serving
    }
    if (!Conn->valid())
      continue; // poll timeout: re-check the stop flag
    std::lock_guard<std::mutex> Lock(ConnMu);
    ConnThreads.emplace_back(
        [this](Socket S) { handleConnection(std::move(S)); },
        std::move(*Conn));
  }
}

std::string ServeServer::statsJson() const {
  PipelineMetrics M = Service.metricsSnapshot();
  return "{\"cache\": " + M.cacheToJson() +
         ",\n\"service\": " + M.serviceToJson() + "}\n";
}

void ServeServer::handleConnection(Socket Conn) {
  for (;;) {
    // Idle-wait in short slices so a graceful stop is noticed between
    // frames; readFrame itself is only entered once bytes are pending.
    for (;;) {
      bool Ready = false;
      if (!waitReadable(Conn, 200, Ready))
        return;
      if (Ready)
        break;
      if (StopRequested.load())
        return; // idle connection at shutdown: close at frame boundary
    }
    Frame F;
    bool PeerClosed = false;
    Status St = readFrame(Conn, F, PeerClosed, Cfg.IoTimeoutMs);
    if (!St) {
      // Malformed or truncated frame: answer with an error frame if the
      // socket still works, then drop the connection — after a framing
      // error the stream position is unrecoverable. The "frame-error: "
      // prefix tells a retrying client this 'E' is transport damage
      // (retryable), not a verdict about its request (terminal).
      (void)writeFrame(Conn, 'E', "frame-error: " + St.message(),
                       Cfg.IoTimeoutMs);
      return;
    }
    if (PeerClosed)
      return;
    switch (F.Type) {
    case 'P': // ping: echo the payload
      if (!writeFrame(Conn, 'P', F.Payload, Cfg.IoTimeoutMs))
        return;
      break;
    case 'C': {
      CompileRequests.fetch_add(1);
      ServeRequest Req;
      std::string Error;
      if (!decodeServeRequest(F.Payload, Req, Error)) {
        Service.noteProtocolFailure();
        if (!writeFrame(Conn, 'E', "bad compile request: " + Error,
                        Cfg.IoTimeoutMs))
          return;
        break; // connection stays usable: the *frame* was well-formed
      }
      std::future<ServeResponse> Fut;
      if (!Service.trySubmit(std::move(Req), Fut)) {
        // Backpressure: the bounded queue is full. Shed with a 'B'
        // frame rather than queueing without bound; the client backs
        // off and retries. The connection stays usable.
        if (!writeFrame(Conn, 'B', "busy: request queue is full",
                        Cfg.IoTimeoutMs))
          return;
        break;
      }
      ServeResponse Resp = Fut.get();
      if (Resp.Quarantined) {
        // A poisoned request gets a terminal error frame (no
        // "frame-error: " prefix — clients must not retry it).
        if (!writeFrame(Conn, 'E', "quarantined: " + Resp.Error,
                        Cfg.IoTimeoutMs))
          return;
        break;
      }
      if (!writeFrame(Conn, 'R', encodeServeResponse(Resp), Cfg.IoTimeoutMs))
        return;
      break;
    }
    case 'S':
      if (!writeFrame(Conn, 'T', statsJson(), Cfg.IoTimeoutMs))
        return;
      break;
    default:
      if (!writeFrame(Conn, 'E',
                      std::string("unknown frame type '") + F.Type + "'",
                      Cfg.IoTimeoutMs))
        return;
      break;
    }
  }
}

bool ServeServer::servedEnough() const {
  return Cfg.MaxRequests && CompileRequests.load() >= Cfg.MaxRequests;
}

void ServeServer::wait() {
  while (!Stopped.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

void ServeServer::stop() {
  std::lock_guard<std::mutex> StopLock(StopMu);
  if (Stopped.load())
    return;
  // The acceptor thread only exists after a successful start(); a server
  // that lost the socket-path race must not unlink the winner's file.
  const bool WasStarted = Acceptor.joinable();
  StopRequested.store(true);
  if (Acceptor.joinable())
    Acceptor.join();
  Listener.close();
  // Connection handlers notice the stop flag at their next frame
  // boundary; one mid-flight compile per connection still completes and
  // its response is written before the handler returns.
  std::vector<std::thread> Conns;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    Conns.swap(ConnThreads);
  }
  for (std::thread &T : Conns)
    T.join();
  Service.shutdown();
  // Leave no stale socket file behind: the next daemon's liveness probe
  // (unixSocketInUse) would still see it as "not in use", but cleaning
  // up here keeps crash-vs-clean-exit distinguishable for operators.
  if (WasStarted)
    ::unlink(Cfg.SocketPath.c_str());
  Stopped.store(true);
}
