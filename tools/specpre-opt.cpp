//===- tools/specpre-opt.cpp - Command-line PRE driver --------------------------===//
//
// The command-line face of the library:
//
//   specpre-opt [options] <file>
//
//     --strategy=<ssapre|ssapresp|mcssapre|lospre|mcpre|lcm|none>
//                           (default mcssapre)
//     --lospre-max-width=N  leg D's treewidth budget (default 8); EFGs
//                           wider than this bail out to MC-SSAPRE
//     --train=<a,b,...>     arguments for the profile-collection run
//     --run=<a,b,...>       interpret the result and report costs
//     --placement=<latest|earliest>   min-cut tie-breaking
//     --mincut-algo=<dinic|ek>        max-flow solver (default dinic)
//     --cleanup             run constant folding / copy prop / DCE after
//     --gvn                 run dominator-scoped value numbering after
//     --out-of-ssa          lower phis to copies (backend-ready output)
//     --profile-out=<path>  persist the training profile
//     --profile-in=<path>   reuse a persisted profile (skip training)
//     --dot-cfg=<path>      append the prepared CFG as Graphviz
//     --dot-frg=<path>      append the annotated FRGs/EFGs as Graphviz
//     --stats               dump per-expression PRE statistics
//     --no-emit             do not print the optimized IR
//     --function=<name>     restrict to one function
//     --jobs=N              parallel PRE pipeline (N workers; output is
//                           bit-identical to --jobs=1); 0 = all cores
//     --metrics-out=<path>  write per-step pipeline timing as JSON
//     --budget-ms=N         per-function compile deadline (degrades on
//                           exhaustion instead of failing)
//     --max-augmentations=N per-function max-flow augmentation cap
//     --max-graph-nodes=N   per-function FRG/EFG node cap
//     --inject-faults=SPEC  deterministic fault injection, SPEC =
//                           site:rate[:seed][,site:rate...] or all:rate
//     --report-outcomes     always report the ladder outcome per function
//                           (degradations are reported regardless, on
//                           stderr, so stdout stays bit-identical)
//     --cache-dir=PATH      on-disk compilation cache directory (implies
//                           --cache=on); see docs/CACHING.md
//     --cache=on|off|verify content-addressed compilation cache; verify
//                           recompiles every hit and asserts the cached
//                           entry is bit-identical (exit 1 on mismatch)
//     --cache-durable=on|off fsync cache entries + directory before each
//                           publish rename (default off; docs/CACHING.md)
//     --cache-scrub         one-shot scrub of --cache-dir: validate every
//                           entry's checksum trailer, quarantine corrupt
//                           entries, report, exit (no input file needed)
//     --connect=PATH        client mode: send the compile to a running
//                           specpre-serve daemon at this socket instead
//                           of compiling locally; stdout, stderr and the
//                           exit code match a local run (docs/SERVING.md),
//                           which runs the same processServeRequest. Flags that
//                           only make sense locally (--dot-*, --run,
//                           --stats, --profile-out, --metrics-out,
//                           --inject-faults, --cache*, --jobs) are
//                           rejected in this mode.
//     --timeout-ms=N        client mode: per-frame I/O budget against the
//                           daemon (default 60000)
//     --retries=N           client mode: reconnect and resend after a
//                           transport failure or a 'B' (busy) frame, up
//                           to N times with exponential backoff
//                           (default 0); request-level 'E' errors are
//                           terminal and never retried
//     --retry-seed=N        client mode: seed for the deterministic
//                           backoff jitter (default 0)
//
// Input syntax: see ir/Parser.h (examples/programs/*.spre).
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "pre/CompileService.h"
#include "pre/DotExport.h"
#include "pre/ParallelDriver.h"
#include "ssa/SsaConstruction.h"
#include "support/CompileCache.h"
#include "support/CrashContext.h"
#include "support/FaultInjector.h"
#include "support/LineCodec.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace specpre;

namespace {

struct ToolOptions {
  /// Everything that shapes the output: the request both modes run.
  ServeRequest Req;
  std::optional<std::vector<int64_t>> RunArgs;
  bool Stats = false;
  std::string DotCfgPath;    ///< write the prepared CFG as DOT
  std::string DotFrgPath;    ///< write annotated FRGs as DOT
  std::string ProfileOutPath; ///< persist the training profile
  std::string ProfileInPath;  ///< reuse a persisted profile, skip training
  std::string MetricsOutPath; ///< write pipeline step timings as JSON
  std::string InputPath;
  unsigned Jobs = 1; ///< PRE pipeline workers; 0 = hardware concurrency
  std::string InjectFaults; ///< fault-injection spec ("" = disabled)
  std::string CacheDir;        ///< on-disk cache directory ("" = memory-only)
  std::optional<CacheMode> Cache; ///< unset = on iff --cache-dir given
  bool CacheDurable = false;   ///< fsync-before-rename disk publishes
  bool CacheScrub = false;     ///< one-shot disk-tier scrub, then exit
  std::string ConnectPath; ///< serve-daemon socket ("" = compile locally)
  bool JobsGiven = false;  ///< --jobs was on the command line
  int TimeoutMs = 60000;   ///< client mode: per-frame I/O budget
  unsigned Retries = 0;    ///< client mode: attempts beyond the first
  uint64_t RetrySeed = 0;  ///< client mode: backoff jitter seed
  bool RetryFlagsGiven = false; ///< any of --timeout-ms/--retries/--retry-seed
};

std::optional<std::vector<int64_t>> parseIntList(const std::string &S) {
  std::vector<int64_t> Out;
  std::stringstream In(S);
  std::string Item;
  while (std::getline(In, Item, ',')) {
    int64_t V;
    if (!linecodec::parseI64(Item, V))
      return std::nullopt;
    Out.push_back(V);
  }
  return Out;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--strategy=S] [--train=a,b,...] [--run=a,b,...]\n"
               "          [--placement=latest|earliest] "
               "[--mincut-algo=dinic|ek]\n"
               "          [--lospre-max-width=N]\n"
               "          [--cleanup] [--stats]\n"
               "          [--objective=speed|size|speed-then-size] [--no-emit]\n"
               "          [--jobs=N] [--metrics-out=PATH]\n"
               "          [--budget-ms=N] [--max-augmentations=N] "
               "[--max-graph-nodes=N]\n"
               "          [--inject-faults=SPEC] [--report-outcomes]\n"
               "          [--cache-dir=PATH] [--cache=on|off|verify]\n"
               "          [--cache-durable=on|off] [--cache-scrub]\n"
               "          [--connect=SOCKET] [--timeout-ms=N] [--retries=N]\n"
               "          [--retry-seed=N]\n"
               "          [--dot-cfg=PATH] [--dot-frg=PATH] [--function=NAME] <file>\n",
               Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, ToolOptions &Opts) {
  ServeRequest &Req = Opts.Req;
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Prefix) -> std::optional<std::string> {
      size_t N = std::strlen(Prefix);
      if (A.rfind(Prefix, 0) == 0)
        return A.substr(N);
      return std::nullopt;
    };
    // Numeric values go through the checked codec parsers: digits only
    // (a sign only where negatives mean something), no trailing
    // garbage, no overflow.
    auto BadInt = [](const char *Flag, const std::string &V) {
      std::fprintf(stderr, "error: bad %s value '%s'\n", Flag, V.c_str());
      return false;
    };
    if (auto V = Value("--strategy=")) {
      if (!parseStrategyFlag(*V, Req.Strategy)) {
        std::fprintf(stderr, "error: unknown strategy '%s'\n", V->c_str());
        return false;
      }
    } else if (auto V = Value("--train=")) {
      Req.TrainArgs = parseIntList(*V);
      if (!Req.TrainArgs) {
        std::fprintf(stderr, "error: bad --train list\n");
        return false;
      }
    } else if (auto V = Value("--run=")) {
      Opts.RunArgs = parseIntList(*V);
      if (!Opts.RunArgs) {
        std::fprintf(stderr, "error: bad --run list\n");
        return false;
      }
    } else if (auto V = Value("--placement=")) {
      if (*V == "latest")
        Req.Placement = CutPlacement::Latest;
      else if (*V == "earliest")
        Req.Placement = CutPlacement::Earliest;
      else {
        std::fprintf(stderr, "error: bad --placement\n");
        return false;
      }
    } else if (auto V = Value("--mincut-algo=")) {
      if (!parseMaxFlowAlgorithm(V->c_str(), Req.Algo)) {
        std::fprintf(stderr,
                     "error: bad --mincut-algo (want dinic or "
                     "edmonds-karp/ek)\n");
        return false;
      }
    } else if (auto V = Value("--objective=")) {
      if (*V == "speed")
        Req.Objective = CutObjective::speed();
      else if (*V == "size")
        Req.Objective = CutObjective::size();
      else if (*V == "speed-then-size")
        Req.Objective = CutObjective::speedThenSize();
      else {
        std::fprintf(stderr, "error: bad --objective\n");
        return false;
      }
    } else if (auto V = Value("--dot-cfg=")) {
      Opts.DotCfgPath = *V;
    } else if (auto V = Value("--dot-frg=")) {
      Opts.DotFrgPath = *V;
    } else if (auto V = Value("--profile-out=")) {
      Opts.ProfileOutPath = *V;
    } else if (auto V = Value("--profile-in=")) {
      Opts.ProfileInPath = *V;
    } else if (auto V = Value("--metrics-out=")) {
      Opts.MetricsOutPath = *V;
    } else if (auto V = Value("--connect=")) {
      Opts.ConnectPath = *V;
    } else if (auto V = Value("--timeout-ms=")) {
      Opts.RetryFlagsGiven = true;
      int64_t Ms;
      if (!linecodec::parseI64(*V, Ms) ||
          Ms < std::numeric_limits<int>::min() ||
          Ms > std::numeric_limits<int>::max())
        return BadInt("--timeout-ms", *V);
      Opts.TimeoutMs = static_cast<int>(Ms);
    } else if (auto V = Value("--retries=")) {
      Opts.RetryFlagsGiven = true;
      if (!linecodec::parseU32(*V, Opts.Retries))
        return BadInt("--retries", *V);
    } else if (auto V = Value("--retry-seed=")) {
      Opts.RetryFlagsGiven = true;
      if (!linecodec::parseU64(*V, Opts.RetrySeed))
        return BadInt("--retry-seed", *V);
    } else if (auto V = Value("--jobs=")) {
      Opts.JobsGiven = true;
      if (!linecodec::parseU32(*V, Opts.Jobs))
        return BadInt("--jobs", *V);
    } else if (auto V = Value("--budget-ms=")) {
      if (!linecodec::parseU64(*V, Req.Budget.DeadlineMillis))
        return BadInt("--budget-ms", *V);
    } else if (auto V = Value("--max-augmentations=")) {
      if (!linecodec::parseU64(*V, Req.Budget.MaxFlowAugmentations))
        return BadInt("--max-augmentations", *V);
    } else if (auto V = Value("--max-graph-nodes=")) {
      if (!linecodec::parseU64(*V, Req.Budget.MaxGraphNodes))
        return BadInt("--max-graph-nodes", *V);
    } else if (auto V = Value("--lospre-max-width=")) {
      if (!linecodec::parseU32(*V, Req.LospreMaxWidth))
        return BadInt("--lospre-max-width", *V);
    } else if (auto V = Value("--inject-faults=")) {
      Opts.InjectFaults = *V;
    } else if (auto V = Value("--cache-dir=")) {
      Opts.CacheDir = *V;
    } else if (auto V = Value("--cache=")) {
      if (*V == "on")
        Opts.Cache = CacheMode::On;
      else if (*V == "off")
        Opts.Cache = CacheMode::Off;
      else if (*V == "verify")
        Opts.Cache = CacheMode::Verify;
      else {
        std::fprintf(stderr, "error: bad --cache mode '%s'\n", V->c_str());
        return false;
      }
    } else if (auto V = Value("--cache-durable=")) {
      if (*V == "on")
        Opts.CacheDurable = true;
      else if (*V == "off")
        Opts.CacheDurable = false;
      else {
        std::fprintf(stderr, "error: bad --cache-durable value '%s'\n",
                     V->c_str());
        return false;
      }
    } else if (A == "--cache-scrub") {
      Opts.CacheScrub = true;
    } else if (A == "--report-outcomes") {
      Req.ReportOutcomes = true;
    } else if (A == "--cleanup") {
      Req.Cleanup = true;
    } else if (A == "--gvn") {
      Req.Gvn = true;
    } else if (A == "--out-of-ssa") {
      Req.OutOfSsa = true;
    } else if (A == "--stats") {
      Opts.Stats = true;
    } else if (A == "--no-emit") {
      Req.Emit = false;
    } else if (auto V = Value("--function=")) {
      Req.OnlyFunction = *V;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      return false;
    } else if (Opts.InputPath.empty()) {
      Opts.InputPath = A;
    } else {
      std::fprintf(stderr, "error: multiple input files\n");
      return false;
    }
  }
  // --cache-scrub is a standalone maintenance mode: it needs a cache
  // directory, not an input program.
  if (Opts.CacheScrub)
    return true;
  return !Opts.InputPath.empty();
}

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Reads the input module and the --profile-in file into the request,
/// the same for both modes.
bool loadRequestFiles(ToolOptions &Opts) {
  std::optional<std::string> Module = readFile(Opts.InputPath);
  if (!Module) {
    std::fprintf(stderr, "error: cannot open '%s'\n",
                 Opts.InputPath.c_str());
    return false;
  }
  Opts.Req.ModuleText = std::move(*Module);
  if (Opts.ProfileInPath.empty())
    return true;
  std::optional<std::string> Prof = readFile(Opts.ProfileInPath);
  if (!Prof) {
    std::fprintf(stderr, "error: cannot open profile '%s'\n",
                 Opts.ProfileInPath.c_str());
    return false;
  }
  Opts.Req.ProfileText = std::move(*Prof);
  return true;
}

void appendFormat(std::string &Out, const char *Fmt, ...) {
  va_list Args, Copy;
  va_start(Args, Fmt);
  va_copy(Copy, Args);
  int N = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  size_t Old = Out.size();
  Out.resize(Old + N + 1);
  std::vsnprintf(Out.data() + Old, N + 1, Fmt, Copy);
  va_end(Copy);
  Out.resize(Old + N);
}

/// The local side channels of one compiled function: profile and DOT
/// files, --stats and --run. Runs after the function's IR was emitted.
int writeSideChannels(const ToolOptions &Opts, const ServeFunctionView &V,
                      ServeResponse &Resp) {
  if (V.Prof && !Opts.ProfileOutPath.empty()) {
    std::ofstream Out(Opts.ProfileOutPath);
    Out << serializeProfile(*V.Prof);
  }
  if (!Opts.DotCfgPath.empty()) {
    std::ofstream Out(Opts.DotCfgPath, std::ios::app);
    Out << cfgToDot(V.Prepared, V.Prof);
  }
  if (!Opts.DotFrgPath.empty()) {
    // Annotated FRGs: run MC-SSAPRE's placement per candidate on a
    // throwaway SSA copy so the DOT shows classes, reduction and the cut.
    Function Copy = V.Prepared;
    constructSsa(Copy);
    Cfg C(Copy);
    DomTree DT = DomTree::buildDominators(C);
    std::ofstream Out(Opts.DotFrgPath, std::ios::app);
    std::optional<Profile> NodeProf;
    if (V.Prof)
      NodeProf = V.Prof->withoutEdgeFreqs();
    FrgContext Ctx(Copy, C, DT, collectCandidateExprs(Copy));
    for (unsigned EI = 0; EI != Ctx.exprs().size(); ++EI) {
      const ExprKey &E = Ctx.exprs()[EI];
      Frg G(Ctx, EI);
      if (NodeProf && !E.canFault())
        computeSpeculativePlacement(G, *NodeProf, Opts.Req.Placement,
                                    Opts.Req.Algo, Opts.Req.Objective);
      Out << frgToDot(G, NodeProf ? &*NodeProf : nullptr);
    }
  }

  if (Opts.Stats) {
    appendFormat(Resp.StdoutText, "; per-expression statistics (%s):\n",
                 strategyName(Opts.Req.Strategy));
    for (const ExprStatsRecord &R : V.Stats.records())
      appendFormat(Resp.StdoutText,
                   ";   %-20s frg=%up+%ur efg=%s%u ins=%u reload=%u save=%u\n",
                   R.Expr.c_str(), R.FrgPhis, R.FrgReals,
                   R.EfgEmpty ? "-" : "", R.EfgEmpty ? 0 : R.EfgNodes,
                   R.NumInsertions, R.NumReloads, R.NumSaves);
  }

  if (Opts.RunArgs) {
    if (Opts.RunArgs->size() != V.Prepared.Params.size()) {
      Resp.StderrText += "error: --run argument count mismatch\n";
      return 1;
    }
    ExecResult Before = interpret(V.Prepared, *Opts.RunArgs);
    ExecResult After = interpret(V.Optimized, *Opts.RunArgs);
    appendRunReport(Resp.StdoutText, "before", Before);
    appendRunReport(Resp.StdoutText, "after ", After);
    if (!Before.sameObservableBehavior(After)) {
      Resp.StderrText += "error: behavior changed!\n";
      return 1;
    }
  }
  return 0;
}

/// Client mode: ship the compile to a specpre-serve daemon and replay
/// its streams, so `specpre-opt --connect=S file` is a drop-in for the
/// local run: same stdout, stderr and exit code (docs/SERVING.md).
int runClientMode(ToolOptions &Opts) {
  // Flags whose effects are local side channels (files written here,
  // interpretation of the *input*) cannot be delegated; reject loudly
  // rather than silently compiling something else.
  const char *Unsupported = nullptr;
  if (!Opts.DotCfgPath.empty() || !Opts.DotFrgPath.empty())
    Unsupported = "--dot-cfg/--dot-frg";
  else if (Opts.RunArgs)
    Unsupported = "--run";
  else if (Opts.Stats)
    Unsupported = "--stats";
  else if (!Opts.ProfileOutPath.empty())
    Unsupported = "--profile-out";
  else if (!Opts.MetricsOutPath.empty())
    Unsupported = "--metrics-out";
  else if (!Opts.InjectFaults.empty())
    Unsupported = "--inject-faults";
  else if (!Opts.CacheDir.empty() || Opts.Cache || Opts.CacheDurable ||
           Opts.CacheScrub)
    Unsupported = "--cache-dir/--cache (the daemon owns the cache)";
  else if (Opts.JobsGiven)
    Unsupported = "--jobs (the daemon owns the pool)";
  if (Unsupported) {
    std::fprintf(stderr, "error: %s is not supported with --connect\n",
                 Unsupported);
    return 2;
  }

  if (!loadRequestFiles(Opts))
    return 1;

  // One attempt over a fresh connection. Distinguishes transport damage
  // (retryable: the daemon never judged the request) from request-level
  // verdicts (terminal: retrying would just replay the same answer —
  // or worse, re-poke a quarantined request). The daemon marks 'E'
  // frames caused by transport damage with a "frame-error: " prefix.
  const std::string Encoded = encodeServeRequest(Opts.Req);
  enum class Attempt { Done, Retry, Fatal };
  int ExitCode = 1;
  auto TryOnce = [&](std::string &Why) -> Attempt {
    Expected<Socket> Conn = connectUnix(Opts.ConnectPath, 5000);
    if (!Conn) {
      Why = "cannot connect to '" + Opts.ConnectPath +
            "': " + Conn.status().message();
      return Attempt::Retry;
    }
    if (Status St = writeFrame(*Conn, 'C', Encoded, Opts.TimeoutMs); !St) {
      Why = "send failed: " + St.message();
      return Attempt::Retry;
    }
    Frame F;
    bool PeerClosed = false;
    if (Status St = readFrame(*Conn, F, PeerClosed, Opts.TimeoutMs); !St) {
      Why = "receive failed: " + St.message();
      return Attempt::Retry;
    }
    if (PeerClosed) {
      Why = "daemon closed the connection";
      return Attempt::Retry;
    }
    if (F.Type == 'B') {
      Why = "daemon busy: " + F.Payload;
      return Attempt::Retry;
    }
    if (F.Type == 'E') {
      if (F.Payload.rfind("frame-error: ", 0) == 0) {
        Why = "daemon: " + F.Payload;
        return Attempt::Retry; // our frame arrived torn; resend it
      }
      std::fprintf(stderr, "error: daemon: %s\n", F.Payload.c_str());
      return Attempt::Fatal;
    }
    if (F.Type != 'R') {
      Why = std::string("unexpected frame type '") + F.Type + "'";
      return Attempt::Retry;
    }
    ServeResponse Resp;
    std::string Error;
    if (!decodeServeResponse(F.Payload, Resp, Error)) {
      Why = "bad response: " + Error;
      return Attempt::Retry; // response torn in transit; ask again
    }
    if (!Resp.Ok) {
      std::fprintf(stderr, "error: daemon: %s\n", Resp.Error.c_str());
      return Attempt::Fatal;
    }
    std::fwrite(Resp.StdoutText.data(), 1, Resp.StdoutText.size(), stdout);
    std::fwrite(Resp.StderrText.data(), 1, Resp.StderrText.size(), stderr);
    ExitCode = Resp.ExitCode;
    return Attempt::Done;
  };

  // splitmix64: deterministic jitter so two clients retrying the same
  // busy daemon desynchronize without any shared state or wall clock.
  auto Mix = [](uint64_t X) {
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  };
  for (unsigned A = 0;; ++A) {
    std::string Why;
    switch (TryOnce(Why)) {
    case Attempt::Done:
      return ExitCode;
    case Attempt::Fatal:
      return 1;
    case Attempt::Retry:
      if (A >= Opts.Retries) {
        std::fprintf(stderr, "error: %s (after %u attempt%s)\n",
                     Why.c_str(), A + 1, A ? "s" : "");
        return 1;
      }
      // Exponential backoff, capped, plus seeded jitter in [0, base/2).
      uint64_t BaseMs = std::min<uint64_t>(25ull << std::min(A, 7u), 2000);
      uint64_t Jitter = Mix(Opts.RetrySeed * 0x100000001b3ULL + A) %
                        (BaseMs / 2 + 1);
      std::fprintf(stderr,
                   "specpre-opt: retrying in %llu ms (attempt %u/%u): %s\n",
                   static_cast<unsigned long long>(BaseMs + Jitter), A + 1,
                   Opts.Retries, Why.c_str());
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BaseMs + Jitter));
      break;
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  installCrashSignalHandlers();
  ToolOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);

  if (!Opts.ConnectPath.empty())
    return runClientMode(Opts);

  if (Opts.RetryFlagsGiven) {
    std::fprintf(stderr, "error: --timeout-ms/--retries/--retry-seed "
                         "require --connect\n");
    return 2;
  }

  if (!Opts.InjectFaults.empty()) {
    Status S = configureFaultInjection(Opts.InjectFaults);
    if (!S.isOk()) {
      std::fprintf(stderr, "error: --inject-faults: %s\n",
                   S.message().c_str());
      return 2;
    }
  }

  if (Opts.CacheScrub) {
    if (Opts.CacheDir.empty()) {
      std::fprintf(stderr, "error: --cache-scrub requires --cache-dir\n");
      return 2;
    }
    CompileCache::Config CC;
    CC.DiskDir = Opts.CacheDir;
    CompileCache Cache(CC);
    CompileCache::ScrubReport R = Cache.scrubDiskTier();
    std::fprintf(stderr,
                 "cache-scrub: scanned=%llu quarantined=%llu "
                 "read_failures=%llu bytes=%llu\n",
                 static_cast<unsigned long long>(R.Scanned),
                 static_cast<unsigned long long>(R.Quarantined),
                 static_cast<unsigned long long>(R.ReadFailures),
                 static_cast<unsigned long long>(R.BytesRead));
    return 0;
  }

  if (!loadRequestFiles(Opts))
    return 1;

  ParallelPreDriver Driver(ParallelConfig{Opts.Jobs});
  PipelineMetrics Metrics;
  bool WantMetrics = !Opts.MetricsOutPath.empty();

  // --cache-dir alone implies --cache=on; --cache=off wins regardless.
  CacheMode Mode = Opts.Cache.value_or(Opts.CacheDir.empty()
                                           ? CacheMode::Off
                                           : CacheMode::On);
  std::unique_ptr<CompileCache> Cache;
  if (Mode != CacheMode::Off) {
    CompileCache::Config CC;
    CC.DiskDir = Opts.CacheDir;
    CC.Durable = Opts.CacheDurable;
    CC.Mode = Mode;
    Cache = std::make_unique<CompileCache>(CC);
  }

  // Local mode is the daemon's request pipeline run in this process, so
  // its streams and exit code are the ones --connect would replay.
  ServeResponse Resp = processServeRequest(
      Opts.Req, Driver, Cache.get(), WantMetrics ? &Metrics : nullptr,
      [&](const ServeFunctionView &V, ServeResponse &Out) {
        return writeSideChannels(Opts, V, Out);
      });
  std::fwrite(Resp.StdoutText.data(), 1, Resp.StdoutText.size(), stdout);
  std::fwrite(Resp.StderrText.data(), 1, Resp.StderrText.size(), stderr);
  if (Resp.ExitCode)
    return Resp.ExitCode;

  CacheCounters CacheStats;
  if (Cache) {
    CacheStats = Cache->counters();
    Metrics.cache() = CacheStats;
    // Summary on stderr so stdout stays bit-identical with and without
    // the cache.
    std::fprintf(
        stderr,
        "cache: hits=%llu misses=%llu stores=%llu evictions=%llu "
        "disk_hits=%llu disk_writes=%llu verify_mismatches=%llu "
        "corrupt_dropped=%llu disk_io_errors=%llu breaker_opens=%llu\n",
        static_cast<unsigned long long>(CacheStats.Hits),
        static_cast<unsigned long long>(CacheStats.Misses),
        static_cast<unsigned long long>(CacheStats.Stores),
        static_cast<unsigned long long>(CacheStats.Evictions),
        static_cast<unsigned long long>(CacheStats.DiskHits),
        static_cast<unsigned long long>(CacheStats.DiskWrites),
        static_cast<unsigned long long>(CacheStats.VerifyMismatches),
        static_cast<unsigned long long>(CacheStats.CorruptDropped),
        static_cast<unsigned long long>(CacheStats.DiskIoErrors),
        static_cast<unsigned long long>(CacheStats.BreakerOpens));
  }

  if (WantMetrics) {
    std::ofstream Out(Opts.MetricsOutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.MetricsOutPath.c_str());
      return 1;
    }
    char Header[64];
    std::snprintf(Header, sizeof(Header), "{\"jobs\": %u,\n\"steps\": ",
                  Driver.jobs());
    Out << Header << Metrics.toJson() << ",\n\"robustness\": "
        << Metrics.robustnessToJson() << ",\n\"lospre\": "
        << Metrics.lospreToJson() << ",\n\"cache\": "
        << Metrics.cacheToJson() << "}\n";
  }

  if (CacheStats.VerifyMismatches) {
    std::fprintf(stderr,
                 "error: --cache=verify found %llu mismatching cache "
                 "entr%s\n",
                 static_cast<unsigned long long>(CacheStats.VerifyMismatches),
                 CacheStats.VerifyMismatches == 1 ? "y" : "ies");
    return 1;
  }
  return 0;
}
