//===- pre/CompileService.h - Long-lived compilation service ---*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation service behind specpre-serve (docs/SERVING.md): a
/// long-lived front end over the batch pipeline that lets many clients
/// share one warm process — one work-stealing ThreadPool, one
/// content-addressed CompileCache (memory LRU + shared disk tier) — so
/// repeat compilations of the same function/profile/options are served
/// from cache no matter which client asks.
///
/// Three layers, separable for testing:
///
///  * ServeRequest / ServeResponse — the payload schema of the 'C'/'R'
///    frames, encoded with the same checked line codec the cache
///    payloads use (support/LineCodec.h). A request is a whole module
///    plus the options of specpre-opt that shape its output; the
///    response carries the streams and the exit code.
///
///  * processServeRequest — the one request pipeline. specpre-opt's
///    local mode, the daemon's request workers and the forked sandbox
///    worker all run it, so a local run and a daemon run print the same
///    stdout and stderr and exit with the same code by construction:
///    the --connect client just replays the streams.
///
///  * CompileService — the request queue. submit() enqueues and returns
///    a future; a small pool of request workers dequeues and runs each
///    request through processServeRequest (full degradation ladder,
///    budgets, metrics). Request workers only orchestrate — the
///    functions of one request fan out over the shared ThreadPool,
///    which is safe to drive from several requests at once.
///
///  * ServeServer — the socket front end: accept loop, per-connection
///    reader threads, frame dispatch ('P' ping, 'C' compile, 'S' stats),
///    graceful drain on stop (in-flight requests finish, their
///    responses are delivered, then connections close).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_COMPILESERVICE_H
#define SPECPRE_PRE_COMPILESERVICE_H

#include "interp/Interpreter.h"
#include "pre/ParallelDriver.h"
#include "profile/Profile.h"
#include "support/CompileCache.h"
#include "support/Socket.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace specpre {

/// One compile request: a module plus the batch-tool options that affect
/// its output. specpre-opt parses its command line straight into one;
/// the purely local concerns (file paths, DOT export, --run, fault
/// injection) stay in the tool.
struct ServeRequest {
  std::string ModuleText;
  PreStrategy Strategy = PreStrategy::McSsaPre;
  CutPlacement Placement = CutPlacement::Latest;
  MaxFlowAlgorithm Algo = MaxFlowAlgorithm::Dinic;
  CutObjective Objective = CutObjective::speed();
  CompileBudget Budget;
  /// Leg D's treewidth budget (PreOptions::LospreMaxWidth). Only on the
  /// wire when Strategy is Lospre; otherwise the default is implied.
  unsigned LospreMaxWidth = 8;
  /// Arguments for the profile-collection run; required by the
  /// profile-guided strategies unless ProfileText is given.
  std::optional<std::vector<int64_t>> TrainArgs;
  /// A serialized profile (profile/Profile.h) to use instead of
  /// training; empty = train.
  std::string ProfileText;
  std::string OnlyFunction; ///< Restrict to one function; empty = all.
  bool Emit = true;
  bool Cleanup = false;
  bool Gvn = false;
  bool OutOfSsa = false;
  bool ReportOutcomes = false;
};

/// The result of one request: the streams a local specpre-opt run with
/// the same options would have produced, plus its exit code.
struct ServeResponse {
  bool Ok = false;          ///< Request was understood and executed.
  std::string Error;        ///< Decode/validation failure (when !Ok).
  std::string StdoutText;   ///< Byte-identical to the batch tool's stdout.
  std::string StderrText;   ///< Diagnostics (degradations, errors).
  int ExitCode = 0;         ///< The batch tool's exit code.
  /// The ladder gave up a rung somewhere inside the request, so the
  /// output is explicitly degraded rather than the requested strategy's
  /// (the chaos harness treats these as acceptable non-identical).
  bool Degraded = false;
  /// The request killed enough sandbox workers to be quarantined; the
  /// server answers it with an 'E' frame, never retries it.
  bool Quarantined = false;
};

/// Request payload codec for the 'C' frame. decode rejects unknown
/// directives, bad integers and missing sections with a diagnostic.
std::string encodeServeRequest(const ServeRequest &R);
bool decodeServeRequest(const std::string &Payload, ServeRequest &Out,
                        std::string &Error);

/// Response payload codec for the 'R' frame.
std::string encodeServeResponse(const ServeResponse &R);
bool decodeServeResponse(const std::string &Payload, ServeResponse &Out,
                         std::string &Error);

/// Appends the "<label>: ret=... computations=... cycles=..." line that
/// reports an interpreter run (the training run, specpre-opt --run).
void appendRunReport(std::string &Out, const char *Label,
                     const ExecResult &R);

/// One function of a request after it was compiled and emitted.
struct ServeFunctionView {
  const Function &Prepared;  ///< The prepared input (what training ran).
  const Profile *Prof;       ///< Full profile; null when none was needed.
  const Function &Optimized; ///< After PRE and the requested cleanups.
  const PreStats &Stats;     ///< This function's per-expression records.
};

/// Per-function callback of processServeRequest: appends to the
/// response's streams and returns an exit code; non-zero stops the
/// request there, as a failed training run does.
using ServeFunctionHook =
    std::function<int(const ServeFunctionView &, ServeResponse &)>;

/// Runs \p R against the given driver/cache: parse, then three passes
/// over the selected functions. Pass 1 prepares and profiles them in
/// order, stopping at the first failure; pass 2 compiles the ones that
/// passed down the ladder through Driver.compileCorpus (one pool task
/// per function); pass 3 cleans up, emits and calls \p OnFunction for
/// each in order, so the streams are those of a one-function-at-a-time
/// run at any job count. The synchronous core of CompileService and of
/// specpre-opt's local mode; \p OnFunction carries the tool's local side
/// channels.
ServeResponse processServeRequest(const ServeRequest &R,
                                  ParallelPreDriver &Driver,
                                  CompileCache *Cache,
                                  PipelineMetrics *Metrics,
                                  const ServeFunctionHook &OnFunction = {});

/// How a request worker runs the compile itself.
enum class IsolationMode {
  /// In the daemon's own address space (fast path, the default). A
  /// request that segfaults takes the daemon with it.
  InProcess,
  /// In a forked sandbox worker per request, talking SPV1 frames to the
  /// supervisor over a socketpair. A worker that crashes, blows the
  /// deadline, or exceeds the memory cap is reaped and the request is
  /// answered degraded/errored; the daemon survives.
  Process,
};

class CompileService {
public:
  struct Config {
    /// Compile-pipeline workers of the shared ThreadPool (0 = cores).
    unsigned Jobs = 1;
    /// Concurrent requests in execution; queue beyond that.
    unsigned RequestWorkers = 2;
    /// Shared cache tier: directory (empty = memory-only), capacities.
    std::string CacheDir;
    uint64_t CacheMaxEntries = 4096;
    uint64_t CacheMaxDiskBytes = 0;
    /// Durable disk publishes: fsync entry + directory before rename
    /// (docs/CACHING.md "Durability and self-healing").
    bool CacheDurable = false;
    /// Disk-tier circuit breaker: consecutive failures that open it
    /// (0 = disabled) and the cooldown before half-open probes.
    uint64_t CacheBreakerThreshold = 8;
    uint64_t CacheBreakerCooldownMs = 2000;
    /// Background scrubber cadence: every N ms the scrubber thread
    /// walks the disk tier validating checksums and quarantining
    /// corrupt entries. 0 = no scrubber thread.
    uint64_t CacheScrubIntervalMs = 0;
    /// Byte-rate limit for each scrub pass (0 = unthrottled).
    uint64_t CacheScrubBytesPerSec = 4u << 20;
    CacheMode Mode = CacheMode::On;
    /// Crash containment (docs/ROBUSTNESS.md).
    IsolationMode Isolation = IsolationMode::InProcess;
    /// Hard per-request wall-clock deadline, enforced daemon-side. In
    /// process mode a worker past it is SIGKILLed; in-process it clamps
    /// the compile budget's DeadlineMillis (soft: training/emission are
    /// not interruptible without a process boundary). 0 = none.
    uint64_t RequestDeadlineMs = 0;
    /// RLIMIT_DATA cap for sandbox workers, in MiB (0 = none).
    uint64_t WorkerMemLimitMb = 0;
    /// A request whose workers die this many times is quarantined:
    /// answered 'E', never forked again.
    unsigned QuarantineAfter = 3;
    /// Bounded queue depth (queued, not in-flight); trySubmit sheds
    /// beyond it. 0 = unbounded. submit() ignores the bound.
    uint64_t QueueMaxDepth = 0;
  };

  explicit CompileService(const Config &C);
  ~CompileService();

  /// Enqueues \p R; the future resolves when a request worker finishes
  /// it. Never blocks on compilation. Fails the future with Ok=false
  /// after shutdown() has begun.
  std::future<ServeResponse> submit(ServeRequest R);

  /// submit() with backpressure: returns false — and leaves \p Out
  /// untouched — when QueueMaxDepth requests are already queued, bumping
  /// the shed counter. The socket front end answers such requests with a
  /// 'B' (busy) frame instead of growing the queue without bound.
  bool trySubmit(ServeRequest R, std::future<ServeResponse> &Out);

  /// Blocks until every submitted request has completed.
  void drain();

  /// Drains, then stops the request workers. Idempotent.
  void shutdown();

  /// Counts a request that failed before reaching the queue (an
  /// undecodable 'C' payload), so the service counters cover every
  /// request a client sent, not just the well-formed ones.
  void noteProtocolFailure();

  /// Snapshot of the merged pipeline metrics (steps, robustness, cache,
  /// service counters) across all requests so far.
  PipelineMetrics metricsSnapshot() const;

  /// The cache shared by all requests; null when Mode is Off.
  CompileCache *cache() { return Cache.get(); }

  unsigned jobs() const { return Driver.jobs(); }

private:
  struct Pending {
    ServeRequest Req;
    std::promise<ServeResponse> Result;
    std::chrono::steady_clock::time_point Submitted;
  };

  void workerLoop();

  /// Runs \p R per Cfg.Isolation, accumulating into \p Shard.
  ServeResponse executeRequest(const ServeRequest &R,
                               PipelineMetrics &Shard);

  /// Process mode: forks sandbox workers for \p R, reaping crashes and
  /// deadline overruns, retrying up to the quarantine threshold.
  ServeResponse superviseRequest(const ServeRequest &R,
                                 PipelineMetrics &Shard);

  std::future<ServeResponse> enqueue(ServeRequest R, bool Bounded,
                                     bool &Shed);

  Config Cfg;
  ParallelPreDriver Driver;
  std::unique_ptr<CompileCache> Cache;

  mutable std::mutex Mu;
  std::condition_variable QueueCv; ///< Signals workers: work or stop.
  std::condition_variable IdleCv;  ///< Signals drain(): all quiet.
  std::deque<std::unique_ptr<Pending>> Queue;
  unsigned InFlight = 0; ///< Dequeued, not yet completed.
  bool Stopping = false;
  PipelineMetrics Metrics; ///< Merged shards of finished requests.
  /// Hashes of requests that killed QuarantineAfter workers; never
  /// forked for again (poisoned-request containment).
  std::unordered_set<uint64_t> Quarantine;
  std::vector<std::thread> Workers;
  /// Background disk-tier scrubber (Cfg.CacheScrubIntervalMs > 0):
  /// cv-signalled so shutdown() never waits out a sleep interval.
  std::thread Scrubber;
  std::mutex ScrubStopMu;
  std::condition_variable ScrubStopCv;
  bool ScrubStop = false;
};

/// The socket front end: owns a CompileService and serves the framed
/// protocol on a Unix-domain socket.
class ServeServer {
public:
  struct Config {
    std::string SocketPath;
    int IoTimeoutMs = 10000; ///< Per-frame read/write budget.
    /// Exit after this many compile requests (0 = unlimited); the
    /// smoke tests use it to bound a daemon's lifetime.
    uint64_t MaxRequests = 0;
    CompileService::Config Service;
  };

  explicit ServeServer(const Config &C);
  ~ServeServer();

  /// Binds and starts the accept loop. Refuses (ResourceLimit) to start
  /// when another live daemon is already serving the socket path —
  /// stale files from a dead daemon are still replaced silently.
  /// InvalidInput/InternalError on socket failures.
  Status start();

  /// Initiates a graceful stop: stop accepting, let in-flight requests
  /// finish and their responses flush, close connections, unlink the
  /// socket file. Safe to call from a signal-triggered watcher thread.
  /// Returns once fully stopped.
  void stop();

  /// True once MaxRequests has been reached (the main loop then stops).
  bool servedEnough() const;

  /// Blocks until stop() completes (or MaxRequests triggers one).
  void wait();

  CompileService &service() { return Service; }

private:
  void acceptLoop();
  void handleConnection(Socket Conn);
  std::string statsJson() const;

  Config Cfg;
  CompileService Service;
  Socket Listener;
  std::atomic<bool> StopRequested{false};
  std::atomic<bool> Stopped{false};
  std::atomic<uint64_t> CompileRequests{0};
  std::thread Acceptor;
  std::mutex ConnMu;
  std::vector<std::thread> ConnThreads;
  std::mutex StopMu; ///< Serializes stop() callers.
};

} // namespace specpre

#endif // SPECPRE_PRE_COMPILESERVICE_H
