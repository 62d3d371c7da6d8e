//===- perfbench/perfbench.h - Repository benchmark: shared pieces ------===//
//
// The benchmark drives the public request path of the specpre library
// (processServeRequest, ServeServer) on three workloads and checks every
// output. See NOTES.md for the workloads, metrics and the traced run.
//
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PERFBENCH_H
#define SPECPRE_PERFBENCH_H

#include "interp/Interpreter.h"
#include "ir/Ir.h"
#include "pre/CompileService.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

inline double msBetween(Clock::time_point T0, Clock::time_point T1) {
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// Machine-speed gauge (gauge.cpp): a fixed kernel of the benchmark's own,
/// timed between or beside the measured work. The timed runs report every
/// time scaled to the speed at which the kernel takes ReferenceMs, so that
/// the shared host's changing speed cancels out of them.
class SpeedGauge {
public:
  /// About the kernel's median time on the 4-core x86-64 container
  /// NOTES.md describes; it only sets the scale of the reported times.
  static constexpr double ReferenceMs = 2.7;
  /// The kernel allocates from an arena of its own (it needs under
  /// 256 KiB), so the library's heap does not change its speed.
  static constexpr size_t ArenaBytes = 1u << 20;

  SpeedGauge();
  ~SpeedGauge();
  /// Samples on the calling thread after \p WorkMs of measured work: for
  /// a twentieth of that time, and at least once.
  void after(double WorkMs);
  /// Samples on a thread of the gauge's own, at a tenth of one core,
  /// until stop(). For work that runs on other threads; not combined with
  /// after(), as both run the kernel in the one arena.
  void start();
  void stop();
  /// The factor that scales a time measured over [T0, T1] to reference
  /// speed: ReferenceMs over the median kernel time of the samples taken
  /// within a second of the interval, and at least the 15 nearest.
  double scale(Clock::time_point T0, Clock::time_point T1) const;
  double medianMs() const;
  size_t samples() const;

private:
  struct Sample {
    Clock::time_point At;
    double Ms;
  };
  /// Runs the kernel once on the calling thread; returns its time in ms.
  double sample();

  std::unique_ptr<std::byte[]> Arena;
  mutable std::mutex Mu;
  std::vector<Sample> Samples;
  std::thread Thread;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Sink{0};
};

/// Which of the workload's correctness gates a run deliberately breaks,
/// so the benchmark's own tests can show that each gate fails the run.
enum class BreakGate {
  None,
  Miscompile, ///< First checked output gets a wrong return value.
  Response,   ///< First served response gets one byte flipped.
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string SpansOut;
  BreakGate Break = BreakGate::None;
};

/// One distinct request of a workload, with everything its gates need.
struct Request {
  std::string Name;
  specpre::ServeRequest Req;
  /// The prepared source and its run on the reference inputs: the
  /// interpreter-equivalence oracle for this request's output.
  specpre::Function Prepared;
  std::vector<int64_t> RefArgs;
  specpre::ExecResult RefRun;
  unsigned Stmts = 0;    ///< Prepared statement count (input size).
  unsigned Computes = 0; ///< Static Compute statements of the source.
  /// Back-to-back runs per round on corpus_cli and chain_ladder: the
  /// small chain rungs repeat so that their medians get more samples.
  unsigned Reps = 1;
};

/// Builds the workload's distinct requests from the seed: generation,
/// printing, preparation and the reference interpretation.
std::vector<Request> buildRequests(const Options &O);

/// Attempted/failed accounting across every gate of a run.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void note(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
};

/// The request produced a clean, undegraded MC-SSAPRE answer.
bool responseClean(const specpre::ServeResponse &R);

/// Geometric means of optimized/unoptimized per output.
struct Quality {
  double LogDyn = 0, LogCycles = 0, LogSize = 0;
  unsigned N = 0;
  double dyn() const;
  double cycles() const;
  double size() const;
};

/// Interpreter-equivalence gate: parses the optimized IR out of \p R,
/// runs it on the request's reference inputs and compares with the
/// source's run. Accumulates the quality ratios into \p Q when it
/// passes. \p Miscompile corrupts the parsed function first (gate test).
bool checkOutput(const Request &Req, const specpre::ServeResponse &R,
                 Quality &Q, bool Miscompile);

/// A metric as printed in the result line.
struct Metric {
  double Value = 0;
  const char *Unit = "";
};

using MetricMap = std::map<std::string, Metric>;

double median(std::vector<double> V);

/// Seeded visiting order of \p N items.
std::vector<size_t> shuffledOrder(size_t N, uint64_t Seed);

/// The optimized IR of a response: its stdout minus the report lines.
std::string optimizedIr(const std::string &Stdout);

/// Traced runs (trace.cpp). Each fills \p M with every per-layer metric
/// and accounts its requests in \p T.
void traceLocalWorkload(const Options &O, MetricMap &M, Tally &T);
void traceServeWorkload(const Options &O, const std::string &SocketPath,
                        MetricMap &M, Tally &T);

/// The serve_mixed traffic, shared by the timed and the traced run.
struct ServeSample {
  size_t Request = 0; ///< Index into the workload's requests.
  bool Hit = false;
  Clock::time_point Start, End;
  double Ms = 0;
  double CodecMs = 0; ///< Client-side encode + decode.
  bool Repeats = true; ///< Same answer as the first to this request.
};

struct ServeTraffic {
  std::vector<ServeSample> Samples;
  Clock::time_point Start, End;
  double WallMs = 0;
  /// First response per request, for the bit-identity gate.
  std::map<size_t, specpre::ServeResponse> FirstResponse;
  /// Every request sent; the failed ones are those lost in transport
  /// (they have no sample).
  Tally Sent;
};

/// The serve_mixed requests: [0, N) are the suite under training
/// arguments (the hits), [N, 2N) and [2N, 3N) the same programs trained
/// on their reference arguments under two new names (the misses).
inline size_t serveHits(const std::vector<Request> &Reqs) {
  return Reqs.size() / 3;
}

/// Two clients, one connection each, send the hits round after round and
/// every miss once.
ServeTraffic runServeTraffic(const std::string &SocketPath,
                             const std::vector<Request> &Reqs,
                             const Options &O);

/// Serve set-up: starts the daemon and fills its cache with the hits.
/// Returns the fill wall time in ms.
double fillServeCache(const std::string &SocketPath,
                      const std::vector<Request> &Reqs, ServeTraffic &Fill);

std::unique_ptr<specpre::ServeServer> startServer(const std::string &Path);

} // namespace perfbench

#endif // SPECPRE_PERFBENCH_H
