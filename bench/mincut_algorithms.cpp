//===- bench/mincut_algorithms.cpp - Max-flow algorithm comparison --------------===//
//
// The paper's step 7 cites Chekuri et al.'s experimental study of
// minimum-cut algorithms and uses an O(V^2 sqrt(E)) algorithm. This
// binary compares our two max-flow implementations (Edmonds-Karp and
// Dinic, the production solver) and the leg D treewidth DP
// (mincut/TreewidthCut.h) on four input families:
//
//   * EFG-shaped networks harvested from compiling generated programs
//     (small, sparse, a few parallel source edges and infinite sink
//     edges — the workload MC-SSAPRE actually produces),
//   * deep chains (the largest-EFG shape: augmenting-path length grows
//     with the network, so phase-based solvers pay per-phase BFS costs),
//   * dense random networks (the classic stress shape; the treewidth
//     solver bails out here by design — its width cap refuses them),
//   * width-4 grids of growing height (leg D's native bounded-treewidth
//     family: the DP is linear in height, max flow is not).
//
// Two modes:
//
//   mincut_algorithms [google-benchmark flags]
//       interactive google-benchmark run over all captures.
//
//   mincut_algorithms --json-out=PATH [--smoke]
//       self-timed suite: measures every (family, size, algorithm)
//       cell, cross-checks that all algorithms report the same flow
//       value and the identical earliest cut (exit 1 on disagreement),
//       and writes the measurements as JSON (the committed
//       BENCH_mincut.json). --smoke shrinks sizes and iteration counts
//       for CI.
//
//===----------------------------------------------------------------------===//

#include "mincut/MinCut.h"
#include "mincut/TreewidthCut.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <iterator>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace specpre;

namespace {

/// Builds an EFG-shaped network: a layered DAG with bottom edges from
/// the source, chains of phi-to-phi edges, and infinite sink edges —
/// statistically similar to the EFGs MC-SSAPRE forms (predominantly 4-30
/// nodes, with occasional larger ones).
FlowNetwork efgShaped(Rng &R, int NumPhis, int NumReals) {
  FlowNetwork Net;
  int S = Net.addNode();
  int T = Net.addNode();
  std::vector<int> Phis, Reals;
  for (int I = 0; I != NumPhis; ++I)
    Phis.push_back(Net.addNode());
  for (int I = 0; I != NumReals; ++I)
    Reals.push_back(Net.addNode());
  for (int I = 0; I != NumPhis; ++I) {
    // Every phi gets 1-2 incoming edges: from the source (bottom
    // operands) or an earlier phi.
    int InEdges = 1 + static_cast<int>(R.nextBelow(2));
    for (int E = 0; E != InEdges; ++E) {
      int64_t W = static_cast<int64_t>(R.nextInRange(1, 1000));
      if (I == 0 || R.chance(2, 5))
        Net.addEdge(S, Phis[I], W);
      else
        Net.addEdge(Phis[R.nextBelow(I)], Phis[I], W);
    }
  }
  for (int I = 0; I != NumReals; ++I) {
    int DefPhi = Phis[R.nextBelow(NumPhis)];
    Net.addEdge(DefPhi, Reals[I],
                static_cast<int64_t>(R.nextInRange(1, 1000)));
    Net.addEdge(Reals[I], T, InfiniteCapacity);
  }
  return Net;
}

/// The adversarial largest-EFG shape: a long phi chain with a couple of
/// real occurrences hanging off each tail segment. Augmenting paths are
/// as long as the chain, so Edmonds-Karp and Dinic rebuild their BFS
/// levelings O(depth) times.
FlowNetwork deepChain(Rng &R, int Depth) {
  FlowNetwork Net;
  int S = Net.addNode();
  int T = Net.addNode();
  int Prev = -1;
  for (int I = 0; I != Depth; ++I) {
    int N = Net.addNode();
    if (Prev < 0 || R.chance(1, 16))
      Net.addEdge(S, N, static_cast<int64_t>(R.nextInRange(1, 1000)));
    if (Prev >= 0)
      Net.addEdge(Prev, N, static_cast<int64_t>(R.nextInRange(1, 1000)));
    if (R.chance(1, 8)) {
      int Real = Net.addNode();
      Net.addEdge(N, Real, static_cast<int64_t>(R.nextInRange(1, 1000)));
      Net.addEdge(Real, T, InfiniteCapacity);
    }
    Prev = N;
  }
  int Real = Net.addNode();
  Net.addEdge(Prev, Real, static_cast<int64_t>(R.nextInRange(1, 1000)));
  Net.addEdge(Real, T, InfiniteCapacity);
  return Net;
}

/// Leg D's native shape: a W-column grid of Height rows (treewidth W),
/// source feeding the first row, last row draining to the sink. The
/// bounded width makes the treewidth DP linear in Height while the
/// max-flow solvers keep paying for ever-longer augmenting paths — the
/// comparison behind PreStrategy::Lospre.
FlowNetwork gridNetwork(Rng &R, int Width, int Height) {
  FlowNetwork Net;
  int S = Net.addNode();
  int T = Net.addNode();
  std::vector<int> Cells(static_cast<size_t>(Width * Height));
  for (int &C : Cells)
    C = Net.addNode();
  auto At = [&](int I, int J) { return Cells[static_cast<size_t>(J * Width + I)]; };
  for (int I = 0; I != Width; ++I) {
    Net.addEdge(S, At(I, 0), static_cast<int64_t>(R.nextInRange(1, 1000)));
    Net.addEdge(At(I, Height - 1), T,
                static_cast<int64_t>(R.nextInRange(1, 1000)));
  }
  for (int J = 0; J != Height; ++J)
    for (int I = 0; I != Width; ++I) {
      if (I + 1 != Width)
        Net.addEdge(At(I, J), At(I + 1, J),
                    static_cast<int64_t>(R.nextInRange(1, 1000)));
      if (J + 1 != Height)
        Net.addEdge(At(I, J), At(I, J + 1),
                    static_cast<int64_t>(R.nextInRange(1, 1000)));
    }
  return Net;
}

FlowNetwork denseRandom(Rng &R, int N) {
  FlowNetwork Net(N);
  for (int U = 0; U != N; ++U)
    for (int V = 0; V != N; ++V)
      if (U != V && R.chance(1, 3))
        Net.addEdge(U, V, static_cast<int64_t>(R.nextInRange(1, 100)));
  return Net;
}

void BM_EfgShaped(benchmark::State &State, MaxFlowAlgorithm Algo) {
  int Phis = static_cast<int>(State.range(0));
  Rng R(42);
  FlowNetwork Net = efgShaped(R, Phis, Phis / 2 + 1);
  for (auto _ : State) {
    Net.resetFlow();
    benchmark::DoNotOptimize(
        computeMaxFlow(Net, 0, 1, Algo));
  }
  State.SetLabel(std::to_string(Net.numNodes()) + " nodes");
}

void BM_DeepChain(benchmark::State &State, MaxFlowAlgorithm Algo) {
  int Depth = static_cast<int>(State.range(0));
  Rng R(23);
  FlowNetwork Net = deepChain(R, Depth);
  for (auto _ : State) {
    Net.resetFlow();
    benchmark::DoNotOptimize(computeMaxFlow(Net, 0, 1, Algo));
  }
  State.SetLabel(std::to_string(Net.numNodes()) + " nodes");
}

void BM_Grid(benchmark::State &State, MaxFlowAlgorithm Algo) {
  int Height = static_cast<int>(State.range(0));
  Rng R(61);
  FlowNetwork Net = gridNetwork(R, 4, Height);
  for (auto _ : State) {
    Net.resetFlow();
    benchmark::DoNotOptimize(computeMaxFlow(Net, 0, 1, Algo));
  }
  State.SetLabel(std::to_string(Net.numNodes()) + " nodes");
}

void BM_GridTreewidthCut(benchmark::State &State) {
  int Height = static_cast<int>(State.range(0));
  Rng R(61);
  FlowNetwork Net = gridNetwork(R, 4, Height);
  for (auto _ : State)
    benchmark::DoNotOptimize(computeTreewidthMinCut(Net, 0, 1, 16));
  State.SetLabel(std::to_string(Net.numNodes()) + " nodes");
}

void BM_DenseRandom(benchmark::State &State, MaxFlowAlgorithm Algo) {
  int N = static_cast<int>(State.range(0));
  Rng R(7);
  FlowNetwork Net = denseRandom(R, N);
  for (auto _ : State) {
    Net.resetFlow();
    benchmark::DoNotOptimize(computeMaxFlow(Net, 0, N - 1, Algo));
  }
}

void BM_CutExtraction(benchmark::State &State, CutPlacement Placement) {
  Rng R(11);
  FlowNetwork Net = efgShaped(R, 64, 32);
  computeMaxFlow(Net, 0, 1, MaxFlowAlgorithm::Dinic);
  for (auto _ : State)
    benchmark::DoNotOptimize(extractMinCut(Net, 0, 1, Placement));
}

//===----------------------------------------------------------------------===//
// Self-timed JSON suite (--json-out=)
//===----------------------------------------------------------------------===//

struct SuiteCase {
  const char *Family;
  int Size;
  FlowNetwork Net;
  int Source = 0, Sink = 1;
};

std::vector<SuiteCase> buildSuite(bool Smoke) {
  std::vector<SuiteCase> Cases;
  for (int Phis : Smoke ? std::vector<int>{8, 48}
                        : std::vector<int>{8, 48, 400, 1600}) {
    Rng R(42);
    Cases.push_back({"efg_shaped", Phis, efgShaped(R, Phis, Phis / 2 + 1)});
  }
  for (int Depth : Smoke ? std::vector<int>{128, 512}
                         : std::vector<int>{256, 2048, 8192}) {
    Rng R(23);
    Cases.push_back({"deep_chain", Depth, deepChain(R, Depth)});
  }
  for (int N : Smoke ? std::vector<int>{32} : std::vector<int>{64, 128}) {
    Rng R(7);
    SuiteCase C{"dense_random", N, denseRandom(R, N)};
    C.Source = 0;
    C.Sink = N - 1;
    Cases.push_back(std::move(C));
  }
  for (int Height : Smoke ? std::vector<int>{64, 256}
                          : std::vector<int>{64, 512, 4096}) {
    Rng R(61);
    Cases.push_back({"grid_w4", Height, gridNetwork(R, 4, Height)});
  }
  return Cases;
}

/// Times one (network, algorithm) cell: repeats solves until the cell
/// has run MinIters times and at least MinMillis of wall time, returns
/// the best (minimum) per-solve time in nanoseconds. Minimum, not mean:
/// the quantity of interest is the algorithm's cost, and every source
/// of noise is additive.
double timeCell(FlowNetwork &Net, int S, int T, MaxFlowAlgorithm Algo,
                int MinIters, double MinMillis, int64_t &FlowOut) {
  double BestNs = -1;
  double TotalMs = 0;
  int Iters = 0;
  while (Iters < MinIters || TotalMs < MinMillis) {
    Net.resetFlow();
    auto T0 = std::chrono::steady_clock::now();
    int64_t Flow = computeMaxFlow(Net, S, T, Algo);
    auto T1 = std::chrono::steady_clock::now();
    double Ns =
        std::chrono::duration<double, std::nano>(T1 - T0).count();
    double Ms = Ns / 1e6;
    TotalMs += Ms;
    ++Iters;
    if (BestNs < 0 || Ns < BestNs)
      BestNs = Ns;
    FlowOut = Flow;
    if (Iters > 10000)
      break;
  }
  return BestNs;
}

int runJsonSuite(const std::string &Path, bool Smoke) {
  std::vector<SuiteCase> Cases = buildSuite(Smoke);
  int MinIters = Smoke ? 3 : 10;
  double MinMillis = Smoke ? 2.0 : 50.0;

  std::string Json = "{\n  \"smoke\": ";
  Json += Smoke ? "true" : "false";
  Json += ",\n  \"cases\": [\n";
  bool Disagreed = false;
  for (size_t CI = 0; CI != Cases.size(); ++CI) {
    SuiteCase &C = Cases[CI];
    C.Net.freeze();
    Json += "    {\"family\": \"" + std::string(C.Family) +
            "\", \"size\": " + std::to_string(C.Size) +
            ", \"nodes\": " + std::to_string(C.Net.numNodes()) +
            ", \"edges\": " + std::to_string(C.Net.numOriginalEdges()) +
            ",\n     \"algorithms\": {";
    int64_t RefFlow = 0;
    std::vector<int> RefCut;
    double DinicNs = 0, EkNs = 0;
    for (size_t AI = 0; AI != std::size(AllMaxFlowAlgorithms); ++AI) {
      MaxFlowAlgorithm Algo = AllMaxFlowAlgorithms[AI];
      int64_t Flow = 0;
      double Ns = timeCell(C.Net, C.Source, C.Sink, Algo, MinIters,
                           MinMillis, Flow);
      // Cut identity check on the flow left by the final solve.
      MinCutResult Cut =
          extractMinCut(C.Net, C.Source, C.Sink, CutPlacement::Earliest);
      if (AI == 0) {
        RefFlow = Flow;
        RefCut = Cut.CutEdgeIds;
      } else if (Flow != RefFlow || Cut.CutEdgeIds != RefCut) {
        std::fprintf(stderr,
                     "DISAGREEMENT: %s size %d: %s flow %lld cut %zu "
                     "edges vs reference flow %lld cut %zu edges\n",
                     C.Family, C.Size, maxFlowAlgorithmName(Algo),
                     static_cast<long long>(Flow), Cut.CutEdgeIds.size(),
                     static_cast<long long>(RefFlow), RefCut.size());
        Disagreed = true;
      }
      if (Algo == MaxFlowAlgorithm::Dinic)
        DinicNs = Ns;
      else
        EkNs = Ns;
      Json += std::string(AI ? ", " : "") + "\"" +
              maxFlowAlgorithmName(Algo) +
              "\": {\"ns_per_op\": " + std::to_string(Ns) + "}";
    }
    // Third solver: the leg D treewidth DP. It refuses networks whose
    // decomposition exceeds the width cap (dense_random, by design) —
    // recorded as ns_per_op -1 rather than a disagreement. When it does
    // solve, its capacity must match the max-flow value exactly.
    double TwNs = -1;
    {
      Expected<MinCutResult> Probe =
          computeTreewidthMinCut(C.Net, C.Source, C.Sink, 16);
      if (Probe.hasValue()) {
        if (Probe->Capacity != RefFlow) {
          std::fprintf(stderr,
                       "DISAGREEMENT: %s size %d: treewidth cut %lld vs "
                       "max-flow %lld\n",
                       C.Family, C.Size,
                       static_cast<long long>(Probe->Capacity),
                       static_cast<long long>(RefFlow));
          Disagreed = true;
        }
        double TotalMs = 0;
        int Iters = 0;
        while (Iters < MinIters || TotalMs < MinMillis) {
          auto T0 = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(
              computeTreewidthMinCut(C.Net, C.Source, C.Sink, 16));
          auto T1 = std::chrono::steady_clock::now();
          double Ns =
              std::chrono::duration<double, std::nano>(T1 - T0).count();
          TotalMs += Ns / 1e6;
          ++Iters;
          if (TwNs < 0 || Ns < TwNs)
            TwNs = Ns;
          if (Iters > 10000)
            break;
        }
      }
    }
    Json += ", \"treewidth\": {\"ns_per_op\": " + std::to_string(TwNs) + "}";
    char Speed[64];
    std::snprintf(Speed, sizeof(Speed), "%.2f",
                  TwNs > 0 ? DinicNs / TwNs : 0.0);
    Json += "},\n     \"flow\": " + std::to_string(RefFlow) +
            ", \"speedup_treewidth_over_dinic\": " + Speed + "}";
    Json += CI + 1 != Cases.size() ? ",\n" : "\n";
    std::printf("%-12s size %6d: dinic %10.0fns  edmonds-karp %10.0fns  "
                "treewidth %10.0fns  (%sx)\n",
                C.Family, C.Size, DinicNs, EkNs, TwNs, Speed);
  }
  Json += "  ]\n}\n";

  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return 2;
  }
  Out << Json;
  if (Disagreed) {
    std::fprintf(stderr, "mincut_algorithms: solver disagreement\n");
    return 1;
  }
  return 0;
}

} // namespace

BENCHMARK_CAPTURE(BM_EfgShaped, edmonds_karp, MaxFlowAlgorithm::EdmondsKarp)
    ->Arg(2)
    ->Arg(8)
    ->Arg(48)
    ->Arg(400);
BENCHMARK_CAPTURE(BM_EfgShaped, dinic, MaxFlowAlgorithm::Dinic)
    ->Arg(2)
    ->Arg(8)
    ->Arg(48)
    ->Arg(400);
BENCHMARK_CAPTURE(BM_DeepChain, edmonds_karp, MaxFlowAlgorithm::EdmondsKarp)
    ->Arg(256)
    ->Arg(2048);
BENCHMARK_CAPTURE(BM_DeepChain, dinic, MaxFlowAlgorithm::Dinic)
    ->Arg(256)
    ->Arg(2048);
BENCHMARK_CAPTURE(BM_Grid, dinic, MaxFlowAlgorithm::Dinic)
    ->Arg(64)
    ->Arg(512);
BENCHMARK(BM_GridTreewidthCut)->Arg(64)->Arg(512);
BENCHMARK_CAPTURE(BM_DenseRandom, edmonds_karp, MaxFlowAlgorithm::EdmondsKarp)
    ->Arg(16)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_DenseRandom, dinic, MaxFlowAlgorithm::Dinic)
    ->Arg(16)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_CutExtraction, forward_labeling, CutPlacement::Earliest);
BENCHMARK_CAPTURE(BM_CutExtraction, reverse_labeling, CutPlacement::Latest);

int main(int argc, char **argv) {
  std::string JsonOut;
  bool Smoke = false;
  std::vector<char *> Passthrough{argv[0]};
  for (int I = 1; I != argc; ++I) {
    if (std::strncmp(argv[I], "--json-out=", 11) == 0)
      JsonOut = argv[I] + 11;
    else if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else
      Passthrough.push_back(argv[I]);
  }
  if (!JsonOut.empty())
    return runJsonSuite(JsonOut, Smoke);

  int PassArgc = static_cast<int>(Passthrough.size());
  benchmark::Initialize(&PassArgc, Passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(PassArgc, Passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
