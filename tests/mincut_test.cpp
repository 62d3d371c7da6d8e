//===- tests/mincut_test.cpp - Max-flow / min-cut tests -------------------------===//
//
// Most tests run once per max-flow algorithm (Edmonds-Karp, Dinic): the
// solvers share the network representation and the cut extraction, so
// every flow-value, separation, tie-break and saturation property must
// hold identically for each of them.
//
//===----------------------------------------------------------------------===//

#include "mincut/MinCut.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <set>

using namespace specpre;

namespace {

/// Random small network for oracle comparisons.
FlowNetwork randomNetwork(Rng &R, int NumNodes, int NumEdges,
                          int64_t MaxCap) {
  FlowNetwork Net(NumNodes);
  for (int E = 0; E != NumEdges; ++E) {
    int U = static_cast<int>(R.nextBelow(NumNodes));
    int V = static_cast<int>(R.nextBelow(NumNodes));
    if (U == V)
      continue;
    Net.addEdge(U, V, R.nextInRange(0, MaxCap));
  }
  return Net;
}

class MaxFlowAlgoTest : public ::testing::TestWithParam<MaxFlowAlgorithm> {
protected:
  MaxFlowAlgorithm algo() const { return GetParam(); }
};

std::string algoTestName(
    const ::testing::TestParamInfo<MaxFlowAlgorithm> &Info) {
  switch (Info.param) {
  case MaxFlowAlgorithm::EdmondsKarp:
    return "EdmondsKarp";
  case MaxFlowAlgorithm::Dinic:
    return "Dinic";
  }
  return "Unknown";
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MaxFlowAlgoTest,
                         ::testing::ValuesIn(AllMaxFlowAlgorithms),
                         algoTestName);

TEST_P(MaxFlowAlgoTest, TextbookExample) {
  // CLRS-style example.
  FlowNetwork Net(6);
  Net.addEdge(0, 1, 16);
  Net.addEdge(0, 2, 13);
  Net.addEdge(1, 2, 10);
  Net.addEdge(2, 1, 4);
  Net.addEdge(1, 3, 12);
  Net.addEdge(3, 2, 9);
  Net.addEdge(2, 4, 14);
  Net.addEdge(4, 3, 7);
  Net.addEdge(3, 5, 20);
  Net.addEdge(4, 5, 4);
  EXPECT_EQ(computeMaxFlow(Net, 0, 5, algo()), 23);
  Net.resetFlow();
  EXPECT_EQ(computeMaxFlow(Net, 0, 5, algo()), 23);
}

TEST_P(MaxFlowAlgoTest, ParallelEdgesAccumulate) {
  FlowNetwork Net(2);
  Net.addEdge(0, 1, 3);
  Net.addEdge(0, 1, 4);
  EXPECT_EQ(computeMaxFlow(Net, 0, 1, algo()), 7);
}

TEST_P(MaxFlowAlgoTest, DisconnectedIsZero) {
  FlowNetwork Net(3);
  Net.addEdge(0, 1, 5);
  EXPECT_EQ(computeMaxFlow(Net, 0, 2, algo()), 0);
}

TEST_P(MaxFlowAlgoTest, AgreesWithBruteForceOnRandomNetworks) {
  Rng R(2024);
  for (int Trial = 0; Trial != 60; ++Trial) {
    int N = 3 + static_cast<int>(R.nextBelow(6));
    FlowNetwork Net = randomNetwork(R, N, 2 * N, 20);
    int Source = 0, Sink = N - 1;
    Expected<int64_t> BruteOrError = bruteForceMinCutCapacity(Net, Source, Sink);
    ASSERT_TRUE(BruteOrError.hasValue()) << BruteOrError.status().toString();
    EXPECT_EQ(computeMaxFlow(Net, Source, Sink, algo()), *BruteOrError)
        << "trial " << Trial;
  }
}

TEST_P(MaxFlowAlgoTest, CutCapacityEqualsMaxFlowAndSeparates) {
  Rng R(77);
  for (int Trial = 0; Trial != 40; ++Trial) {
    int N = 4 + static_cast<int>(R.nextBelow(5));
    FlowNetwork Net = randomNetwork(R, N, 3 * N, 15);
    int Source = 0, Sink = N - 1;
    for (CutPlacement P : {CutPlacement::Earliest, CutPlacement::Latest}) {
      FlowNetwork Copy = Net;
      MinCutResult Cut = computeMinCut(Copy, Source, Sink, P, algo());
      EXPECT_TRUE(Cut.SourceSide[Source]);
      EXPECT_FALSE(Cut.SourceSide[Sink]);
      // Removing the cut edges must disconnect source from sink.
      std::set<int> CutSet(Cut.CutEdgeIds.begin(), Cut.CutEdgeIds.end());
      std::vector<bool> Seen(Copy.numNodes(), false);
      std::vector<int> Work{Source};
      Seen[Source] = true;
      while (!Work.empty()) {
        int U = Work.back();
        Work.pop_back();
        for (int E = 0; E != Copy.numOriginalEdges(); ++E) {
          if (Copy.edgeFrom(E) != U || CutSet.count(E) ||
              Copy.edgeCapacity(E) == 0)
            continue;
          int V = Copy.edgeTo(E);
          if (!Seen[V]) {
            Seen[V] = true;
            Work.push_back(V);
          }
        }
      }
      EXPECT_FALSE(Seen[Sink]) << "cut does not separate, trial " << Trial;
    }
  }
}

TEST_P(MaxFlowAlgoTest, EarliestAndLatestHaveEqualCapacity) {
  Rng R(99);
  for (int Trial = 0; Trial != 40; ++Trial) {
    int N = 4 + static_cast<int>(R.nextBelow(5));
    FlowNetwork Net = randomNetwork(R, N, 3 * N, 15);
    FlowNetwork A = Net, B = Net;
    MinCutResult Early =
        computeMinCut(A, 0, N - 1, CutPlacement::Earliest, algo());
    MinCutResult Late =
        computeMinCut(B, 0, N - 1, CutPlacement::Latest, algo());
    EXPECT_EQ(Early.Capacity, Late.Capacity);
    // The latest cut's source side includes the earliest cut's: every
    // node the early cut puts in S is also in S for the late cut.
    for (int I = 0; I != N; ++I) {
      if (Early.SourceSide[I]) {
        EXPECT_TRUE(Late.SourceSide[I]) << "node " << I;
      }
    }
  }
}

TEST_P(MaxFlowAlgoTest, LatestCutIsLaterOnAChain) {
  // source -> a -> b -> sink with equal capacities: the min cut is
  // ambiguous; reverse labeling must pick the sink-closest edge no
  // matter which algorithm produced the flow.
  FlowNetwork Net(4);
  Net.addEdge(0, 1, 5);
  int MidEdge = Net.addEdge(1, 2, 5);
  int LastEdge = Net.addEdge(2, 3, 5);
  (void)MidEdge;
  FlowNetwork A = Net, B = Net;
  MinCutResult Early = computeMinCut(A, 0, 3, CutPlacement::Earliest, algo());
  MinCutResult Late = computeMinCut(B, 0, 3, CutPlacement::Latest, algo());
  ASSERT_EQ(Early.CutEdgeIds.size(), 1u);
  ASSERT_EQ(Late.CutEdgeIds.size(), 1u);
  EXPECT_EQ(Early.CutEdgeIds[0], 0);
  EXPECT_EQ(Late.CutEdgeIds[0], LastEdge);
}

TEST_P(MaxFlowAlgoTest, InfiniteEdgesNeverCut) {
  // source -> a (finite) -> sink (infinite), plus a finite bypass.
  FlowNetwork Net(4);
  Net.addEdge(0, 1, 3);
  Net.addEdge(1, 3, InfiniteCapacity);
  Net.addEdge(0, 2, 2);
  Net.addEdge(2, 3, InfiniteCapacity);
  MinCutResult Cut = computeMinCut(Net, 0, 3, CutPlacement::Latest, algo());
  EXPECT_EQ(Cut.Capacity, 5);
  for (int E : Cut.CutEdgeIds)
    EXPECT_LT(Net.edgeCapacity(E), InfiniteCapacity);
}

TEST_P(MaxFlowAlgoTest, SaturatedCapacitiesStayCuttable) {
  // Finite weights saturate at MaxFiniteCapacity; even then the cut must
  // take them over any infinite edge, for every algorithm.
  FlowNetwork Net(4);
  int E01 = Net.addEdge(0, 1, MaxFiniteCapacity);
  Net.addEdge(1, 3, InfiniteCapacity);
  int E02 = Net.addEdge(0, 2, MaxFiniteCapacity);
  Net.addEdge(2, 3, InfiniteCapacity);
  MinCutResult Cut = computeMinCut(Net, 0, 3, CutPlacement::Latest, algo());
  EXPECT_EQ(Cut.Capacity, 2 * MaxFiniteCapacity);
  std::set<int> CutSet(Cut.CutEdgeIds.begin(), Cut.CutEdgeIds.end());
  EXPECT_EQ(CutSet, (std::set<int>{E01, E02}));
}

TEST_P(MaxFlowAlgoTest, FlowConservationPerEdge) {
  FlowNetwork Net(6);
  Net.addEdge(0, 1, 16);
  Net.addEdge(0, 2, 13);
  int E12 = Net.addEdge(1, 3, 12);
  Net.addEdge(2, 4, 14);
  Net.addEdge(3, 5, 20);
  Net.addEdge(4, 5, 4);
  computeMaxFlow(Net, 0, 5, algo());
  for (int E = 0; E != Net.numOriginalEdges(); ++E) {
    EXPECT_GE(Net.edgeFlow(E), 0);
    EXPECT_LE(Net.edgeFlow(E), Net.edgeCapacity(E));
  }
  EXPECT_EQ(Net.edgeFlow(E12), 12); // saturated bottleneck
}

TEST_P(MaxFlowAlgoTest, ResetFlowRestoresCapacities) {
  FlowNetwork Net(3);
  Net.addEdge(0, 1, 5);
  Net.addEdge(1, 2, 5);
  EXPECT_EQ(computeMaxFlow(Net, 0, 2, algo()), 5);
  Net.resetFlow();
  EXPECT_EQ(computeMaxFlow(Net, 0, 2, algo()), 5);
}

TEST_P(MaxFlowAlgoTest, VerifyMinCutAcceptsComputedCuts) {
  Rng R(99);
  for (int Trial = 0; Trial != 50; ++Trial) {
    FlowNetwork Net = randomNetwork(R, 6, 12, 10);
    for (CutPlacement P : {CutPlacement::Earliest, CutPlacement::Latest}) {
      FlowNetwork Work = Net;
      MinCutResult Cut = computeMinCut(Work, 0, 5, P, algo());
      std::string Error;
      EXPECT_TRUE(verifyMinCut(Work, 0, 5, Cut, Error)) << Error;
    }
  }
}

TEST_P(MaxFlowAlgoTest, TiedWeightChainEarliestVsLatest) {
  // source ->1 A ->1 B ->inf sink: both unit edges are minimum cuts.
  // Earliest (forward labeling) takes the source-closest edge, Latest
  // (reverse labeling) the sink-closest one — the tie-break MC-SSAPRE
  // relies on for lifetime optimality. Pinned per algorithm: the
  // tie-break is a property of the residual graph, which is the same
  // for every maximum flow.
  FlowNetwork Net(4);
  int ESrc = Net.addEdge(0, 1, 1);
  int EMid = Net.addEdge(1, 2, 1);
  Net.addEdge(2, 3, InfiniteCapacity);

  FlowNetwork NetE = Net;
  MinCutResult Early = computeMinCut(NetE, 0, 3, CutPlacement::Earliest, algo());
  EXPECT_EQ(Early.Capacity, 1);
  ASSERT_EQ(Early.CutEdgeIds.size(), 1u);
  EXPECT_EQ(Early.CutEdgeIds[0], ESrc);

  FlowNetwork NetL = Net;
  MinCutResult Late = computeMinCut(NetL, 0, 3, CutPlacement::Latest, algo());
  EXPECT_EQ(Late.Capacity, 1);
  ASSERT_EQ(Late.CutEdgeIds.size(), 1u);
  EXPECT_EQ(Late.CutEdgeIds[0], EMid);
}

TEST(MinCut, VerifyMinCutRejectsTamperedCuts) {
  FlowNetwork Net(4);
  int E01 = Net.addEdge(0, 1, 3);
  Net.addEdge(1, 2, 3);
  Net.addEdge(2, 3, 3);
  MinCutResult Cut = computeMinCut(Net, 0, 3, CutPlacement::Earliest);
  std::string Error;
  ASSERT_TRUE(verifyMinCut(Net, 0, 3, Cut, Error)) << Error;

  MinCutResult WrongCap = Cut;
  WrongCap.Capacity += 1;
  EXPECT_FALSE(verifyMinCut(Net, 0, 3, WrongCap, Error));

  MinCutResult MissingEdge = Cut;
  MissingEdge.CutEdgeIds.clear();
  EXPECT_FALSE(verifyMinCut(Net, 0, 3, MissingEdge, Error));

  MinCutResult WrongSide = Cut;
  WrongSide.SourceSide.assign(Net.numNodes(), true); // sink on source side
  EXPECT_FALSE(verifyMinCut(Net, 0, 3, WrongSide, Error));
  (void)E01;
}

TEST(MinCut, VerifyMinCutRejectsInfiniteCrossings) {
  // A "cut" that crosses an infinite edge must be rejected even when its
  // capacity bookkeeping is self-consistent.
  FlowNetwork Net(3);
  int EInf = Net.addEdge(0, 1, InfiniteCapacity);
  Net.addEdge(1, 2, 1);
  computeMaxFlow(Net, 0, 2);
  MinCutResult Bogus;
  Bogus.SourceSide = {true, false, false};
  Bogus.CutEdgeIds = {EInf};
  Bogus.Capacity = InfiniteCapacity;
  std::string Error;
  EXPECT_FALSE(verifyMinCut(Net, 0, 2, Bogus, Error));
  EXPECT_NE(Error.find("infinite"), std::string::npos) << Error;
}

TEST(MinCut, SaturatedEdgeWeightNeverAliasesInfinity) {
  // Plain weights pass through unchanged.
  EXPECT_EQ(saturatedEdgeWeight(100, 1, 0), 100);
  EXPECT_EQ(saturatedEdgeWeight(100, 1u << 16, 1), (100ll << 16) + 1);
  // Frequencies near 2^62 saturate instead of overflowing or reaching
  // the uncuttable capacity...
  EXPECT_EQ(saturatedEdgeWeight(uint64_t(1) << 62, 1, 0), MaxFiniteCapacity);
  EXPECT_EQ(saturatedEdgeWeight(uint64_t(1) << 62, 1u << 16, 1),
            MaxFiniteCapacity);
  EXPECT_EQ(saturatedEdgeWeight(0, 0, uint64_t(1) << 63), MaxFiniteCapacity);
  // ...and the cap leaves enough headroom that a cut summing many
  // saturated edges still stays below a single infinite edge.
  EXPECT_LT(MaxFiniteCapacity * (int64_t(1) << 19), InfiniteCapacity);
}
