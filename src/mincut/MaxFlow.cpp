//===- mincut/MaxFlow.cpp - Max-flow algorithms ------------------------------===//

#include "mincut/MaxFlow.h"

#include "support/Budget.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

using namespace specpre;

namespace {

/// Budget probe shared by the algorithms: one augmenting path (or Dinic
/// blocking-flow push) counts as one augmentation step. Throws
/// StatusException(BudgetExhausted) when the installed budget trips; the
/// degradation ladder catches it at the function boundary.
void noteAugmentationStep(const char *Where) {
  if (BudgetTracker *B = currentBudget())
    throwIfError(B->noteAugmentation(Where));
}

int64_t runEdmondsKarp(FlowNetwork &Net, int Source, int Sink) {
  int N = Net.numNodes();
  int64_t Total = 0;
  for (;;) {
    noteAugmentationStep("max-flow (Edmonds-Karp)");
    // BFS for the shortest augmenting path; remember the edge taken into
    // each node.
    std::vector<std::pair<int, int>> Parent(N, {-1, -1}); // (node, edge idx)
    std::deque<int> Queue{Source};
    Parent[Source] = {Source, -1};
    while (!Queue.empty() && Parent[Sink].first == -1) {
      int U = Queue.front();
      Queue.pop_front();
      FlowNetwork::EdgeRange Edges = Net.edgesFrom(U);
      for (int I = 0; I != static_cast<int>(Edges.size()); ++I) {
        const FlowNetwork::Edge &E = Edges[I];
        if (E.Cap <= 0 || Parent[E.To].first != -1)
          continue;
        Parent[E.To] = {U, I};
        Queue.push_back(E.To);
      }
    }
    if (Parent[Sink].first == -1)
      return Total;
    // Find the bottleneck.
    int64_t Bottleneck = InfiniteCapacity * 2;
    for (int V = Sink; V != Source;) {
      auto [U, I] = Parent[V];
      Bottleneck = std::min(Bottleneck, Net.edgesFrom(U)[I].Cap);
      V = U;
    }
    // Apply it.
    for (int V = Sink; V != Source;) {
      auto [U, I] = Parent[V];
      FlowNetwork::Edge &E = Net.edgesFrom(U)[I];
      E.Cap -= Bottleneck;
      Net.reverseOf(E).Cap += Bottleneck;
      V = U;
    }
    Total += Bottleneck;
  }
}

class Dinic {
public:
  Dinic(FlowNetwork &Net, int Source, int Sink)
      : Net(Net), Source(Source), Sink(Sink) {}

  int64_t run() {
    int64_t Total = 0;
    while (buildLevelGraph()) {
      NextEdge.assign(Net.numNodes(), 0);
      for (;;) {
        noteAugmentationStep("max-flow (Dinic)");
        int64_t Pushed = blockingFlowDfs(Source, InfiniteCapacity * 2);
        if (Pushed == 0)
          break;
        Total += Pushed;
      }
    }
    return Total;
  }

private:
  bool buildLevelGraph() {
    Level.assign(Net.numNodes(), -1);
    std::deque<int> Queue{Source};
    Level[Source] = 0;
    while (!Queue.empty()) {
      int U = Queue.front();
      Queue.pop_front();
      for (const FlowNetwork::Edge &E : Net.edgesFrom(U)) {
        if (E.Cap <= 0 || Level[E.To] != -1)
          continue;
        Level[E.To] = Level[U] + 1;
        Queue.push_back(E.To);
      }
    }
    return Level[Sink] != -1;
  }

  int64_t blockingFlowDfs(int U, int64_t Limit) {
    if (U == Sink)
      return Limit;
    FlowNetwork::EdgeRange Edges = Net.edgesFrom(U);
    for (int &I = NextEdge[U]; I < static_cast<int>(Edges.size()); ++I) {
      FlowNetwork::Edge &E = Edges[I];
      if (E.Cap <= 0 || Level[E.To] != Level[U] + 1)
        continue;
      int64_t Pushed = blockingFlowDfs(E.To, std::min(Limit, E.Cap));
      if (Pushed > 0) {
        E.Cap -= Pushed;
        Net.reverseOf(E).Cap += Pushed;
        return Pushed;
      }
    }
    return 0;
  }

  FlowNetwork &Net;
  int Source, Sink;
  std::vector<int> Level;
  std::vector<int> NextEdge;
};

} // namespace

const char *specpre::maxFlowAlgorithmName(MaxFlowAlgorithm Algo) {
  switch (Algo) {
  case MaxFlowAlgorithm::EdmondsKarp:
    return "edmonds-karp";
  case MaxFlowAlgorithm::Dinic:
    return "dinic";
  }
  SPECPRE_UNREACHABLE("bad max-flow algorithm");
}

bool specpre::parseMaxFlowAlgorithm(const char *Name,
                                    MaxFlowAlgorithm &Out) {
  if (!std::strcmp(Name, "edmonds-karp") || !std::strcmp(Name, "ek")) {
    Out = MaxFlowAlgorithm::EdmondsKarp;
    return true;
  }
  if (!std::strcmp(Name, "dinic")) {
    Out = MaxFlowAlgorithm::Dinic;
    return true;
  }
  return false;
}

int64_t specpre::computeMaxFlow(FlowNetwork &Net, int Source, int Sink,
                                MaxFlowAlgorithm Algo) {
  if (Source == Sink)
    return 0;
  Net.freeze();
  switch (Algo) {
  case MaxFlowAlgorithm::EdmondsKarp:
    return runEdmondsKarp(Net, Source, Sink);
  case MaxFlowAlgorithm::Dinic:
    return Dinic(Net, Source, Sink).run();
  }
  SPECPRE_UNREACHABLE("bad max-flow algorithm");
}
