//===- mincut/MaxFlow.h - Max-flow algorithms ------------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Max-flow solvers: Dinic's algorithm (level graph + blocking flow),
/// the production solver, and Edmonds-Karp (BFS augmenting paths), kept
/// as an independent oracle. The paper uses an O(V^2 sqrt(E)) algorithm
/// and cites Chekuri et al.'s experimental study of min-cut algorithms;
/// the mincut_algorithms bench compares the two on EFG-shaped inputs and
/// the equivalence tests cross-check them edge for edge.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_MINCUT_MAXFLOW_H
#define SPECPRE_MINCUT_MAXFLOW_H

#include "mincut/FlowNetwork.h"

namespace specpre {

/// Dinic is the solver MC-SSAPRE and MC-PRE use; Edmonds-Karp exists
/// for the test, fuzz and bench matrices that cross-check it.
enum class MaxFlowAlgorithm { EdmondsKarp, Dinic };

/// Stable machine-readable name ("edmonds-karp", "dinic"), used in
/// oracle diagnostics and the bench JSON.
const char *maxFlowAlgorithmName(MaxFlowAlgorithm Algo);

/// All implemented algorithms, for test/fuzz matrices.
constexpr MaxFlowAlgorithm AllMaxFlowAlgorithms[] = {
    MaxFlowAlgorithm::EdmondsKarp, MaxFlowAlgorithm::Dinic};

/// Runs the chosen max-flow algorithm from \p Source to \p Sink, leaving
/// the flow in the network's residual capacities. Freezes the network
/// into its CSR layout first if needed. Returns the max-flow value.
///
/// Every algorithm leaves a *maximum flow* (not a preflow) in the
/// residual network, so min-cut extraction by residual reachability is
/// valid after any of them — and since the source-reachable and
/// sink-co-reachable sets are the same for every maximum flow, the
/// extracted cuts are identical edge for edge across algorithms.
int64_t computeMaxFlow(FlowNetwork &Net, int Source, int Sink,
                       MaxFlowAlgorithm Algo = MaxFlowAlgorithm::Dinic);

} // namespace specpre

#endif // SPECPRE_MINCUT_MAXFLOW_H
