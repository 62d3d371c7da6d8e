//===- bench/compile_time_scaling.cpp - Section 3.3 scaling curve ---------------===//
//
// Section 3.3: every MC-SSAPRE step except the min cut is linear in the
// FRG, and "MC-SSAPRE's running time for each expression depends more on
// the problem size and less on the size of the program". This bench
// grows generated programs over an order of magnitude and reports the
// PRE-phase wall time of MC-SSAPRE, MC-PRE and leg D (LOSPRE through
// the degradation ladder), plus per-program EFG ceilings, so the
// scaling behavior is visible directly.
//
// A second table grows a deep chain of K sequential width-3 grid
// regions — leg D's native family. The treewidth DP's cost per EFG is
// bounded by the (constant) width, so its total time grows linearly in
// K, while the max-flow legs re-solve ever-larger flow problems. The
// whole-leg columns also include the shared per-expression front half
// (FRG build, placement, finalize, code motion). With pruned
// Φ-insertion its FRGs stay proportional to the occurrences, but the
// front half is still not linear in K: step 1 computes each
// candidate's full DF+ (the unpruned Φ count the statistics report),
// and the sparse Rename visits every block defining an operand
// variable, which grows with K for the variables the chain reassigns.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "interp/Interpreter.h"
#include "mincut/MinCut.h"
#include "mincut/TreewidthCut.h"
#include "pre/ExprKey.h"
#include "pre/Frg.h"
#include "pre/McPre.h"
#include "pre/McSsaPre.h"
#include "pre/PreDriver.h"
#include "ssa/SsaConstruction.h"
#include "workload/ProgramGenerator.h"

#include <chrono>
#include <iterator>
#include <cstdio>
#include <vector>

using namespace specpre;
using namespace specpre::benchreport;

int main() {
  printTitle("Compile-time scaling: MC-SSAPRE vs MC-PRE (paper Section "
             "3.3)");
  std::printf("%8s %8s %8s %12s %12s %12s %12s %10s\n", "blocks",
              "stmts", "exprs", "MC-SSAPRE", "(ek)", "MC-PRE", "LOSPRE",
              "max EFG");
  for (unsigned Scale = 1; Scale <= 4; ++Scale) {
    GeneratorConfig Cfg;
    Cfg.MaxDepth = 2 + Scale;
    Cfg.RegionsPerLevel = 3;
    Cfg.ExprPoolSize = 6 + 2 * Scale;
    Cfg.NumVars = 6 + Scale;
    // Deterministically skip degenerate seeds: a scaling point needs a
    // program of roughly the intended size.
    uint64_t Seed = 31 * Scale + 5;
    Function Prepared;
    for (;;) {
      Prepared =
          generateProgram(Seed, Cfg, "scale" + std::to_string(Scale));
      if (Prepared.numBlocks() >= 8u << Scale)
        break;
      ++Seed;
    }
    prepareFunction(Prepared);
    unsigned Stmts = 0;
    for (const BasicBlock &BB : Prepared.Blocks)
      Stmts += static_cast<unsigned>(BB.Stmts.size());

    Profile Prof;
    ExecOptions EO;
    EO.MaxSteps = 500'000'000;
    EO.CollectProfile = &Prof;
    std::vector<int64_t> Args(Prepared.Params.size(), 1000 + Scale);
    ExecResult Train = interpret(Prepared, Args, EO);
    if (Train.Trapped || Train.TimedOut) {
      std::printf("%8u (training run failed; skipped)\n",
                  Prepared.numBlocks());
      continue;
    }
    Profile NodeOnly = Prof.withoutEdgeFreqs();

    PreStats Stats;
    double McCfg;
    size_t NumExprs = 0;
    // MC-SSAPRE once per max-flow algorithm: the EFGs are identical, so
    // any spread between the columns is solver cost alone.
    double McSsaBy[std::size(AllMaxFlowAlgorithms)] = {};
    for (size_t AI = 0; AI != std::size(AllMaxFlowAlgorithms); ++AI) {
      PreOptions PO;
      PO.Strategy = PreStrategy::McSsaPre;
      PO.Prof = &NodeOnly;
      PO.Algo = AllMaxFlowAlgorithms[AI];
      PO.Verify = false;
      if (AllMaxFlowAlgorithms[AI] == MaxFlowAlgorithm::Dinic)
        PO.Stats = &Stats;
      auto T0 = std::chrono::steady_clock::now();
      (void)compileWithPre(Prepared, PO);
      auto T1 = std::chrono::steady_clock::now();
      McSsaBy[AI] =
          std::chrono::duration<double, std::milli>(T1 - T0).count();
      if (PO.Stats)
        NumExprs = Stats.records().size();
    }
    double McSsa = 0, McSsaEk = 0;
    for (size_t AI = 0; AI != std::size(AllMaxFlowAlgorithms); ++AI) {
      if (AllMaxFlowAlgorithms[AI] == MaxFlowAlgorithm::Dinic)
        McSsa = McSsaBy[AI];
      else
        McSsaEk = McSsaBy[AI];
    }
    {
      auto T0 = std::chrono::steady_clock::now();
      Function F = Prepared;
      runMcPre(F, Prof, nullptr);
      auto T1 = std::chrono::steady_clock::now();
      McCfg = std::chrono::duration<double, std::milli>(T1 - T0).count();
    }
    double Lospre;
    CompileOutcomeRecord Outcome;
    {
      PreOptions PO;
      PO.Strategy = PreStrategy::Lospre;
      PO.Prof = &NodeOnly;
      PO.Verify = false;
      auto T0 = std::chrono::steady_clock::now();
      (void)compileWithFallback(Prepared, PO, &Outcome);
      auto T1 = std::chrono::steady_clock::now();
      Lospre = std::chrono::duration<double, std::milli>(T1 - T0).count();
    }
    std::printf("%8u %8u %8zu %10.2fms %10.2fms %10.2fms "
                "%9.2fms%c %9u\n",
                Prepared.numBlocks(), Stmts, NumExprs, McSsa, McSsaEk,
                McCfg, Lospre, Outcome.degraded() ? '*' : ' ',
                Stats.largestEfg());
  }
  printRule();
  std::printf("Expected shape: MC-SSAPRE grows gently with program size "
              "(EFGs stay small);\nMC-PRE's CFG-sized networks make it grow "
              "much faster. A '*' marks a LOSPRE\nrun that exhausted its "
              "width budget and fell back to MC-SSAPRE.\n");

  printTitle("Deep-chain scaling: K sequential width-3 grid regions "
             "(leg D's family)");
  std::printf("Whole-leg columns include the shared SSAPRE front half "
              "(not linear in K; see the\nfile header); the cut(...) "
              "columns time only the solves on the largest extracted\n"
              "EFG (a parameter expression spanning all K grids), where "
              "the legs actually differ.\n\n");
  std::printf("%4s %7s %6s %6s %10s %11s %11s %7s %11s %11s %11s\n", "K",
              "blocks", "stmts", "exprs", "LOSPRE", "MC-SSAPRE", "MC-PRE",
              "EFG", "cut(DP)", "cut(dinic)", "cut(ek)");
  for (unsigned K = 8; K <= 128; K *= 2) {
    GeneratorConfig Cfg;
    Cfg.MaxDepth = 1;
    Cfg.RegionsPerLevel = K;
    Cfg.IfChance = 0;
    Cfg.WhileChance = 0;
    Cfg.DoWhileChance = 0;
    Cfg.GridChance = 1000;
    Cfg.MaxWidth = 3;
    Cfg.ExprPoolSize = 10;
    // Plenty of parameter-only expressions: their ExprKey survives SSA
    // renaming, so one EFG stretches across every grid in the chain —
    // the network whose growth separates the cut algorithms below.
    Cfg.InvariantChance = 400;
    // The generator draws 1 + rand(RegionsPerLevel) regions; skip seeds
    // until the draw lands close enough to K that the points scale.
    uint64_t Seed = 17 * K + 3;
    Function Prepared;
    for (;;) {
      Prepared = generateProgram(Seed, Cfg, "chain" + std::to_string(K));
      if (Prepared.numBlocks() >= K * 15u)
        break;
      ++Seed;
    }
    prepareFunction(Prepared);
    unsigned Stmts = 0;
    for (const BasicBlock &BB : Prepared.Blocks)
      Stmts += static_cast<unsigned>(BB.Stmts.size());

    Profile Prof;
    ExecOptions EO;
    EO.MaxSteps = 500'000'000;
    EO.CollectProfile = &Prof;
    std::vector<int64_t> Args(Prepared.Params.size(), 1000 + K);
    ExecResult Train = interpret(Prepared, Args, EO);
    if (Train.Trapped || Train.TimedOut) {
      std::printf("%8u (training run failed; skipped)\n", K);
      continue;
    }
    Profile NodeOnly = Prof.withoutEdgeFreqs();

    PreStats Stats;
    size_t NumExprs = 0;
    double Lospre, McSsa, McCfg;
    CompileOutcomeRecord Outcome;
    {
      PreOptions PO;
      PO.Strategy = PreStrategy::Lospre;
      PO.Prof = &NodeOnly;
      PO.Stats = &Stats;
      PO.Verify = false;
      auto T0 = std::chrono::steady_clock::now();
      (void)compileWithFallback(Prepared, PO, &Outcome);
      auto T1 = std::chrono::steady_clock::now();
      Lospre = std::chrono::duration<double, std::milli>(T1 - T0).count();
      NumExprs = Stats.records().size();
    }
    {
      PreOptions PO;
      PO.Strategy = PreStrategy::McSsaPre;
      PO.Prof = &NodeOnly;
      PO.Verify = false;
      auto T0 = std::chrono::steady_clock::now();
      (void)compileWithPre(Prepared, PO);
      auto T1 = std::chrono::steady_clock::now();
      McSsa = std::chrono::duration<double, std::milli>(T1 - T0).count();
    }
    {
      auto T0 = std::chrono::steady_clock::now();
      Function F = Prepared;
      runMcPre(F, Prof, nullptr);
      auto T1 = std::chrono::steady_clock::now();
      McCfg = std::chrono::duration<double, std::milli>(T1 - T0).count();
    }
    // Cut stage in isolation. Extract every non-empty EFG the compile
    // forms (same construction the driver uses) and time only the
    // solves: the chain reuses a small expression pool, so each EFG
    // spans all K grids and grows linearly with the chain — the regime
    // where the DP's width-bounded per-node cost stays linear while
    // augmenting-path max flow does not.
    std::vector<EfgBuild> Efgs;
    {
      Function Ssa = Prepared;
      if (!Ssa.IsSSA)
        constructSsa(Ssa);
      specpre::Cfg C(Ssa); // qualified: the GeneratorConfig local shadows the type
      DomTree DT = DomTree::buildDominators(C);
      FrgContext Ctx(Ssa, C, DT, collectCandidateExprs(Ssa));
      for (unsigned EI = 0; EI != Ctx.exprs().size(); ++EI) {
        if (Ctx.exprs()[EI].canFault())
          continue;
        Frg G(Ctx, EI);
        if (G.reals().empty())
          continue;
        EfgBuild B = buildEfgNetwork(G, NodeOnly);
        if (!B.Empty)
          Efgs.push_back(std::move(B));
      }
    }
    // Time the solves on the single largest EFG — the one that spans
    // the chain — so the numbers track one network's growth rather
    // than the (linear) total over many small local EFGs.
    EfgBuild *Big = nullptr;
    for (EfgBuild &B : Efgs)
      if (!Big || B.Net.numNodes() > Big->Net.numNodes())
        Big = &B;
    const unsigned Iters = 20;
    double CutDp = 0, CutDinic = 0, CutEk = 0;
    int BigNodes = 0;
    if (Big) {
      BigNodes = Big->Net.numNodes();
      {
        auto T0 = std::chrono::steady_clock::now();
        for (unsigned I = 0; I != Iters; ++I)
          (void)computeTreewidthMinCut(Big->Net, Big->Source, Big->Sink, 16);
        auto T1 = std::chrono::steady_clock::now();
        CutDp = std::chrono::duration<double, std::milli>(T1 - T0).count() /
                Iters;
      }
      {
        auto T0 = std::chrono::steady_clock::now();
        for (unsigned I = 0; I != Iters; ++I) {
          Big->Net.resetFlow();
          (void)computeMinCut(Big->Net, Big->Source, Big->Sink,
                              CutPlacement::Latest, MaxFlowAlgorithm::Dinic);
        }
        auto T1 = std::chrono::steady_clock::now();
        CutDinic =
            std::chrono::duration<double, std::milli>(T1 - T0).count() /
            Iters;
      }
      {
        auto T0 = std::chrono::steady_clock::now();
        for (unsigned I = 0; I != Iters; ++I) {
          Big->Net.resetFlow();
          (void)computeMinCut(Big->Net, Big->Source, Big->Sink,
                              CutPlacement::Latest,
                              MaxFlowAlgorithm::EdmondsKarp);
        }
        auto T1 = std::chrono::steady_clock::now();
        CutEk = std::chrono::duration<double, std::milli>(T1 - T0).count() /
                Iters;
      }
    }
    std::printf("%4u %7u %6u %6zu %8.2fms%c %9.2fms %9.2fms %7d %9.3fms "
                "%9.3fms %9.3fms\n",
                K, Prepared.numBlocks(), Stmts, NumExprs, Lospre,
                Outcome.degraded() ? '*' : ' ', McSsa, McCfg, BigNodes,
                CutDp, CutDinic, CutEk);
  }
  printRule();
  std::printf("Expected shape: cut(DP) tracks the EFG size — per-node cost "
              "is bounded by the\nconstant decomposition width — while the "
              "augmenting-path columns grow\nsuperlinearly as the "
              "chain-spanning EFG stretches, Edmonds-Karp most visibly.\n"
              "The DP's constant factor is larger, so the absolute "
              "crossover sits beyond\nthese sizes; the whole-leg columns "
              "all share the SSAPRE front half, whose\npruned FRGs stay "
              "proportional to the occurrences.\n");
  return 0;
}
