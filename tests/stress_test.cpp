//===- tests/stress_test.cpp - Large-program stress ------------------------------===//
//
// One big generated program (hundreds of blocks, thousands of
// statements) through every strategy plus the scalar pipeline and
// out-of-SSA, end to end. Guards against quadratic blowups and
// deep-recursion issues that small unit tests cannot see.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "opt/Cleanup.h"
#include "opt/ValueNumbering.h"
#include "pre/ExprKey.h"
#include "pre/Frg.h"
#include "pre/McPre.h"
#include "pre/McSsaPre.h"
#include "pre/PreDriver.h"
#include "ssa/SsaConstruction.h"
#include "ssa/SsaDestruction.h"
#include "support/PassTimer.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace specpre;

TEST(Stress, LargeProgramAllStrategies) {
  GeneratorConfig Cfg;
  Cfg.MaxDepth = 5;
  Cfg.RegionsPerLevel = 3;
  Cfg.ExprPoolSize = 14;
  Cfg.NumVars = 10;
  Cfg.AllowDiv = true;
  // Deterministically search for a seed of the intended size (the
  // generator's size distribution is heavy-tailed).
  Function Prepared;
  for (uint64_t Seed = 0xBEEF;; ++Seed) {
    Prepared = generateProgram(Seed, Cfg, "stress");
    if (Prepared.numBlocks() >= 150u)
      break;
  }
  prepareFunction(Prepared);
  ASSERT_GE(Prepared.numBlocks(), 150u);

  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  std::vector<int64_t> Args(Prepared.Params.size(), 77);
  ExecResult Train = interpret(Prepared, Args, EO);
  ASSERT_FALSE(Train.TimedOut);
  ASSERT_FALSE(Train.Trapped);

  for (PreStrategy S :
       {PreStrategy::SsaPre, PreStrategy::SsaPreSpec, PreStrategy::McSsaPre,
        PreStrategy::McPre, PreStrategy::Lcm}) {
    PreOptions PO;
    PO.Strategy = S;
    PO.Prof = &Prof;
    PO.Verify = false; // the naive O(B^2) oracle is too slow at this size
    Function Opt = compileWithPre(Prepared, PO);
    if (Opt.IsSSA) {
      runValueNumbering(Opt);
      runCleanupPipeline(Opt);
      destructSsa(Opt);
    }
    std::string Error;
    ASSERT_TRUE(verifyFunction(Opt, Error))
        << strategyName(S) << ": " << Error;
    ExecResult Base = interpret(Prepared, Args);
    ExecResult O = interpret(Opt, Args);
    ASSERT_TRUE(Base.sameObservableBehavior(O)) << strategyName(S);
    ASSERT_LE(O.DynamicComputations, Base.DynamicComputations)
        << strategyName(S);
  }
}

TEST(Stress, DeepLoopNestProfileAndPre) {
  GeneratorConfig Cfg;
  Cfg.MaxDepth = 6;
  Cfg.IfChance = 100;
  Cfg.WhileChance = 400;
  Cfg.DoWhileChance = 250;
  Cfg.MinTrip = 2;
  Cfg.MaxTrip = 4;
  Function Prepared;
  for (uint64_t Seed = 0xD00D;; ++Seed) {
    Prepared = generateProgram(Seed, Cfg, "deep");
    if (Prepared.numBlocks() >= 60u)
      break;
  }
  prepareFunction(Prepared);
  Profile Prof;
  ExecOptions EO;
  EO.MaxSteps = 500'000'000;
  EO.CollectProfile = &Prof;
  std::vector<int64_t> Args(Prepared.Params.size(), 5);
  ExecResult Train = interpret(Prepared, Args, EO);
  ASSERT_FALSE(Train.TimedOut);
  std::string Error;
  ASSERT_TRUE(Prof.verifyConservation(Prepared, Error)) << Error;

  Profile NodeOnly = Prof.withoutEdgeFreqs();
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &NodeOnly;
  PO.Verify = false;
  Function Opt = compileWithPre(Prepared, PO);
  ExecResult Base = interpret(Prepared, Args, EO);
  ExecOptions EO2;
  EO2.MaxSteps = 500'000'000;
  ExecResult O = interpret(Opt, Args, EO2);
  ASSERT_TRUE(Base.sameObservableBehavior(O));
  ASSERT_LE(O.DynamicComputations, Base.DynamicComputations);
}

// Thousands of arena-backed network builds (the CSR FlowNetwork path
// shared by MC-SSAPRE's EFG and MC-PRE's CFG network): the per-thread
// bump arena must reach its high-water mark in the first epoch and
// never grow afterwards — reset() retains chunks, so steady-state
// builds perform no heap allocation at all. Asserted through the same
// ArenaCounters the metrics JSON exports, so a regression shows up both
// here and in `specpre-opt --metrics-out=`.
TEST(Stress, ArenaNetworkBuildsStayFlat) {
  GeneratorConfig GenCfg;
  GenCfg.MaxDepth = 4;
  GenCfg.RegionsPerLevel = 2;
  GenCfg.ExprPoolSize = 8;
  GenCfg.NumVars = 6;
  Function F;
  for (uint64_t Seed = 0xA11E5;; ++Seed) {
    F = generateProgram(Seed, GenCfg, "arena_stress");
    if (F.numBlocks() >= 30u)
      break;
  }
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  std::vector<int64_t> Args(F.Params.size(), 5);
  ExecResult Train = interpret(F, Args, EO);
  ASSERT_FALSE(Train.TimedOut);
  ASSERT_FALSE(Train.Trapped);
  Profile NodeProf = Prof.withoutEdgeFreqs();

  Function Ssa = F;
  constructSsa(Ssa);
  Cfg C(Ssa);
  DomTree DT = DomTree::buildDominators(C);
  std::vector<ExprKey> Candidates;
  for (const ExprKey &E : collectCandidateExprs(Ssa))
    if (!E.canFault())
      Candidates.push_back(E);
  ASSERT_FALSE(Candidates.empty());

  auto RunAllCandidates = [&] {
    for (const ExprKey &E : Candidates) {
      Frg G(Ssa, C, DT, E);
      computeSpeculativePlacement(G, NodeProf);
    }
  };

  PipelineMetrics Warmup;
  {
    MetricsScope MS(&Warmup);
    RunAllCandidates();
  }
  uint64_t BuildsPerEpoch = Warmup.arena().NetworkBuilds;
  ASSERT_GT(BuildsPerEpoch, 0u);
  ASSERT_GT(Warmup.arena().PeakBytes, 0u);

  const uint64_t Epochs = 2000 / BuildsPerEpoch + 1; // >= 2000 builds total
  PipelineMetrics Steady;
  {
    MetricsScope MS(&Steady);
    for (uint64_t I = 0; I != Epochs; ++I)
      RunAllCandidates();
  }
  EXPECT_EQ(Steady.arena().NetworkBuilds, Epochs * BuildsPerEpoch);
  // The high-water mark was established during warmup; repeating the
  // same builds thousands of times must not raise it (PeakBytes is a
  // running max over the thread-local arena's lifetime peak).
  EXPECT_EQ(Steady.arena().PeakBytes, Warmup.arena().PeakBytes);
  EXPECT_EQ(Steady.arena().ChunkAllocations,
            Warmup.arena().ChunkAllocations);
  // And the JSON export carries exactly these counters.
  std::string Json = Steady.arenaToJson();
  EXPECT_NE(Json.find("\"network_builds\": " +
                      std::to_string(Epochs * BuildsPerEpoch)),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"peak_bytes\": " +
                      std::to_string(Warmup.arena().PeakBytes)),
            std::string::npos)
      << Json;

  // The MC-PRE leg exercises the same arena/CSR machinery on the CFG
  // network; its peak must be flat across repeated full runs too.
  PipelineMetrics McPreWarm, McPreSteady;
  {
    MetricsScope MS(&McPreWarm);
    Function Copy = F;
    runMcPre(Copy, Prof);
  }
  ASSERT_GT(McPreWarm.arena().NetworkBuilds, 0u);
  {
    MetricsScope MS(&McPreSteady);
    for (int I = 0; I != 20; ++I) {
      Function Copy = F;
      runMcPre(Copy, Prof);
    }
  }
  EXPECT_EQ(McPreSteady.arena().NetworkBuilds,
            20 * McPreWarm.arena().NetworkBuilds);
  EXPECT_LE(McPreSteady.arena().PeakBytes, McPreWarm.arena().PeakBytes);
}

// Near-linear guards. No input within the 64 MiB SPV1 frame cap may pin a
// worker, so the verifier and the parser must stay near-linear in input
// size. Each case also runs as its own ctest under a short TIMEOUT
// (tests/CMakeLists.txt): a quadratic verifier needs about 2.5e9 block
// visits for the first, a quadratic parser about 5e9 name probes for the
// second.

TEST(NearLinear, VerifierLongStraightLineChain) {
  // entry defines v#1; each of the 50,000 blocks after it uses v#1 and
  // the previous block's value, so every use is a cross-block dominance
  // query.
  constexpr unsigned NumBlocks = 50000;
  Function F;
  F.Name = "chain";
  F.IsSSA = true;
  VarId P = F.getOrAddVar("p");
  VarId V = F.getOrAddVar("v");
  VarId W = F.getOrAddVar("w");
  F.Params.push_back(P);
  for (unsigned B = 0; B != NumBlocks; ++B)
    F.addBlock("b" + std::to_string(B));
  F.Blocks[0].Stmts = {
      Stmt::makeCompute(V, Opcode::Add, Operand::makeVar(P, 1),
                        Operand::makeConst(1), 1),
      Stmt::makeCopy(W, Operand::makeVar(V, 1), 1),
      Stmt::makeJump(1)};
  for (unsigned B = 1; B != NumBlocks; ++B) {
    int Ver = static_cast<int>(B) + 1;
    F.Blocks[B].Stmts = {Stmt::makeCompute(W, Opcode::Add,
                                           Operand::makeVar(W, Ver - 1),
                                           Operand::makeVar(V, 1), Ver),
                         B + 1 == NumBlocks
                             ? Stmt::makeRet(Operand::makeVar(W, Ver))
                             : Stmt::makeJump(static_cast<BlockId>(B + 1))};
  }
  std::string Error;
  EXPECT_TRUE(verifyFunction(F, Error)) << Error;

  // The same chain with the first block's definition moved off the path
  // (into an unreachable block): the last use must still be rejected.
  F.Blocks[1].Stmts.back() = Stmt::makeJump(2);
  F.Blocks[0].Stmts.back() = Stmt::makeJump(2);
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_EQ(Error, "function 'chain': definition of 'w#2' does not dominate "
                   "use in block 'b2': w#3 = w#2 + v#1");
}

TEST(NearLinear, ParserManyTemporaries) {
  // Each line materializes four temporaries: 25,000 lines give 100,000
  // "t$" names (about 0.7 MB of text).
  constexpr unsigned NumLines = 25000;
  std::string Text = "func f(a, b) {\nentry:\n  x = a\n";
  for (unsigned I = 0; I != NumLines; ++I)
    Text += "  x = (x + b) * (a - x) + " + std::to_string(I % 97) + "\n";
  Text += "  ret x\n}\n";
  std::string Error;
  std::optional<Module> M = parseModule(Text, Error);
  ASSERT_TRUE(M.has_value()) << Error;
  const Function &F = M->Functions.front();
  EXPECT_EQ(F.numVars(), 3u + 4 * NumLines);
  EXPECT_EQ(F.VarNames.back(), "t$." + std::to_string(4 * NumLines - 2));
  EXPECT_TRUE(verifyFunction(F, Error)) << Error;
}
