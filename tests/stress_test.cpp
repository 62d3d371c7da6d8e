//===- tests/stress_test.cpp - Large-program stress ------------------------------===//
//
// One big generated program (hundreds of blocks, thousands of
// statements) through every strategy plus the scalar pipeline and
// out-of-SSA, end to end. Guards against quadratic blowups and
// deep-recursion issues that small unit tests cannot see.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "opt/Cleanup.h"
#include "opt/ValueNumbering.h"
#include "pre/PreDriver.h"
#include "pre/PreStats.h"
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

// Near-linear guards. No input within the 64 MiB SPV1 frame cap may pin a
// worker or overflow its stack, so the verifier and the parser must stay
// near-linear in input size, and no pass may recurse once per block.
// Each case also runs as its own ctest under a short TIMEOUT
// (tests/CMakeLists.txt): a quadratic verifier needs about 2.5e9 block
// visits for the first, a quadratic parser about 5e9 name probes for the
// second. The FRG case gates deterministic work counters instead.

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

TEST(NearLinear, CompileDeepDominatorTree) {
  // `x = x + a` in each of 50,000 chained blocks: the dominator tree is
  // a path as long as the function, which a recursive SSA rename, FRG
  // rename, Finalize or GVN walk cannot descend on an 8 MiB stack.
  constexpr unsigned NumBlocks = 50000;
  Function F;
  F.Name = "deep";
  VarId A = F.getOrAddVar("a");
  VarId X = F.getOrAddVar("x");
  F.Params.push_back(A);
  for (unsigned B = 0; B != NumBlocks + 2; ++B)
    F.addBlock("b" + std::to_string(B));
  F.Blocks[0].Stmts = {Stmt::makeCopy(X, Operand::makeVar(A)),
                       Stmt::makeJump(1)};
  for (unsigned B = 1; B != NumBlocks + 1; ++B)
    F.Blocks[B].Stmts = {Stmt::makeCompute(X, Opcode::Add, Operand::makeVar(X),
                                           Operand::makeVar(A)),
                         Stmt::makeJump(static_cast<BlockId>(B + 1))};
  F.Blocks[NumBlocks + 1].Stmts = {Stmt::makeRet(Operand::makeVar(X))};
  prepareFunction(F);

  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  ExecResult Train = interpret(F, {1}, EO);
  ASSERT_FALSE(Train.TimedOut);
  ASSERT_EQ(Train.ReturnValue, int64_t(NumBlocks) + 1);
  Profile NodeOnly = Prof.withoutEdgeFreqs();

  for (PreStrategy S : {PreStrategy::SsaPre, PreStrategy::McSsaPre}) {
    PreOptions PO;
    PO.Strategy = S;
    PO.Prof = &NodeOnly;
    CompileOutcomeRecord Outcome;
    Function Opt = compileWithFallback(F, PO, &Outcome);
    EXPECT_EQ(Outcome.Used, strategyName(S)) << Outcome.Message;
    EXPECT_FALSE(Outcome.degraded()) << Outcome.Message;
    ASSERT_TRUE(Opt.IsSSA);
    runValueNumbering(Opt);
    std::string Error;
    EXPECT_TRUE(verifyFunction(Opt, Error)) << Error;
    EXPECT_EQ(interpret(Opt, {1}).ReturnValue, int64_t(NumBlocks) + 1);
  }
}

TEST(NearLinear, FrgPhisPerRealOnDeepChain) {
  // The deep-chain family of bench/compile_time_scaling (K sequential
  // width-3 grid regions). Unpruned, the FRGs hold O(candidates x join
  // blocks) Φs, about 64 per real occurrence at K=128; pruned to the
  // blocks where the expression is partially anticipated, they stay
  // proportional to the occurrences. Both gates count work, not time.
  struct Point {
    uint64_t Stmts = 0, KeptPhis = 0, Reals = 0, PhiInsertionSize = 0;
  };
  std::vector<Point> Points;
  for (unsigned K = 16; K <= 128; K *= 2) {
    GeneratorConfig Cfg;
    Cfg.MaxDepth = 1;
    Cfg.RegionsPerLevel = K;
    Cfg.IfChance = 0;
    Cfg.WhileChance = 0;
    Cfg.DoWhileChance = 0;
    Cfg.GridChance = 1000;
    Cfg.MaxWidth = 3;
    Cfg.ExprPoolSize = 10;
    Cfg.InvariantChance = 400;
    uint64_t Seed = 17 * K + 3;
    Function F;
    do
      F = generateProgram(Seed++, Cfg, "chain" + std::to_string(K));
    while (F.numBlocks() < K * 15u);
    prepareFunction(F);

    Profile Prof;
    ExecOptions EO;
    EO.MaxSteps = 50'000'000;
    EO.CollectProfile = &Prof;
    ExecResult Train =
        interpret(F, std::vector<int64_t>(F.Params.size(), 1000 + K), EO);
    ASSERT_FALSE(Train.Trapped || Train.TimedOut) << "K=" << K;
    Profile NodeOnly = Prof.withoutEdgeFreqs();

    PreStats Stats;
    PipelineMetrics Metrics;
    PreOptions PO;
    PO.Strategy = PreStrategy::McSsaPre;
    PO.Prof = &NodeOnly;
    PO.Stats = &Stats;
    PO.Verify = false;
    (void)compileWithPre(F, PO, &Metrics);

    Point P;
    for (const BasicBlock &BB : F.Blocks)
      P.Stmts += BB.Stmts.size();
    for (const ExprStatsRecord &R : Stats.records())
      P.Reals += R.FrgReals;
    P.PhiInsertionSize = Metrics.step(PipelineStep::PhiInsertion).ProblemSize;
    P.KeptPhis = P.PhiInsertionSize - P.Reals;
    ASSERT_GT(P.Reals, 0u);
    EXPECT_LE(P.KeptPhis, 2 * P.Reals)
        << "K=" << K << ": " << P.KeptPhis << " FRG Φs for " << P.Reals
        << " real occurrences";
    Points.push_back(P);
  }
  // The PhiInsertion step's problem size (kept Φs + reals) grows no
  // faster than 1.5x the program from K=16 to K=128.
  double SizeRatio = double(Points.back().PhiInsertionSize) /
                     double(Points.front().PhiInsertionSize);
  double StmtRatio =
      double(Points.back().Stmts) / double(Points.front().Stmts);
  EXPECT_LE(SizeRatio, 1.5 * StmtRatio)
      << "Φ-insertion problem size grew " << SizeRatio
      << "x while the program grew " << StmtRatio << "x";
}
