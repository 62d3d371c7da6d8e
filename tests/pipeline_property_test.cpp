//===- tests/pipeline_property_test.cpp - End-to-end PRE properties -------------===//
//
// Property battery over randomly generated programs: for every strategy,
// the transformed program must (a) verify, (b) behave observationally
// identically on multiple inputs, and (c) never compute more than the
// original on the profiled input (for profile-guided strategies) or on
// every input (for safe SSAPRE). The Definition-1 oracle that (a) runs
// is also checked on hand-placed transforms, broken and correct.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pre/ExprKey.h"
#include "pre/LexicalDataFlow.h"
#include "pre/PreDriver.h"
#include "profile/Profile.h"
#include "support/Random.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace specpre;

namespace {

struct Case {
  uint64_t Seed;
  bool AllowDiv;
  unsigned MaxDepth;
};

class PipelineProperty : public ::testing::TestWithParam<Case> {};

std::vector<int64_t> argsFor(const Function &F, uint64_t Seed, int Variant) {
  std::vector<int64_t> Args;
  for (unsigned P = 0; P != F.Params.size(); ++P)
    Args.push_back(static_cast<int64_t>(Seed * 131 + Variant * 977 + P * 31));
  return Args;
}

} // namespace

TEST_P(PipelineProperty, AllStrategiesPreserveSemantics) {
  const Case &C = GetParam();
  GeneratorConfig Cfg0;
  Cfg0.AllowDiv = C.AllowDiv;
  Cfg0.MaxDepth = C.MaxDepth;
  Function Prepared = generateProgram(C.Seed, Cfg0);
  prepareFunction(Prepared);
  verifyFunctionOrDie(Prepared, "prepared");

  // Profile from the training input (variant 0).
  Profile Prof;
  {
    ExecOptions EO;
    EO.CollectProfile = &Prof;
    ExecResult Train = interpret(Prepared, argsFor(Prepared, C.Seed, 0), EO);
    ASSERT_FALSE(Train.TimedOut);
    ASSERT_FALSE(Train.Trapped);
  }
  Profile NodeOnly = Prof.withoutEdgeFreqs();

  for (PreStrategy Strategy :
       {PreStrategy::SsaPre, PreStrategy::SsaPreSpec, PreStrategy::McSsaPre,
        PreStrategy::McPre}) {
    PreOptions PO;
    PO.Strategy = Strategy;
    PO.Prof = Strategy == PreStrategy::McPre ? &Prof : &NodeOnly;
    PO.Verify = true; // aborts on verifier/Definition-1 violations
    Function Optimized = compileWithPre(Prepared, PO);

    for (int Variant = 0; Variant != 4; ++Variant) {
      std::vector<int64_t> Args = argsFor(Prepared, C.Seed, Variant);
      ExecResult Base = interpret(Prepared, Args);
      ExecResult Opt = interpret(Optimized, Args);
      ASSERT_TRUE(Base.sameObservableBehavior(Opt))
          << "strategy " << strategyName(Strategy) << " seed " << C.Seed
          << " variant " << Variant << "\n"
          << printFunction(Optimized);
      // Safe SSAPRE must never slow any input down (safety property).
      if (Strategy == PreStrategy::SsaPre) {
        ASSERT_LE(Opt.DynamicComputations, Base.DynamicComputations)
            << "SSAPRE increased computations, seed " << C.Seed;
      }
      // Profile-guided speculation must win (or tie) on the exact input
      // it was trained on.
      if (Variant == 0 && (Strategy == PreStrategy::McSsaPre ||
                           Strategy == PreStrategy::McPre)) {
        ASSERT_LE(Opt.DynamicComputations, Base.DynamicComputations)
            << strategyName(Strategy) << " lost on its own training input, "
            << "seed " << C.Seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, PipelineProperty, [] {
  std::vector<Case> Cases;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    Cases.push_back(
        Case{Seed * 7919 + 13, Seed % 3 == 0, 2 + unsigned(Seed % 3)});
  return ::testing::ValuesIn(Cases);
}());

TEST(PipelineDeterminism, SameSeedSameResult) {
  GeneratorConfig Cfg0;
  Function A = generateProgram(4242, Cfg0);
  Function B = generateProgram(4242, Cfg0);
  EXPECT_EQ(printFunction(A), printFunction(B));
  prepareFunction(A);
  prepareFunction(B);
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  interpret(A, argsFor(A, 4242, 0), EO);
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &Prof;
  Function OA = compileWithPre(A, PO);
  Function OB = compileWithPre(B, PO);
  EXPECT_EQ(printFunction(OA), printFunction(OB));
}

TEST(ProfileRobustness, GarbageProfilesNeverBreakCorrectness) {
  // Correctness (Definition 1) must not depend on profile fidelity: feed
  // the speculative strategies adversarial profiles — zeros, uniform
  // junk, random values, wildly scaled — and require observational
  // equivalence on several inputs. Only optimality may degrade.
  Rng R(0xFEED);
  for (uint64_t Seed = 50; Seed <= 62; ++Seed) {
    GeneratorConfig Cfg0;
    Cfg0.AllowDiv = Seed % 2 == 0;
    Function Prepared = generateProgram(Seed * 1031, Cfg0);
    prepareFunction(Prepared);

    for (int Kind = 0; Kind != 4; ++Kind) {
      Profile Prof;
      Prof.reset(Prepared.numBlocks(), false);
      switch (Kind) {
      case 0: // all zero
        break;
      case 1: // uniform
        for (auto &BF : Prof.BlockFreq)
          BF = 1000;
        break;
      case 2: // random junk
        for (auto &BF : Prof.BlockFreq)
          BF = R.nextBelow(1u << 20);
        break;
      case 3: // extreme skew
        for (unsigned B = 0; B != Prof.BlockFreq.size(); ++B)
          Prof.BlockFreq[B] = (B % 3 == 0) ? 0 : (uint64_t(1) << 40);
        break;
      }
      for (PreStrategy Strategy :
           {PreStrategy::McSsaPre, PreStrategy::McPre}) {
        PreOptions PO;
        PO.Strategy = Strategy;
        Profile EdgeProf = Prof.withEstimatedEdgeFreqs(Prepared);
        PO.Prof = Strategy == PreStrategy::McPre ? &EdgeProf : &Prof;
        Function Opt = compileWithPre(Prepared, PO);
        for (int V = 0; V != 3; ++V) {
          std::vector<int64_t> Args(Prepared.Params.size(),
                                    static_cast<int64_t>(Seed * 7 + V));
          ExecResult Base = interpret(Prepared, Args);
          ExecResult O = interpret(Opt, Args);
          ASSERT_TRUE(Base.sameObservableBehavior(O))
              << strategyName(Strategy) << " kind " << Kind << " seed "
              << Seed;
        }
      }
    }
  }
}

TEST(ProfileRobustness, TruncatedProfileIsTolerated) {
  // A profile shorter than the block count (stale FDO data after the
  // function grew) reads as zero frequencies for the missing blocks.
  GeneratorConfig Cfg0;
  Function Prepared = generateProgram(31337, Cfg0);
  prepareFunction(Prepared);
  Profile Prof;
  Prof.reset(Prepared.numBlocks() / 2, false);
  for (auto &BF : Prof.BlockFreq)
    BF = 5;
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &Prof;
  Function Opt = compileWithPre(Prepared, PO);
  std::vector<int64_t> Args(Prepared.Params.size(), 3);
  EXPECT_TRUE(interpret(Prepared, Args)
                  .sameObservableBehavior(interpret(Opt, Args)));
}

//===----------------------------------------------------------------------===//
// The Definition-1 oracle (checkReloadsFullyAvailable) on hand-placed
// transforms: every reload of `t` must see `a + b` fully available.
//===----------------------------------------------------------------------===//

namespace {

/// The oracle's verdict on \p Text, with `t` the temporary of its one
/// candidate expression: "<accepted>" or the exact message.
std::string definitionOneVerdict(std::string_view Text) {
  Function F = parseFunctionOrDie(Text);
  std::vector<ExprKey> Exprs = collectCandidateExprs(F);
  EXPECT_EQ(Exprs.size(), 1u);
  std::vector<std::pair<ExprKey, VarId>> TempMap{{Exprs[0], F.findVar("t")}};
  std::string Error;
  if (checkReloadsFullyAvailable(F, TempMap, Error))
    return "<accepted>";
  return Error;
}

} // namespace

TEST(DefinitionOneOracle, RejectsReloadWhereNeverComputed) {
  // The else path reaches the reload without computing a + b.
  EXPECT_EQ(definitionOneVerdict(R"(
    func f(a, b, p) {
    entry:
      br p, l, r
    l:
      x = a + b
      t = x
      jmp j
    r:
      jmp j
    j:
      z = t
      ret z
    }
  )"),
            "expression 'a + b' not fully available at reload in block 'j': "
            "z = t");
}

TEST(DefinitionOneOracle, RejectsReloadAfterOperandRedefinition) {
  // a + b is computed on every path, but block k, which every path
  // crosses, changes `a` before the reload.
  EXPECT_EQ(definitionOneVerdict(R"(
    func f(a, b) {
    entry:
      x = a + b
      t = x
      jmp k
    k:
      a = 7
      jmp m
    m:
      z = t
      ret z
    }
  )"),
            "expression 'a + b' not fully available at reload in block 'm': "
            "z = t");
}

TEST(DefinitionOneOracle, AcceptsCorrectPlacement) {
  // The textbook diamond after PRE: the else path gets the insertion.
  EXPECT_EQ(definitionOneVerdict(R"(
    func f(a, b, p) {
    entry:
      br p, l, r
    l:
      x = a + b
      t = x
      jmp j
    r:
      t = a + b
      jmp j
    j:
      z = t
      ret z
    }
  )"),
            "<accepted>");
}
