//===- tests/robustness_test.cpp - Fault isolation & degradation ----------------===//
//
// Coverage for the robustness stack: the deterministic fault injector,
// per-function compile budgets, and the degradation ladder that turns
// recoverable failures into retries on cheaper strategies. Each rung of
// the ladder is pinned by arming exactly the fault sites that kill the
// rungs above it.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "mincut/MinCut.h"
#include "pre/ParallelDriver.h"
#include "pre/PreDriver.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"
#include "support/Status.h"

#include <gtest/gtest.h>

#include <chrono>
#include <regex>
#include <thread>

using namespace specpre;

namespace {

/// The skewed-diamond scenario (see mcssapre_test): the expression is
/// used only on the cold path, so MC-SSAPRE speculates under a profile
/// and every pipeline step — including the EFG min cut — actually runs.
const char *SkewedDiamond = R"(
  func f(a, b, n) {
  entry:
    i = 0
    s = 0
    jmp h
  h:
    t = i < n
    br t, body, exit
  body:
    c = i & 7
    cz = c == 0
    br cz, cold, hot
  cold:
    x = a + b
    s = s + x
    jmp latch
  hot:
    s = s + 1
    jmp latch
  latch:
    i = i + 1
    jmp h
  exit:
    ret s
  }
)";

const std::vector<int64_t> TrainArgs = {3, 4, 64};

struct Case {
  Function Prepared;
  Profile NodeOnly;
};

Case prepareCase() {
  Case C;
  C.Prepared = parseFunctionOrDie(SkewedDiamond);
  prepareFunction(C.Prepared);
  Profile Prof;
  ExecOptions EO;
  EO.CollectProfile = &Prof;
  interpret(C.Prepared, TrainArgs, EO);
  C.NodeOnly = Prof.withoutEdgeFreqs();
  return C;
}

/// Fixture that guarantees injection is disarmed after every test, so a
/// failing expectation cannot poison unrelated tests in this binary.
class RobustnessTest : public ::testing::Test {
protected:
  void TearDown() override { disableFaultInjection(); }

  CompileOutcomeRecord compileLadder(const Case &C, const CompileBudget &B =
                                                        CompileBudget()) {
    PreOptions PO;
    PO.Strategy = PreStrategy::McSsaPre;
    PO.Prof = &C.NodeOnly;
    PO.Budget = B;
    CompileOutcomeRecord Outcome;
    Result = compileWithFallback(C.Prepared, PO, &Outcome);
    return Outcome;
  }

  Function Result;
};

TEST_F(RobustnessTest, FaultSpecParsing) {
  EXPECT_TRUE(configureFaultInjection("min-cut:0.5").isOk());
  EXPECT_TRUE(faultInjectionEnabled());
  EXPECT_TRUE(configureFaultInjection("all:0.01:77").isOk());
  EXPECT_TRUE(configureFaultInjection("alloc:1,budget:0.25:3").isOk());

  EXPECT_EQ(configureFaultInjection("bogus:1").code(),
            ErrorCode::InvalidInput);
  EXPECT_EQ(configureFaultInjection("min-cut:2").code(),
            ErrorCode::InvalidInput);
  EXPECT_EQ(configureFaultInjection("min-cut:-0.5").code(),
            ErrorCode::InvalidInput);
  EXPECT_EQ(configureFaultInjection("min-cut").code(),
            ErrorCode::InvalidInput);
  EXPECT_EQ(configureFaultInjection("min-cut:0.5:notaseed").code(),
            ErrorCode::InvalidInput);

  EXPECT_TRUE(configureFaultInjection("").isOk());
  EXPECT_FALSE(faultInjectionEnabled());
}

TEST_F(RobustnessTest, NoInjectionNoDegradation) {
  Case C = prepareCase();
  CompileOutcomeRecord O = compileLadder(C);
  EXPECT_EQ(O.Used, "MC-SSAPRE");
  EXPECT_EQ(O.Retries, 0u);
  EXPECT_FALSE(O.degraded());
  EXPECT_TRUE(O.Cause.empty());
}

TEST_F(RobustnessTest, LadderPinsSsaPreSpecRung) {
  Case C = prepareCase();
  ASSERT_TRUE(configureFaultInjection("min-cut:1").isOk());
  CompileOutcomeRecord O = compileLadder(C);
  EXPECT_EQ(O.Requested, "MC-SSAPRE");
  EXPECT_EQ(O.Used, "SSAPREsp");
  EXPECT_EQ(O.Retries, 1u);
  EXPECT_EQ(O.Cause, "fault-injected");
}

TEST_F(RobustnessTest, LadderPinsSsaPreRung) {
  Case C = prepareCase();
  ASSERT_TRUE(configureFaultInjection("min-cut:1,speculation:1").isOk());
  CompileOutcomeRecord O = compileLadder(C);
  EXPECT_EQ(O.Used, "SSAPRE");
  EXPECT_EQ(O.Retries, 2u);
  EXPECT_EQ(O.Cause, "fault-injected");
}

TEST_F(RobustnessTest, LadderPinsIdentityRung) {
  Case C = prepareCase();
  ASSERT_TRUE(
      configureFaultInjection("min-cut:1,speculation:1,safe-placement:1")
          .isOk());
  CompileOutcomeRecord O = compileLadder(C);
  EXPECT_EQ(O.Used, "none");
  EXPECT_EQ(O.Retries, 3u);
  // The identity rung hands back the prepared input verbatim.
  EXPECT_EQ(printFunction(Result), printFunction(C.Prepared));
}

TEST_F(RobustnessTest, SemanticsPreservedUnderInjection) {
  Case C = prepareCase();
  ExecResult Ref = interpret(C.Prepared, TrainArgs);
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    std::string Spec = "all:0.3:" + std::to_string(Seed);
    ASSERT_TRUE(configureFaultInjection(Spec).isOk());
    CompileOutcomeRecord O = compileLadder(C);
    EXPECT_FALSE(O.Used.empty());
    ExecResult R = interpret(Result, TrainArgs);
    EXPECT_TRUE(R.sameObservableBehavior(Ref))
        << "seed " << Seed << " landed on " << O.Used << ": "
        << R.describe() << " vs " << Ref.describe();
  }
}

TEST_F(RobustnessTest, InjectionIsDeterministic) {
  Case C = prepareCase();
  ASSERT_TRUE(configureFaultInjection("all:0.4:99").isOk());
  CompileOutcomeRecord First = compileLadder(C);
  std::string FirstIr = printFunction(Result);
  uint64_t FirstFaults = faultsInjectedCount();
  // Re-arming the same spec resets the hit counters, so the whole run
  // replays bit-identically.
  ASSERT_TRUE(configureFaultInjection("all:0.4:99").isOk());
  CompileOutcomeRecord Second = compileLadder(C);
  EXPECT_EQ(First, Second);
  EXPECT_EQ(FirstIr, printFunction(Result));
  EXPECT_EQ(FirstFaults, faultsInjectedCount());
}

TEST_F(RobustnessTest, BudgetGraphNodeCapDegrades) {
  Case C = prepareCase();
  CompileBudget B;
  B.MaxGraphNodes = 1; // Every FRG is bigger than this.
  CompileOutcomeRecord O = compileLadder(C, B);
  EXPECT_EQ(O.Used, "none");
  EXPECT_EQ(O.Cause, "budget-exhausted");
  EXPECT_EQ(printFunction(Result), printFunction(C.Prepared));
}

TEST_F(RobustnessTest, BudgetDeadlineTrips) {
  CompileBudget B;
  B.DeadlineMillis = 1;
  BudgetTracker T(B);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status S = T.checkDeadline("unit test");
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), ErrorCode::BudgetExhausted);
  // reset() restores the full allowance for the next ladder rung.
  T.reset();
  EXPECT_TRUE(T.checkDeadline("unit test").isOk());
}

TEST_F(RobustnessTest, BudgetAugmentationCapTrips) {
  CompileBudget B;
  B.MaxFlowAugmentations = 2;
  BudgetTracker T(B);
  EXPECT_TRUE(T.noteAugmentation("unit test").isOk());
  EXPECT_TRUE(T.noteAugmentation("unit test").isOk());
  Status S = T.noteAugmentation("unit test");
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), ErrorCode::BudgetExhausted);
  EXPECT_EQ(T.augmentationsUsed(), 3u);
}

TEST_F(RobustnessTest, UseBeforeDefDegradesToIdentity) {
  // An invalid-input error from SSA construction is recoverable: every
  // SSA rung fails, and the identity rung (which never builds SSA)
  // returns the input unchanged instead of aborting the process.
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      x = never_assigned + 1
      ret x
    }
  )");
  PreOptions PO;
  PO.Strategy = PreStrategy::SsaPre;
  PO.Verify = false;
  CompileOutcomeRecord O;
  Function Out = compileWithFallback(F, PO, &O);
  EXPECT_EQ(O.Used, "none");
  EXPECT_EQ(O.Cause, "invalid-input");
  EXPECT_EQ(printFunction(Out), printFunction(F));
}

TEST_F(RobustnessTest, EquivalenceInputsGateAcceptance) {
  Case C = prepareCase();
  std::vector<std::vector<int64_t>> Inputs = {{3, 4, 64}, {1, 2, 5}, {}};
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &C.NodeOnly;
  PO.EquivalenceInputs = &Inputs;
  CompileOutcomeRecord O;
  Function Out = compileWithFallback(C.Prepared, PO, &O);
  EXPECT_EQ(O.Used, "MC-SSAPRE");
  EXPECT_FALSE(O.degraded());
}

TEST_F(RobustnessTest, BruteForceOracleRejectsOversizedNetwork) {
  FlowNetwork Net;
  for (int I = 0; I != 23; ++I)
    Net.addNode();
  for (int I = 0; I + 1 != 23; ++I)
    Net.addEdge(I, I + 1, 1);
  Expected<int64_t> R = bruteForceMinCutCapacity(Net, 0, 22);
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.status().code(), ErrorCode::ResourceLimit);
}

/// An injected fault's message names the site's global hit counter. On
/// a pool, which function draws which hit depends on scheduling
/// (docs/ROBUSTNESS.md), so ladder outcomes are compared without it.
CompileOutcomeRecord withoutHitCounter(CompileOutcomeRecord O) {
  O.Message = std::regex_replace(O.Message, std::regex(R"(\(hit \d+\))"),
                                 "(hit N)");
  return O;
}

/// Three renamed copies of the skewed diamond: a corpus for the pool.
std::vector<Case> prepareCorpus() {
  std::vector<Case> Cases;
  for (int I = 0; I != 3; ++I) {
    Cases.push_back(prepareCase());
    Cases.back().Prepared.Name = "skewed" + std::to_string(I);
  }
  return Cases;
}

std::vector<CompileTask> tasksFor(const std::vector<Case> &Cases) {
  std::vector<CompileTask> Tasks;
  for (const Case &C : Cases) {
    PreOptions PO;
    PO.Strategy = PreStrategy::McSsaPre;
    PO.Prof = &C.NodeOnly;
    Tasks.push_back({&C.Prepared, PO});
  }
  return Tasks;
}

TEST_F(RobustnessTest, ParallelFallbackMatchesSerial) {
  // Once clean, and once with every min cut failing so every function
  // walks the ladder down to SSAPREsp: a serial ladder loop and a
  // 4-worker compileCorpus must agree on the IR, every statistics
  // record and every outcome.
  for (const char *Faults : {"", "min-cut:1"}) {
    SCOPED_TRACE(std::string("faults '") + Faults + "'");
    std::vector<Case> Cases = prepareCorpus();
    std::vector<CompileTask> Tasks = tasksFor(Cases);

    auto Arm = [&] {
      if (*Faults) {
        ASSERT_TRUE(configureFaultInjection(Faults).isOk());
      }
    };
    Arm();
    std::vector<Function> Serial;
    PreStats SerialStats;
    for (unsigned I = 0; I != Tasks.size(); ++I) {
      PreStats Shard;
      PreOptions PO = Tasks[I].Opts;
      PO.Stats = &Shard;
      Serial.push_back(compileWithFallback(*Tasks[I].Prepared, PO));
      Shard.stampFunctionIndex(I);
      SerialStats.merge(Shard);
    }

    Arm(); // re-arming restarts the deterministic fault sequence
    ParallelConfig PC;
    PC.Jobs = 4;
    ParallelPreDriver Driver(PC);
    PreStats ParallelStats;
    std::vector<Function> Parallel =
        Driver.compileCorpus(Tasks, &ParallelStats);
    disableFaultInjection();

    ASSERT_EQ(Parallel.size(), Serial.size());
    for (unsigned I = 0; I != Serial.size(); ++I)
      EXPECT_EQ(printFunction(Serial[I]), printFunction(Parallel[I]));
    EXPECT_FALSE(SerialStats.records().empty());
    EXPECT_EQ(SerialStats.records(), ParallelStats.records());
    ASSERT_EQ(SerialStats.outcomes().size(), Tasks.size());
    ASSERT_EQ(ParallelStats.outcomes().size(), Tasks.size());
    for (unsigned I = 0; I != Tasks.size(); ++I) {
      EXPECT_EQ(SerialStats.outcomes()[I].degraded(), *Faults != 0);
      EXPECT_EQ(withoutHitCounter(SerialStats.outcomes()[I]),
                withoutHitCounter(ParallelStats.outcomes()[I]));
    }
  }
}

TEST_F(RobustnessTest, ParallelDriverDegradesUnderInjection) {
  std::vector<Case> Cases = prepareCorpus();
  ASSERT_TRUE(configureFaultInjection("min-cut:1").isOk());
  ParallelConfig PC;
  PC.Jobs = 4;
  ParallelPreDriver Driver(PC);
  PreStats Stats;
  std::vector<Function> Out = Driver.compileCorpus(tasksFor(Cases), &Stats);
  ASSERT_EQ(Stats.outcomes().size(), Cases.size());
  ExecResult Ref = interpret(Cases[0].Prepared, TrainArgs);
  for (unsigned I = 0; I != Cases.size(); ++I) {
    EXPECT_TRUE(Stats.outcomes()[I].degraded());
    EXPECT_EQ(Stats.outcomes()[I].Used, "SSAPREsp");
    EXPECT_TRUE(interpret(Out[I], TrainArgs).sameObservableBehavior(Ref));
  }
}

TEST_F(RobustnessTest, OutcomeRecordedInStats) {
  Case C = prepareCase();
  ASSERT_TRUE(configureFaultInjection("min-cut:1").isOk());
  PreOptions PO;
  PO.Strategy = PreStrategy::McSsaPre;
  PO.Prof = &C.NodeOnly;
  PreStats Stats;
  PO.Stats = &Stats;
  compileWithFallback(C.Prepared, PO);
  ASSERT_EQ(Stats.outcomes().size(), 1u);
  EXPECT_EQ(Stats.outcomes()[0].Used, "SSAPREsp");
  EXPECT_EQ(Stats.numDegraded(), 1u);
}

} // namespace
