//===- pre/PreDriver.cpp - PRE pipeline orchestration -------------------------===//

#include "pre/PreDriver.h"

#include "analysis/Cfg.h"
#include "analysis/CriticalEdges.h"
#include "analysis/DomTree.h"
#include "analysis/LoopRestructure.h"
#include "analysis/Loops.h"
#include "analysis/TreeDecomposition.h"
#include "ir/Verifier.h"
#include "pre/CachedCompile.h"
#include "pre/CodeMotion.h"
#include "pre/ExprKey.h"
#include "pre/Finalize.h"
#include "pre/Frg.h"
#include "pre/LexicalDataFlow.h"
#include "pre/Lcm.h"
#include "pre/Lospre.h"
#include "pre/McPre.h"
#include "pre/McSsaPre.h"
#include "pre/SsaPre.h"
#include "ssa/SsaConstruction.h"
#include "support/CrashContext.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"

#include <cassert>
#include <exception>

using namespace specpre;

namespace {

/// The one strategy-name table: the display name (stats, outcomes) and
/// the --strategy= / wire spelling of every strategy.
struct StrategyNames {
  PreStrategy Strategy;
  const char *Display;
  const char *Flag;
};

constexpr StrategyNames StrategyTable[] = {
    {PreStrategy::None, "none", "none"},
    {PreStrategy::SsaPre, "SSAPRE", "ssapre"},
    {PreStrategy::SsaPreSpec, "SSAPREsp", "ssapresp"},
    {PreStrategy::McSsaPre, "MC-SSAPRE", "mcssapre"},
    {PreStrategy::McPre, "MC-PRE", "mcpre"},
    {PreStrategy::Lcm, "LCM", "lcm"},
    {PreStrategy::Lospre, "LOSPRE", "lospre"},
};

const StrategyNames &namesOf(PreStrategy S) {
  for (const StrategyNames &N : StrategyTable)
    if (N.Strategy == S)
      return N;
  SPECPRE_UNREACHABLE("bad strategy");
}

} // namespace

const char *specpre::strategyName(PreStrategy S) { return namesOf(S).Display; }

const char *specpre::strategyFlagName(PreStrategy S) {
  return namesOf(S).Flag;
}

bool specpre::parseStrategyFlag(const std::string &Name, PreStrategy &Out) {
  for (const StrategyNames &N : StrategyTable)
    if (Name == N.Flag) {
      Out = N.Strategy;
      return true;
    }
  return false;
}

void specpre::prepareFunction(Function &F) {
  assert(!F.IsSSA && "prepareFunction expects pre-SSA input");
  removeUnreachableBlocks(F);
  restructureWhileLoops(F);
  splitCriticalEdges(F);
}

namespace {

/// Runs the IR verifier; on failure throws StatusException(VerifyFailed),
/// which the degradation ladder converts into a retry on a cheaper
/// strategy.
void verifyOrThrow(const Function &F, const std::string &Context) {
  std::string Error;
  if (!verifyFunction(F, Error))
    throw StatusException(ErrorCode::VerifyFailed,
                          "IR verification failed " + Context + ": " + Error);
}

/// Leg D's whole-function gate: Krause's linear-time construction
/// assumes structured (reducible) control flow, so an irreducible CFG
/// is refused up front — one recoverable bailout for the function, not
/// one per expression — and the degradation ladder retries with
/// MC-SSAPRE, which accepts anything.
void gateLospreReducibility(const Cfg &C, const DomTree &DT) {
  if (isReducibleCfg(C, DT))
    return;
  if (PipelineMetrics *M = currentMetricsSink())
    ++M->lospre().Bailouts;
  throw StatusException(ErrorCode::ResourceLimit,
                        "LOSPRE requires a reducible CFG");
}

/// Starts \p G's statistics record and runs the strategy's placement on
/// it: the one per-expression placement switch of the SSA legs.
ExprStatsRecord computePlacement(const Function &F, Frg &G, unsigned EI,
                                 const PreOptions &Opts,
                                 const LexicalDataFlow &LDF,
                                 const LoopInfo &LI) {
  const ExprKey &E = G.expr();
  ExprStatsRecord Rec;
  Rec.Expr = E.toString(F);
  Rec.FunctionName = F.Name;
  Rec.ExprIndex = EI;
  Rec.FrgPhis = G.numPhiBlocks();
  Rec.FrgReals = static_cast<unsigned>(G.reals().size());

  const bool Speculate = Opts.Strategy == PreStrategy::McSsaPre ||
                         Opts.Strategy == PreStrategy::Lospre;
  if (Opts.Strategy == PreStrategy::SsaPre || (Speculate && E.canFault())) {
    // Faulting computations cannot be speculated (paper Section 2): the
    // speculative legs fall back to the safe placement for them.
    computeSafePlacement(G, LDF, EI, /*LoopSpeculation=*/false, nullptr);
    return Rec;
  }
  if (Opts.Strategy == PreStrategy::SsaPreSpec) {
    computeSafePlacement(G, LDF, EI, /*LoopSpeculation=*/!E.canFault(), &LI);
    return Rec;
  }
  assert(Speculate && "non-SSA strategy in the per-expression pipeline");
  assert(Opts.Prof && "the speculative legs require a profile");
  EfgStats ES = Opts.Strategy == PreStrategy::Lospre
                    ? computeLosprePlacement(G, *Opts.Prof, Opts.Objective,
                                             Opts.LospreMaxWidth)
                    : computeSpeculativePlacement(G, *Opts.Prof,
                                                  Opts.Placement,
                                                  Opts.Objective);
  Rec.Speculated = true;
  Rec.EfgEmpty = ES.Empty;
  Rec.EfgNodes = ES.NumNodes;
  Rec.EfgEdges = ES.NumEdges;
  Rec.CutWeight = ES.CutWeight;
  Rec.SprWeight = ES.SprWeight;
  Rec.InsertedWeight = ES.InsertedWeight;
  Rec.InPlaceWeight = ES.InPlaceWeight;
  Rec.Saturated = ES.Saturated;
  Rec.LospreWidth = ES.TdWidth;
  Rec.LospreDpEntries = ES.DpEntries;
  return Rec;
}

/// Commits one placed expression: finalize, the finalize-time
/// statistics, code motion, then the Verifier and the Definition-1
/// check. A verification failure throws StatusException(VerifyFailed).
void commitPlacement(Function &F, Frg &G, unsigned EI, ExprStatsRecord Rec,
                     const PreOptions &Opts) {
  FinalizePlan Plan = finalizePlacement(G);
  for (const RealOcc &R : G.reals()) {
    Rec.NumReloads += R.Reload;
    Rec.NumSaves += R.Save;
    if (Opts.Prof && R.Reload) {
      uint64_t Freq = Opts.Prof->blockFreq(R.Block);
      Rec.ReloadedFreq += Freq;
      // An SPR occurrence: one that participated in the EFG (its
      // defining Φ survived graph reduction). Only those are covered
      // by the min-cut reconciliation identities.
      if (!R.RgExcluded && R.Def.isPhi() && G.phiOf(R.Def).InReducedGraph)
        Rec.SprReloadedFreq += Freq;
    }
  }
  for (const TempDef &D : Plan.TempDefs) {
    if (!D.Live)
      continue;
    if (D.K == TempDef::Kind::Phi)
      ++Rec.NumTempPhis;
    if (D.K == TempDef::Kind::Insert) {
      ++Rec.NumInsertions;
      if (Opts.Prof)
        Rec.InsertedFreq += Opts.Prof->blockFreq(D.Block);
    }
  }

  if (Plan.hasAnyEffect()) {
    const ExprKey &E = G.expr();
    VarId Temp = F.makeFreshVar("pre.tmp." + std::to_string(EI));
    applyCodeMotion(F, G, Plan, Temp);
    if (Opts.Verify) {
      verifyOrThrow(F, std::string("after PRE of '") + E.toString(F) +
                           "' with " + strategyName(Opts.Strategy));
      std::vector<std::pair<ExprKey, VarId>> TempMap{{E, Temp}};
      std::string Error;
      if (!checkReloadsFullyAvailable(F, TempMap, Error))
        throw StatusException(ErrorCode::VerifyFailed,
                              "Definition-1 correctness violated by " +
                                  std::string(strategyName(Opts.Strategy)) +
                                  ": " + Error);
    }
  }

  if (Opts.Stats)
    Opts.Stats->addRecord(std::move(Rec));
}

/// The SSA legs over one function, in candidate order: each
/// candidate's FRG is built once, against the function as the code
/// motion of the earlier candidates left it, then placed and committed.
void runSsaStrategies(Function &F, const PreOptions &Opts) {
  assert(F.IsSSA && "SSA strategies require SSA form");
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  LoopInfo LI(C, DT);
  if (Opts.Strategy == PreStrategy::Lospre)
    gateLospreReducibility(C, DT);

  // The analyses every candidate's FRG shares: the CFG, dominator tree
  // and lexical data flow are unaffected by the per-expression rewrites
  // (reloads keep the destination, temps are fresh variables, no
  // statement changes block), so they are computed once up front.
  FrgContext Ctx(F, C, DT, collectCandidateExprs(F));
  const std::vector<ExprKey> &Exprs = Ctx.exprs();

  for (unsigned EI = 0; EI != Exprs.size(); ++EI) {
    Frg G(Ctx, EI);
    if (G.reals().empty())
      continue;
    CrashContext ExprFrame("expression", Exprs[EI].toString(F));
    ExprStatsRecord Rec =
        computePlacement(F, G, EI, Opts, Ctx.dataFlow(), LI);
    commitPlacement(F, G, EI, std::move(Rec), Opts);
  }
}

bool isSsaStrategy(PreStrategy S) {
  return S == PreStrategy::SsaPre || S == PreStrategy::SsaPreSpec ||
         S == PreStrategy::McSsaPre || S == PreStrategy::Lospre;
}

} // namespace

void specpre::runPre(Function &F, const PreOptions &Opts) {
  if (isSsaStrategy(Opts.Strategy)) {
    runSsaStrategies(F, Opts);
    return;
  }
  switch (Opts.Strategy) {
  case PreStrategy::McPre: {
    assert(Opts.Prof && "MC-PRE requires a profile");
    Profile EdgeProf = Opts.Prof->HasEdgeFreqs
                           ? *Opts.Prof
                           : Opts.Prof->withEstimatedEdgeFreqs(F);
    runMcPre(F, EdgeProf, Opts.Stats, Opts.Placement);
    if (Opts.Verify)
      verifyOrThrow(F, "after MC-PRE");
    return;
  }
  case PreStrategy::Lcm:
    runLcm(F, Opts.Stats);
    if (Opts.Verify)
      verifyOrThrow(F, "after LCM");
    return;
  default:
    return;
  }
}

Function specpre::compileWithPre(const Function &Prepared,
                                 const PreOptions &Opts,
                                 PipelineMetrics *Metrics) {
  assert(!Prepared.IsSSA && "compileWithPre expects prepared non-SSA input");
  // A fresh budget per call: each ladder rung gets the full budget, so a
  // cheap fallback is not starved by the attempt that preceded it.
  BudgetTracker Tracker(Opts.Budget);
  BudgetScope BScope(Opts.Budget.unlimited() ? nullptr : &Tracker);
  MetricsScope MScope(Metrics);
  Function F = Prepared;
  if (isSsaStrategy(Opts.Strategy))
    constructSsa(F);
  runPre(F, Opts);
  return F;
}

std::vector<PreStrategy> specpre::degradationLadder(PreStrategy Requested) {
  switch (Requested) {
  case PreStrategy::Lospre:
    // Leg D's bailouts (irreducible CFG, width bound) land on the exact
    // max-flow leg first: same optimum, just not linear time.
    return {PreStrategy::Lospre, PreStrategy::McSsaPre,
            PreStrategy::SsaPreSpec, PreStrategy::SsaPre, PreStrategy::None};
  case PreStrategy::McSsaPre:
    return {PreStrategy::McSsaPre, PreStrategy::SsaPreSpec,
            PreStrategy::SsaPre, PreStrategy::None};
  case PreStrategy::SsaPreSpec:
    return {PreStrategy::SsaPreSpec, PreStrategy::SsaPre, PreStrategy::None};
  case PreStrategy::SsaPre:
    return {PreStrategy::SsaPre, PreStrategy::None};
  case PreStrategy::McPre:
    return {PreStrategy::McPre, PreStrategy::None};
  case PreStrategy::Lcm:
    return {PreStrategy::Lcm, PreStrategy::None};
  case PreStrategy::None:
    return {PreStrategy::None};
  }
  SPECPRE_UNREACHABLE("bad strategy");
}

namespace {

/// The degradation-ladder walk itself, cache-oblivious; the public
/// compileWithFallback wraps it in the cache protocol.
Function compileWithFallbackUncached(const Function &Prepared,
                                     const PreOptions &Opts,
                                     CompileOutcomeRecord *OutcomeOut,
                                     PipelineMetrics *Metrics) {
  assert(!Prepared.IsSSA &&
         "compileWithFallback expects prepared non-SSA input");
  CrashContext FnFrame("function", Prepared.Name);
  // Injected pipeline faults count their hits per function compile, so
  // a function's outcome does not depend on what compiled before it.
  FaultHitScope FaultHits;

  CompileOutcomeRecord Outcome;
  Outcome.FunctionName = Prepared.Name;
  Outcome.Requested = strategyName(Opts.Strategy);
  // Only reached if every rung failed, which cannot happen: the None
  // rung runs no pass code and has no fault sites.
  Outcome.Used = strategyName(PreStrategy::None);
  Function Result = Prepared;

  for (PreStrategy Rung : degradationLadder(Opts.Strategy)) {
    CrashContext RungFrame("strategy", strategyName(Rung));
    PreOptions RungOpts = Opts;
    RungOpts.Strategy = Rung;
    // Isolate the rung's statistics so an abandoned rung leaves no
    // partial records behind.
    PreStats RungStats;
    RungOpts.Stats = Opts.Stats ? &RungStats : nullptr;

    Status Failure = Status::ok();
    try {
      Result = compileWithPre(Prepared, RungOpts, Metrics);
      Outcome.Used = strategyName(Rung);
      if (Opts.Stats)
        for (const ExprStatsRecord &R : RungStats.records())
          Opts.Stats->addRecord(R);
      break;
    } catch (const StatusException &E) {
      Failure = E.status();
    } catch (const std::exception &E) {
      // A non-Status exception (bad_alloc, logic_error) is contained
      // the same way; only signals and aborts remain fatal.
      Failure = Status::error(ErrorCode::WorkerFailed, E.what());
    }
    if (Outcome.Cause.empty()) {
      Outcome.Cause = errorCodeName(Failure.code());
      Outcome.Message = Failure.message();
    }
    ++Outcome.Retries;
  }

  if (Opts.Stats)
    Opts.Stats->addOutcome(Outcome);
  if (OutcomeOut)
    *OutcomeOut = Outcome;
  if (Metrics) {
    RobustnessCounters &R = Metrics->robustness();
    ++R.FunctionsCompiled;
    if (Outcome.degraded()) {
      ++R.FunctionsDegraded;
      R.LadderRetries += Outcome.Retries;
      ++R.WorkerFailures;
    }
  }
  return Result;
}

} // namespace

Function specpre::compileWithFallback(const Function &Prepared,
                                      const PreOptions &Opts,
                                      CompileOutcomeRecord *OutcomeOut,
                                      PipelineMetrics *Metrics) {
  bool Replayed = false;
  Function F = compileThroughCache(
      Prepared, Opts, OutcomeOut,
      [&](const Function &P, const PreOptions &O, CompileOutcomeRecord *Out) {
        return compileWithFallbackUncached(P, O, Out, Metrics);
      },
      &Replayed);
  // A replayed hit is a compiled function the ladder never saw; keep the
  // robustness counters identical to what the cold run reported (hits
  // replay only non-degraded compiles, so no other counter moves).
  if (Replayed && Metrics)
    ++Metrics->robustness().FunctionsCompiled;
  return F;
}
