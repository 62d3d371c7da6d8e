//===- pre/PreDriver.h - PRE pipeline orchestration ------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation pipeline tying everything together, mirroring the
/// paper's experimental setup (Section 5):
///
///   parse -> while-loop restructuring (Figure 1; "the compiler always
///   restructures while loops") -> critical-edge splitting -> profile
///   collection (training run) -> PRE under one of four strategies:
///
///     A. SsaPre     safe SSAPRE, no speculation, no profile
///     B. SsaPreSpec SSAPRE + conservative loop speculation (SSAPREsp)
///     C. McSsaPre   optimal speculative PRE via min-cut on the FRG
///     D. Lospre     the same optimum in linear time on reducible,
///                   bounded-treewidth CFGs (Krause), with a
///                   ResourceLimit bailout to MC-SSAPRE otherwise
///     -- McPre      the CFG-based baseline (Section 4 comparison)
///
/// The SSA strategies run on SSA form; MC-PRE runs on non-SSA form.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_PREDRIVER_H
#define SPECPRE_PRE_PREDRIVER_H

#include "ir/Ir.h"
#include "mincut/MinCut.h"
#include "pre/McSsaPre.h"
#include "pre/PreStats.h"
#include "profile/Profile.h"
#include "support/Budget.h"
#include "support/PassTimer.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace specpre {

class CompileCache;

enum class PreStrategy {
  None,       ///< No PRE at all (sanity baseline).
  SsaPre,     ///< Leg A: safe SSAPRE.
  SsaPreSpec, ///< Leg B: SSAPRE with loop-based speculation.
  McSsaPre,   ///< Leg C: the paper's contribution.
  McPre,      ///< The CFG-based min-cut baseline (Xue & Cai).
  Lcm,        ///< Classic lazy code motion (Knoop et al.): the safe
              ///< optimum, used as an oracle for leg A.
  Lospre,     ///< Leg D: leg C's optimum via treewidth DP (pre/Lospre.h);
              ///< bails out to MC-SSAPRE on irreducible or wide CFGs.
};

/// Display name ("MC-SSAPRE"), used in statistics and outcome records.
const char *strategyName(PreStrategy S);

/// The --strategy= and wire spelling ("mcssapre") of \p S.
const char *strategyFlagName(PreStrategy S);

/// Inverse of strategyFlagName; false on an unknown spelling.
bool parseStrategyFlag(const std::string &Name, PreStrategy &Out);

struct PreOptions {
  PreStrategy Strategy = PreStrategy::McSsaPre;
  /// Execution profile; required by McSsaPre (node frequencies) and
  /// McPre (edge frequencies; estimated from nodes if absent).
  const Profile *Prof = nullptr;
  /// Tie-breaking of minimum cuts; Latest is the paper's choice
  /// (lifetime optimality). Earliest exists for the ablation bench.
  CutPlacement Placement = CutPlacement::Latest;
  MaxFlowAlgorithm Algo = MaxFlowAlgorithm::Dinic;
  /// What the MC-SSAPRE cut minimizes: the paper optimizes speed;
  /// CutObjective::size() explores the Section-6 code-size direction.
  CutObjective Objective = CutObjective::speed();
  /// Run the IR verifier and the Definition-1 availability oracle on the
  /// transformed function (aborts on violation unless VerifyErrorOut is
  /// set).
  bool Verify = true;
  /// When non-null, a verification failure is described here and the run
  /// stops instead of raising an error. The fuzzer uses this so a
  /// failing case can be delta-reduced in-process. Only written on
  /// failure; callers pass an empty string and test for non-emptiness.
  /// When null, a verification failure throws StatusException
  /// (ErrorCode::VerifyFailed) instead, which compileWithFallback
  /// converts into a retry on the next ladder rung.
  std::string *VerifyErrorOut = nullptr;
  /// Statistics sink (may be null).
  PreStats *Stats = nullptr;
  /// Resource limits for one function's compilation (default: none).
  /// Exhaustion surfaces as StatusException(BudgetExhausted), which the
  /// degradation ladder turns into a retry on a cheaper strategy.
  CompileBudget Budget;
  /// When non-null, compileWithFallback additionally checks interpreter
  /// equivalence of the transformed function against the prepared input
  /// on each argument vector before accepting a rung's result. Argument
  /// vectors are padded/truncated to the function's arity.
  const std::vector<std::vector<int64_t>> *EquivalenceInputs = nullptr;
  /// Leg D's treewidth budget: computeLosprePlacement refuses, with a
  /// recoverable ResourceLimit, any EFG whose tree decomposition comes
  /// out wider than this (the DP is O(2^w · N), so the bound caps both
  /// time and table memory). Only consulted when Strategy == Lospre;
  /// part of the compilation cache key there.
  unsigned LospreMaxWidth = 8;
  /// Content-addressed compilation cache consulted by
  /// compileWithFallback; see pre/CachedCompile.h for the protocol and
  /// docs/CACHING.md for the design. Null (the default) compiles
  /// uncached.
  CompileCache *Cache = nullptr;
};

/// Normalizes a freshly parsed (non-SSA) function for compilation:
/// removes unreachable blocks, restructures while loops and splits
/// critical edges. Must run before profile collection so block ids match.
void prepareFunction(Function &F);

/// Runs the selected PRE strategy over a prepared function. For the SSA
/// strategies, \p F must already be in SSA form (see constructSsa); for
/// McPre it must not be. Mutates F in place.
///
/// This is the one PRE driver. The SSA legs take the candidate
/// expressions in order and build each one's FRG once, against the
/// function as the earlier candidates' code motion left it, then place
/// and commit it (paper Section 1). Step timings go to the thread's
/// MetricsScope sink.
void runPre(Function &F, const PreOptions &Opts);

/// Takes a *prepared, non-SSA* function, builds SSA if the strategy
/// requires it, and runs PRE under a fresh tracker for Opts.Budget.
/// Returns the optimized function, leaving the input untouched. Step
/// timings go to \p Metrics (installed as the MetricsScope for the
/// call; null suspends collection).
Function compileWithPre(const Function &Prepared, const PreOptions &Opts,
                        PipelineMetrics *Metrics = currentMetricsSink());

/// The retry sequence compileWithFallback walks when \p Requested fails,
/// most capable first, ending in PreStrategy::None (the identity rung,
/// which runs no pass code and therefore cannot fail):
///
///   LOSPRE    -> MC-SSAPRE -> SSAPREsp -> SSAPRE -> none
///   MC-SSAPRE -> SSAPREsp -> SSAPRE -> none
///   SSAPREsp  -> SSAPRE -> none        MC-PRE -> none
///   SSAPRE    -> none                  LCM    -> none
std::vector<PreStrategy> degradationLadder(PreStrategy Requested);

/// Interpreter equivalence of \p Optimized against \p Prepared on
/// Opts.EquivalenceInputs (ok when unset). Used by the ladder drivers to
/// gate acceptance of a rung's result.
Status checkObservableEquivalence(const Function &Prepared,
                                  const Function &Optimized,
                                  const PreOptions &Opts);

/// Fault-isolated compilation of one function: tries the requested
/// strategy under Opts.Budget, and on any recoverable failure (injected
/// fault, budget exhaustion, verification failure, recoverable internal
/// error) retries down the degradation ladder. Each rung restarts with a
/// fresh budget and is accepted only if the verifier (and, when
/// EquivalenceInputs is set, interpreter equivalence with the input)
/// passes. Never fails: the identity rung returns the input unchanged.
///
/// Any exception other than StatusException is contained as
/// ErrorCode::WorkerFailed on every rung; only signals stay fatal.
///
/// The outcome (rung used, retries, first failure) is written to
/// \p OutcomeOut when non-null and recorded in Opts.Stats when set.
/// Partial statistics of abandoned rungs are discarded, so with no
/// degradation the stats stream is identical to compileWithPre's.
/// Every rung runs through compileWithPre with \p Metrics, which also
/// receives the robustness counters. Goes through the compilation cache
/// when Opts.Cache is set (pre/CachedCompile.h).
Function compileWithFallback(const Function &Prepared, const PreOptions &Opts,
                             CompileOutcomeRecord *OutcomeOut = nullptr,
                             PipelineMetrics *Metrics = currentMetricsSink());

} // namespace specpre

#endif // SPECPRE_PRE_PREDRIVER_H
