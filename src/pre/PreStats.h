//===- pre/PreStats.h - PRE statistics collection --------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics accumulated across PRE runs: per-expression FRG/EFG sizes,
/// insertion/reload counts, and the EFG size histogram that reproduces
/// paper Figure 11 (including cumulative percentages).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_PRESTATS_H
#define SPECPRE_PRE_PRESTATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specpre {

/// One PRE'd expression's record.
struct ExprStatsRecord {
  std::string Expr;
  std::string FunctionName;
  /// Position of the record in the serial compilation order: the
  /// function's index in its corpus and the expression's index in the
  /// function's candidate list. merge() orders by this key, which is
  /// what makes per-worker shard accumulation deterministic.
  unsigned FuncIndex = 0;
  unsigned ExprIndex = 0;
  /// Reachable join blocks in the DF+ of step 1 (Frg::numPhiBlocks):
  /// the FRG's Φ count before the partial-anticipation prune, so the
  /// statistic and the cache payload do not depend on the prune.
  unsigned FrgPhis = 0;
  unsigned FrgReals = 0;
  bool EfgEmpty = true;
  unsigned EfgNodes = 0; ///< Including artificial source and sink.
  unsigned EfgEdges = 0;
  int64_t CutWeight = 0;
  unsigned NumInsertions = 0;
  unsigned NumReloads = 0;
  unsigned NumSaves = 0;
  unsigned NumTempPhis = 0;
  /// MC-PRE comparison: reduced-CFG flow-network size for the same
  /// expression (0 unless the ablation fills it in).
  unsigned McPreNodes = 0;
  unsigned McPreEdges = 0;

  // ---- Reconciliation numbers for the fuzzing oracles (see
  // workload/FuzzOracles.h). The frequencies are filled only when the
  // driver ran with a profile; the weights only by MC-SSAPRE, in units
  // of its cut objective (with CutObjective::speed(), frequencies).
  uint64_t ReloadedFreq = 0;    ///< Σ freq of reloaded real occurrences.
  uint64_t InsertedFreq = 0;    ///< Σ freq of live inserted computations.
  uint64_t SprReloadedFreq = 0; ///< Reloaded reals that were EFG (SPR) occs.
  int64_t SprWeight = 0;        ///< Σ type-2 (in-place) EFG edge weights.
  int64_t InsertedWeight = 0;   ///< Cut: type-1 (insertion) edge weights.
  int64_t InPlaceWeight = 0;    ///< Cut: type-2 (in-place) edge weights.
  bool Saturated = false;       ///< Some weight hit MaxFiniteCapacity.
  /// True when MC-SSAPRE ran the min-cut placement on this expression
  /// (it cannot fault). Faulting expressions take the safe-SSAPRE
  /// fallback, whose records carry no cut weights to reconcile.
  bool Speculated = false;

  // ---- Leg D (pre/Lospre.h) observations; zero for every other leg.
  unsigned LospreWidth = 0;     ///< EFG-core tree-decomposition width.
  uint64_t LospreDpEntries = 0; ///< DP table entries evaluated.

  bool operator==(const ExprStatsRecord &) const = default;
};

/// Per-function record of where the degradation ladder landed (see
/// compileWithFallback in pre/PreDriver.h). One record per compiled
/// function; a clean compile has Used == Requested, zero retries and an
/// empty Cause.
struct CompileOutcomeRecord {
  std::string FunctionName;
  unsigned FuncIndex = 0;
  std::string Requested; ///< strategyName of the requested strategy.
  std::string Used;      ///< strategyName of the rung that succeeded.
  unsigned Retries = 0;  ///< Rungs abandoned before the one that stuck.
  std::string Cause;     ///< errorCodeName of the first failure, or "".
  std::string Message;   ///< First failure's message, or "".

  bool degraded() const { return Retries != 0; }

  bool operator==(const CompileOutcomeRecord &) const = default;
};

/// Aggregate statistics over many functions/expressions.
class PreStats {
public:
  void addRecord(ExprStatsRecord R) { Records.push_back(std::move(R)); }

  const std::vector<ExprStatsRecord> &records() const { return Records; }

  void addOutcome(CompileOutcomeRecord R) {
    Outcomes.push_back(std::move(R));
  }

  const std::vector<CompileOutcomeRecord> &outcomes() const {
    return Outcomes;
  }

  /// Number of functions that landed below their requested strategy.
  unsigned numDegraded() const;

  /// Number of non-empty EFGs.
  unsigned numNonEmptyEfgs() const;

  /// Histogram of non-empty EFG sizes: size-in-nodes -> count.
  std::map<unsigned, unsigned> efgSizeHistogram() const;

  /// Fraction (0..100) of non-empty EFGs with at most \p MaxNodes nodes.
  double cumulativePercentAtOrBelow(unsigned MaxNodes) const;

  unsigned largestEfg() const;

  /// Stamps FuncIndex on every record. Corpus drivers (serial or
  /// parallel) call this on a per-function shard before merging, so the
  /// merged order is independent of which worker produced which shard.
  void stampFunctionIndex(unsigned FuncIndex);

  /// Appends \p Other's records and re-establishes the deterministic
  /// order: stable sort by (FuncIndex, ExprIndex). Shards produced by
  /// parallel workers therefore merge to the exact record sequence the
  /// serial pipeline emits, regardless of merge order. Records with
  /// all-default keys keep their insertion order (the sort is stable).
  /// Outcome records merge under the same discipline, keyed by FuncIndex.
  void merge(const PreStats &Other);

private:
  std::vector<ExprStatsRecord> Records;
  std::vector<CompileOutcomeRecord> Outcomes;
};

} // namespace specpre

#endif // SPECPRE_PRE_PRESTATS_H
