//===- pre/LexicalDataFlow.h - Per-expression CFG data flow ----*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic bit-vector data-flow properties of the lexical candidate
/// expressions over the CFG: availability and (full/partial)
/// anticipability. Variable phis are transparent (they never change a
/// value along a path); only real assignments to an operand kill an
/// expression.
///
/// Used by:
///  * SSAPRE's DownSafety initialization (down_safe(Φ at B) == the
///    expression is fully anticipated at B),
///  * the MC-PRE baseline (its whole analysis is built from these),
///  * the post-transformation correctness check (full availability at
///    every original computation point, Definition 1 criterion 1).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_LEXICALDATAFLOW_H
#define SPECPRE_PRE_LEXICALDATAFLOW_H

#include "analysis/Cfg.h"
#include "analysis/DataFlow.h"
#include "ir/Ir.h"
#include "pre/ExprKey.h"

#include <vector>

namespace specpre {

/// Local (per-block) properties of each candidate expression.
struct LocalExprProps {
  /// COMP: computed in the block with no later redefinition of an operand
  /// (locally available at the block exit).
  std::vector<BitVector> CompAtExit;
  /// ANTLOC: computed in the block before any redefinition of an operand
  /// (locally anticipated at the block entry, variable phis excluded).
  std::vector<BitVector> AntLoc;
  /// TRANSP: no operand redefinition in the block (variable phis are
  /// transparent and do not count).
  std::vector<BitVector> Transp;
};

LocalExprProps computeLocalExprProps(const Function &F,
                                     const std::vector<ExprKey> &Exprs);

/// Global lexical data-flow solutions for all candidate expressions.
struct LexicalDataFlow {
  LocalExprProps Local;
  DataFlowResult Avail;   ///< Forward, intersect: full availability.
  DataFlowResult Ant;     ///< Backward, intersect: full anticipability.
  DataFlowResult PartAnt; ///< Backward, union: partial anticipability.

  bool availIn(BlockId B, unsigned E) const { return Avail.In[B].test(E); }
  bool availOut(BlockId B, unsigned E) const { return Avail.Out[B].test(E); }
  bool antIn(BlockId B, unsigned E) const { return Ant.In[B].test(E); }
  bool antOut(BlockId B, unsigned E) const { return Ant.Out[B].test(E); }
  bool partAntIn(BlockId B, unsigned E) const {
    return PartAnt.In[B].test(E);
  }
};

LexicalDataFlow solveLexicalDataFlow(const Function &F, const Cfg &C,
                                     const std::vector<ExprKey> &Exprs);

/// Full availability alone (LexicalDataFlow::Avail), for the callers
/// that read nothing else: the Definition-1 check and the edge-insertion
/// rewrite.
DataFlowResult solveLexicalAvailability(const Function &F, const Cfg &C,
                                        const std::vector<ExprKey> &Exprs);

/// Definition-1 correctness criterion, checked on the transformed
/// function: at every reload site (a Copy statement reading one of the
/// PRE temporaries in \p TempMap) the associated lexical expression must
/// be *fully available* — computed on every incoming path with no
/// subsequent operand redefinition. Deleted (reloaded) original
/// computation points satisfy Definition 1 exactly when this holds.
///
/// This is an independent oracle: it builds its own Cfg, reruns classic
/// bit-vector availability and never looks at FRG internals.
bool checkReloadsFullyAvailable(
    const Function &Transformed,
    const std::vector<std::pair<ExprKey, VarId>> &TempMap,
    std::string &Error);

} // namespace specpre

#endif // SPECPRE_PRE_LEXICALDATAFLOW_H
