//===- pre/Frg.h - Factored redundancy graph -------------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The factored redundancy graph (FRG): the SSA form of the hypothetical
/// temporary h carrying the candidate expression's value (Kennedy et al.,
/// TOPLAS 1999; paper Section 3.1.1). It is built by the first two steps
/// shared between SSAPRE and MC-SSAPRE, from per-function state
/// (FrgContext) computed once for all candidates:
///
///  1. Phi-Insertion — the Φ blocks are the reachable join blocks in the
///     iterated dominance frontier of the real occurrences and of the
///     blocks holding variable phis of the expression's operands. A Φ is
///     allocated only at those where the expression is partially
///     anticipated after the variable phis (pruned SSAPRE: the
///     pruned-SSA idea applied to h). The others can never reach a real
///     occurrence, so they could neither match one in Rename nor feed a
///     kept Φ, and every placement would leave them without effect
///     (docs/ALGORITHM.md, "Pruned Φ-insertion"). Candidates whose
///     operands' SSA versions do not behave like the lexical variable
///     (foreign phis, overlapping versions: copy-propagated SSA) are not
///     pruned.
///  2. Rename        — occurrences are assigned redundancy classes via a
///     preorder walk of the dominator tree restricted to the blocks that
///     can change the walk's state (kept Φs and their predecessors, real
///     occurrences, definitions of the operand variables); MC-SSAPRE
///     additionally marks real occurrences dominated by same-version real
///     occurrences as rg_excluded (paper Section 3.1.3).
///
/// Everything downstream (DownSafety/WillBeAvail for SSAPRE; data flow,
/// graph reduction, EFG and min-cut for MC-SSAPRE; the shared Finalize
/// and CodeMotion) consumes this structure.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_FRG_H
#define SPECPRE_PRE_FRG_H

#include "analysis/Cfg.h"
#include "analysis/DomTree.h"
#include "analysis/DominanceFrontier.h"
#include "ir/Ir.h"
#include "pre/ExprKey.h"
#include "pre/LexicalDataFlow.h"

#include <memory>
#include <string>
#include <vector>

namespace specpre {

/// Reference to an occurrence node in the FRG.
struct OccRef {
  enum class Kind : uint8_t { None, Real, Phi };
  Kind K = Kind::None;
  int Index = -1;

  static OccRef none() { return OccRef{}; }
  static OccRef real(int I) { return OccRef{Kind::Real, I}; }
  static OccRef phi(int I) { return OccRef{Kind::Phi, I}; }

  bool isNone() const { return K == Kind::None; }
  bool isReal() const { return K == Kind::Real; }
  bool isPhi() const { return K == Kind::Phi; }

  bool operator==(const OccRef &) const = default;
};

/// A real occurrence: a Compute statement of the candidate expression.
struct RealOcc {
  BlockId Block = InvalidBlock;
  unsigned StmtIdx = 0;

  int LVer = 0, RVer = 0; ///< SSA versions of the var operands (0 = const).

  int Class = -1;   ///< Redundancy class.
  OccRef Def;       ///< Class-defining occurrence; self when none() is set
                    ///< ... i.e. none() means this occurrence opened the
                    ///< class (it is non-redundant).
  bool RgExcluded = false; ///< MC-SSAPRE: dominated by a same-version real.

  // ---- Finalize outputs ----
  bool Reload = false;   ///< Replaced by a use of the PRE temporary.
  bool Save = false;     ///< Computed value saved into the temporary.
  int TempDefIndex = -1; ///< Reload: index into FinalizePlan::TempDefs.
};

/// One operand of an expression Φ, keyed by predecessor block.
struct PhiOperand {
  BlockId Pred = InvalidBlock;
  int Class = -1;           ///< -1 encodes ⊥ (bottom).
  OccRef Def;               ///< Class-defining occurrence (when not ⊥).
  bool HasRealUse = false;  ///< Version carried here crossed a real occ.

  /// Versions of the expression's variable operands at the end of Pred —
  /// the versions an insertion at this operand would compute with.
  int LVerAtPredEnd = 0, RVerAtPredEnd = 0;

  /// ⊥ operand at which insertion is impossible: an expression operand
  /// is undefined at the end of Pred, or the join's variable phi
  /// substitutes a different variable (or a constant) along this edge,
  /// so no lexical insertion can produce the merged value. Such operands
  /// appear in the flow network with infinite weight.
  bool InsertBlocked = false;

  bool Insert = false; ///< Final decision: insert at the end of Pred.

  bool isBottom() const { return Class < 0; }
};

/// An expression Φ: a merge point of the hypothetical temporary h.
struct PhiOcc {
  BlockId Block = InvalidBlock;
  int Class = -1;
  std::vector<PhiOperand> Operands; ///< Aligned with Cfg preds of Block.

  /// Versions of the variable operands current at the Φ (block entry,
  /// after variable phis) — used by Rename to match real occurrences.
  int LVerAtEntry = 0, RVerAtEntry = 0;

  // ---- SSAPRE attributes (safe placement; Kennedy et al.) ----
  bool DownSafe = false;
  bool SpeculativeDownSafe = false; ///< SSAPREsp loop speculation.
  bool CanBeAvail = true;
  bool Later = true;

  // ---- MC-SSAPRE attributes (paper steps 3-4) ----
  bool FullyAvail = true;
  bool PartAnt = false;
  bool InReducedGraph = false;

  // ---- Shared result (paper step 8 / SSAPRE WillBeAvail) ----
  bool WillBeAvail = false;
};

/// The definitions of one variable in one block, as Rename needs them.
struct VarDefSite {
  BlockId Block = InvalidBlock;
  int PhiVersion = 0;  ///< Version a phi of the variable defines here, or 0.
  int ExitVersion = 0; ///< Version current at the block's exit.
};

/// Per-function state shared by the FRGs of all candidates of one
/// function: one dominance frontier, the lexical data flow of every
/// candidate and an occurrence index, all from one pass over the
/// statements. The FRG of each candidate is built against the function
/// as the code motion of the earlier candidates left it. That is sound
/// because code motion never moves a statement to another block and
/// only adds definitions of fresh temporaries: the CFG, the block lists
/// below and the lexical data flow stay valid, while statement indices
/// shift and are re-read from the indexed blocks at every build.
class FrgContext {
public:
  /// \p F must be in SSA form with critical edges split; \p C and \p DT
  /// must be current for F. \p Exprs are the candidates, distinct keys
  /// (usually collectCandidateExprs(F)).
  FrgContext(const Function &F, const Cfg &C, const DomTree &DT,
             std::vector<ExprKey> Exprs);

  const Function &function() const { return F; }
  const Cfg &cfg() const { return C; }
  const DomTree &domTree() const { return DT; }
  const DominanceFrontier &frontier() const { return DF; }
  const std::vector<ExprKey> &exprs() const { return Exprs; }
  /// Lexical data flow of exprs(), indexed like exprs().
  const LexicalDataFlow &dataFlow() const { return LDF; }

  /// Blocks holding a real occurrence of candidate \p EI (ascending).
  const std::vector<BlockId> &occurrenceBlocks(unsigned EI) const {
    return OccBlocks[EI];
  }
  /// Blocks holding a variable phi of \p V (ascending). Only for
  /// operands of exprs(), like the two queries below.
  const std::vector<BlockId> &varPhiBlocks(VarId V) const;
  /// The reachable blocks defining \p V, in dominator-tree preorder.
  const std::vector<VarDefSite> &varDefs(VarId V) const;
  /// True if the SSA versions of \p V behave like the lexical variable:
  /// every phi of V merges versions of V, and no version of V is live
  /// where another one is live or defined. SSA construction guarantees
  /// it; copy propagation and value numbering can break it.
  bool lexicalVersions(VarId V) const;

  /// Position of reachable block \p B in DT.preorder().
  unsigned preorderPos(BlockId B) const { return PreorderPos[B]; }

  /// Sorts \p Blocks into dominator-tree preorder, dropping duplicates
  /// and blocks without dominance information (unreachable ones): the
  /// block list of a sparse walkDomTreeBlocks.
  void sortInPreorder(std::vector<BlockId> &Blocks) const;

private:
  const Function &F;
  const Cfg &C;
  const DomTree &DT;
  std::vector<ExprKey> Exprs;
  DominanceFrontier DF;
  LexicalDataFlow LDF;
  std::vector<unsigned> PreorderPos;
  std::vector<std::vector<BlockId>> OccBlocks;
  std::vector<std::vector<BlockId>> PhiBlocksOf;
  std::vector<std::vector<VarDefSite>> DefsOf;
  std::vector<bool> NonLexical;
};

/// The FRG for one candidate expression in one function.
class Frg {
public:
  /// Builds the FRG (steps 1 and 2) of candidate \p ExprIdx of \p Ctx.
  Frg(const FrgContext &Ctx, unsigned ExprIdx);

  /// Builds the FRG of \p E through a one-candidate FrgContext of its
  /// own (for tests and tools that look at a single expression). \p F
  /// must be in SSA form with critical edges split; \p C and \p DT must
  /// be current for F.
  Frg(const Function &F, const Cfg &C, const DomTree &DT, const ExprKey &E);

  /// An FRG of candidate \p ExprIdx of \p Ctx with no occurrences and no
  /// classes yet: the start of a builder other than steps 1-2 (the
  /// unpruned reference builder of the tests), which fills phis() sorted
  /// by block and reals() sorted by (block, statement), and allocates
  /// the classes.
  static Frg unbuilt(const FrgContext &Ctx, unsigned ExprIdx) {
    return Frg(Ctx, ExprIdx, Unbuilt{});
  }

  const ExprKey &expr() const { return E; }
  const Function &function() const { return F; }
  const Cfg &cfg() const { return C; }
  const DomTree &domTree() const { return DT; }
  const FrgContext &context() const { return Ctx; }

  std::vector<RealOcc> &reals() { return Reals; }
  const std::vector<RealOcc> &reals() const { return Reals; }
  std::vector<PhiOcc> &phis() { return Phis; }
  const std::vector<PhiOcc> &phis() const { return Phis; }

  /// Index into phis() of the Φ at block \p B, or -1.
  int phiAt(BlockId B) const;

  /// Index of the first real occurrence in block \p B; reals() is sorted
  /// by (block, statement), so B's are those from here on whose Block
  /// is B.
  unsigned firstRealIn(BlockId B) const;

  /// Reachable join blocks in the DF+ of step 1: the Φ count before the
  /// partial-anticipation prune, which the statistics and the
  /// graph-node budget report.
  unsigned numPhiBlocks() const { return NumPhiBlocks; }

  int numClasses() const { return NumClasses; }

  /// Class-defining occurrence of \p Class (a Φ, or a real occurrence
  /// that opened the class).
  OccRef classDef(int Class) const { return ClassDefs[Class]; }

  /// Allocates a fresh redundancy class defined by \p Def. Only the
  /// construction steps (Rename) call this.
  int allocateClass(OccRef Def) {
    ClassDefs.push_back(Def);
    return NumClasses++;
  }

  /// Returns phis()[Ref.Index] for a Phi ref (asserts otherwise).
  const PhiOcc &phiOf(OccRef Ref) const;
  PhiOcc &phiOf(OccRef Ref);

  /// Debug rendering of the whole graph.
  std::string dump() const;

private:
  friend class FrgBuilder;

  struct Unbuilt {};
  Frg(const FrgContext &Ctx, unsigned ExprIdx, Unbuilt);

  std::unique_ptr<FrgContext> OwnCtx; ///< The one-candidate constructor's.
  const FrgContext &Ctx;
  const Function &F;
  const Cfg &C;
  const DomTree &DT;
  ExprKey E;

  std::vector<RealOcc> Reals;
  std::vector<PhiOcc> Phis; ///< Sorted by block.
  std::vector<OccRef> ClassDefs;
  int NumClasses = 0;
  unsigned NumPhiBlocks = 0;
};

} // namespace specpre

#endif // SPECPRE_PRE_FRG_H
