//===- pre/FrgRename.cpp - FRG Rename step (step 2) --------------------------===//
//
// Assigns redundancy classes (expression SSA versions) to all occurrences
// via a sparse preorder dominator-tree walk, following Kennedy et al.'s delayed
// renaming: a real occurrence belongs to the class on top of the
// expression stack exactly when its operand versions match the versions
// the top occurrence was seen with. MC-SSAPRE's modification (paper step
// 2): real occurrences are always pushed, and a real occurrence whose
// versions match a dominating *real* occurrence is marked rg_excluded.
//
// The walk visits only the blocks that can push onto a stack or read
// one: Φ blocks and their predecessors, real-occurrence blocks and the
// definition blocks of the two operand variables. Every other block
// would push nothing and fill no operand, so skipping it is exact.
// Besides the variable phis of Φ blocks (insert-blocked operands) it
// reads no statements: the context lists each operand's definitions per
// block in preorder, with the versions after the block's phis and at
// its exit.
//
//===----------------------------------------------------------------------===//

#include "pre/FrgInternal.h"

#include "support/Diagnostics.h"

#include <vector>

using namespace specpre;

namespace {

class Renamer {
public:
  explicit Renamer(Frg &G)
      : G(G), F(G.function()), C(G.cfg()), DT(G.domTree()) {
    const ExprKey &E = G.expr();
    LVar = E.L.IsConst ? InvalidVar : E.L.Var;
    RVar = E.R.IsConst ? InvalidVar : E.R.Var;
    // Operand version stacks; parameters carry version 1 at entry.
    for (VarId P : F.Params) {
      if (P == LVar)
        LStack.push_back(1);
      if (P == RVar)
        RStack.push_back(1);
    }
  }

  void run() {
    const FrgContext &X = G.context();
    std::vector<BlockId> Events;
    for (const PhiOcc &P : G.phis()) {
      Events.push_back(P.Block);
      for (const PhiOperand &Op : P.Operands)
        Events.push_back(Op.Pred);
    }
    for (const RealOcc &R : G.reals())
      Events.push_back(R.Block);
    X.sortInPreorder(Events);
    // Merge in the operand definitions, kept in preorder by the context.
    static const std::vector<VarDefSite> NoDefs;
    LDefs = LVar == InvalidVar ? &NoDefs : &X.varDefs(LVar);
    RDefs = RVar == InvalidVar ? &NoDefs : &X.varDefs(RVar);
    for (const std::vector<VarDefSite> *Defs : {LDefs, RDefs}) {
      std::vector<BlockId> Merged;
      Merged.reserve(Events.size() + Defs->size());
      auto It = Events.begin();
      for (const VarDefSite &D : *Defs) {
        while (It != Events.end() &&
               X.preorderPos(*It) < X.preorderPos(D.Block))
          Merged.push_back(*It++);
        if (It != Events.end() && *It == D.Block)
          ++It;
        Merged.push_back(D.Block);
      }
      Merged.insert(Merged.end(), It, Events.end());
      Events = std::move(Merged);
    }
    walkDomTreeBlocks(
        DT, Events, [this](BlockId B) { return enterBlock(B); },
        [this](Mark M) { exitBlock(M); });
  }

private:
  struct StackEntry {
    int Class = -1;
    OccRef Occ;
    int LVer = 0, RVer = 0;
  };

  static int top(const std::vector<int> &Stack) {
    // A constant operand's stack stays empty: versionless, always
    // "current".
    return Stack.empty() ? 0 : Stack.back();
  }
  int curL() const { return top(LStack); }
  int curR() const { return top(RStack); }

  int newClass(OccRef Def) { return G.allocateClass(Def); }

  /// ExprStack and operand-stack sizes at a block's entry.
  struct Mark {
    size_t Expr, L, R;
  };

  /// Steps 1-4 of the walk at B: pushes B's definitions and occurrences
  /// for its dominator subtree. Returns the mark exitBlock() pops back to.
  Mark enterBlock(BlockId B);
  /// Step 6: pops what was pushed since \p M.
  void exitBlock(Mark M);
  void handleReal(int RealIdx);
  void fillSuccessorOperands(BlockId B);

  Frg &G;
  const Function &F;
  const Cfg &C;
  const DomTree &DT;

  VarId LVar = InvalidVar, RVar = InvalidVar;
  /// The operands' definition blocks in walk order, and the next one.
  const std::vector<VarDefSite> *LDefs = nullptr, *RDefs = nullptr;
  size_t NextL = 0, NextR = 0;

  std::vector<int> LStack, RStack; ///< Operand versions along the path.
  std::vector<StackEntry> ExprStack;
};

void Renamer::handleReal(int RealIdx) {
  RealOcc &R = G.reals()[RealIdx];
  if (!ExprStack.empty()) {
    const StackEntry &Top = ExprStack.back();
    if (Top.LVer == R.LVer && Top.RVer == R.RVer) {
      // Same versions as the top occurrence: same value, same class.
      R.Class = Top.Class;
      R.Def = G.classDef(Top.Class);
      if (Top.Occ.isReal()) {
        // Dominated by a real occurrence computing the same versions:
        // fully redundant via a single real occurrence. MC-SSAPRE marks
        // it rg_excluded and does not push it (paper Section 3.1.3).
        R.RgExcluded = true;
        return;
      }
      // Defined by the Φ on top: push so later Φ operands see a real
      // use of this class and later reals become rg_excluded.
      ExprStack.push_back(
          StackEntry{R.Class, OccRef::real(RealIdx), R.LVer, R.RVer});
      return;
    }
  }
  // No matching top: this occurrence opens a new class (non-redundant
  // along the dominator path).
  R.Class = newClass(OccRef::real(RealIdx));
  R.Def = OccRef::none();
  ExprStack.push_back(
      StackEntry{R.Class, OccRef::real(RealIdx), R.LVer, R.RVer});
}

void Renamer::fillSuccessorOperands(BlockId B) {
  for (BlockId S : C.succs(B)) {
    int PhiIdx = G.phiAt(S);
    if (PhiIdx < 0)
      continue;
    PhiOcc &P = G.phis()[PhiIdx];

    // An expression operand variable may be redefined by a variable phi
    // at the join. In SSA fresh from construction each phi argument is a
    // version of the phi's own variable and the merge is transparent to
    // the lexical expression; but hand-written or copy-propagated SSA
    // can substitute a *different* variable (or a constant) along this
    // edge, in which case no insertion of the lexical expression at the
    // end of B can produce the merged value: the operand must be an
    // insert-blocked ⊥. The same holds when an operand variable is still
    // undefined at the end of B.
    bool Blocked = false;
    for (auto [V, Ver] : {std::pair{LVar, curL()}, std::pair{RVar, curR()}}) {
      if (V == InvalidVar)
        continue;
      if (Ver == 0)
        Blocked = true;
      for (const Stmt &St : F.Blocks[S].Stmts) {
        if (St.Kind != StmtKind::Phi)
          break;
        if (St.Dest != V)
          continue;
        const Operand &Arg = St.phiArgForPred(B);
        if (!Arg.isVar() || Arg.Var != V)
          Blocked = true;
      }
    }

    for (PhiOperand &Op : P.Operands) {
      if (Op.Pred != B)
        continue;
      Op.LVerAtPredEnd = curL();
      Op.RVerAtPredEnd = curR();
      if (Blocked) {
        Op.Class = -1;
        Op.InsertBlocked = true;
        continue;
      }
      if (ExprStack.empty()) {
        Op.Class = -1;
        continue;
      }
      const StackEntry &Top = ExprStack.back();
      if (Top.LVer == curL() && Top.RVer == curR()) {
        Op.Class = Top.Class;
        Op.Def = G.classDef(Top.Class);
        Op.HasRealUse = Top.Occ.isReal();
      } else {
        Op.Class = -1; // stale value: nothing current flows along here
      }
    }
  }
}

Renamer::Mark Renamer::enterBlock(BlockId B) {
  Mark M{ExprStack.size(), LStack.size(), RStack.size()};
  // The walk enters blocks in the order of its event list, which merged
  // the definition lists: B's definitions, if any, are the next ones.
  auto DefsHere = [B](const std::vector<VarDefSite> &Defs, size_t &Next) {
    return Next != Defs.size() && Defs[Next].Block == B ? &Defs[Next++]
                                                       : nullptr;
  };
  const VarDefSite *LDef = DefsHere(*LDefs, NextL);
  const VarDefSite *RDef = DefsHere(*RDefs, NextR);

  // 1. Variable phis at the block head update operand versions first.
  if (LDef && LDef->PhiVersion)
    LStack.push_back(LDef->PhiVersion);
  if (RDef && RDef->PhiVersion)
    RStack.push_back(RDef->PhiVersion);

  // 2. The expression Φ (conceptually after the variable phis).
  int PhiIdx = G.phiAt(B);
  if (PhiIdx >= 0) {
    PhiOcc &P = G.phis()[PhiIdx];
    P.LVerAtEntry = curL();
    P.RVerAtEntry = curR();
    P.Class = newClass(OccRef::phi(PhiIdx));
    ExprStack.push_back(
        StackEntry{P.Class, OccRef::phi(PhiIdx), P.LVerAtEntry,
                   P.RVerAtEntry});
  }

  // 3. Real occurrences, in statement order. They match by their own
  // operand versions, so the statements between them, operand kills
  // included, matter only through the versions at the block's exit.
  for (unsigned RI = G.firstRealIn(B);
       RI != G.reals().size() && G.reals()[RI].Block == B; ++RI)
    handleReal(static_cast<int>(RI));
  if (LDef)
    LStack.push_back(LDef->ExitVersion);
  if (RDef)
    RStack.push_back(RDef->ExitVersion);

  // 4. Assign Φ operands in CFG successors for the edges leaving B.
  fillSuccessorOperands(B);

  // 5. The walk then visits B's dominator-tree children.
  return M;
}

void Renamer::exitBlock(Mark M) {
  // 6. Restore the stacks.
  ExprStack.resize(M.Expr);
  LStack.resize(M.L);
  RStack.resize(M.R);
}

} // namespace

void specpre::detail::renameFrg(Frg &G) {
  Renamer R(G);
  R.run();
}
