//===- pre/LexicalDataFlow.cpp - Per-expression CFG data flow ----------------===//

#include "pre/LexicalDataFlow.h"

#include "ir/Printer.h"

using namespace specpre;

LocalExprProps specpre::computeLocalExprProps(
    const Function &F, const std::vector<ExprKey> &Exprs) {
  unsigned NE = static_cast<unsigned>(Exprs.size());
  unsigned NB = F.numBlocks();
  LocalExprProps P;
  P.CompAtExit.assign(NB, BitVector(NE, false));
  P.AntLoc.assign(NB, BitVector(NE, false));
  P.Transp.assign(NB, BitVector(NE, true));

  // One hash probe per statement finds the candidate it computes; equal
  // keys (the list need not be deduplicated) chain through SameKey. Per
  // variable, the candidates its redefinition kills.
  ExprKeyIndex Index;
  std::vector<int> SameKey(NE, -1);
  std::vector<int> LastOfKey(NE, -1);
  std::vector<std::vector<unsigned>> Dependents(F.numVars());
  for (unsigned E = 0; E != NE; ++E) {
    if (!Index.insert(Exprs[E], E)) {
      unsigned First = static_cast<unsigned>(Index.find(Exprs[E]));
      SameKey[LastOfKey[First]] = static_cast<int>(E);
      LastOfKey[First] = static_cast<int>(E);
    } else {
      LastOfKey[E] = static_cast<int>(E);
    }
    for (const OperandKey *K : {&Exprs[E].L, &Exprs[E].R}) {
      if (K->IsConst)
        continue;
      if (static_cast<unsigned>(K->Var) >= Dependents.size())
        Dependents.resize(K->Var + 1);
      std::vector<unsigned> &D = Dependents[K->Var];
      if (D.empty() || D.back() != E)
        D.push_back(E);
    }
  }

  // Per expression: the block in which an operand was last (re)defined,
  // so "killed so far in B" (for AntLoc) is KilledIn[E] == B.
  std::vector<unsigned> KilledIn(NE, NB);
  for (unsigned B = 0; B != NB; ++B) {
    const BasicBlock &BB = F.Blocks[B];
    auto Kill = [&](VarId V) {
      for (unsigned E : Dependents[V]) {
        KilledIn[E] = B;
        P.Transp[B].reset(E);
        P.CompAtExit[B].reset(E); // any earlier computation is stale
      }
    };
    // The latest computation survives to the exit unless an operand is
    // redefined after it. Variable phis at the head are transparent
    // merges, not kills.
    for (const Stmt &S : BB.Stmts) {
      if (S.Kind == StmtKind::Phi) {
        // A variable phi whose arguments are all versions of its own
        // variable merges the same lexical value and is transparent. A
        // phi substituting a different variable or a constant along some
        // edge (hand-written or copy-propagated SSA) changes the
        // expression's value: treat it as a kill.
        bool Foreign = false;
        for (const PhiArg &A : S.PhiArgs)
          Foreign |= !A.Val.isVar() || A.Val.Var != S.Dest;
        if (Foreign)
          Kill(S.Dest);
        continue;
      }
      for (int E = Index.find(S); E >= 0; E = SameKey[E]) {
        if (KilledIn[E] != B)
          P.AntLoc[B].set(static_cast<unsigned>(E));
        P.CompAtExit[B].set(static_cast<unsigned>(E));
      }
      if (S.definesValue())
        Kill(S.Dest);
    }
  }
  return P;
}

namespace {

/// KILL = !TRANSP, the kill sets of every lexical problem.
std::vector<BitVector> notTransparent(const LocalExprProps &Local,
                                      unsigned NE) {
  std::vector<BitVector> Kill(Local.Transp.size(), BitVector(NE, true));
  for (unsigned B = 0; B != Kill.size(); ++B)
    Kill[B].subtract(Local.Transp[B]);
  return Kill;
}

/// Availability: forward, intersect. GEN = CompAtExit, KILL = !Transp.
DataFlowResult solveAvailability(const Cfg &C, const LocalExprProps &Local,
                                 unsigned NE) {
  DataFlowProblem P;
  P.Dir = DataFlowProblem::Direction::Forward;
  P.MeetOp = DataFlowProblem::Meet::Intersect;
  P.NumBits = NE;
  P.Boundary = BitVector(NE, false);
  P.Gen = Local.CompAtExit;
  P.Kill = notTransparent(Local, NE);
  return solveDataFlow(C, P);
}

} // namespace

DataFlowResult specpre::solveLexicalAvailability(
    const Function &F, const Cfg &C, const std::vector<ExprKey> &Exprs) {
  unsigned NE = static_cast<unsigned>(Exprs.size());
  return solveAvailability(C, computeLocalExprProps(F, Exprs), NE);
}

LexicalDataFlow specpre::solveLexicalDataFlow(
    const Function &F, const Cfg &C, const std::vector<ExprKey> &Exprs) {
  LexicalDataFlow LDF;
  LDF.Local = computeLocalExprProps(F, Exprs);
  unsigned NE = static_cast<unsigned>(Exprs.size());
  LDF.Avail = solveAvailability(C, LDF.Local, NE);

  // Anticipability: backward. GEN = AntLoc, KILL = !Transp.
  DataFlowProblem P;
  P.Dir = DataFlowProblem::Direction::Backward;
  P.NumBits = NE;
  P.Boundary = BitVector(NE, false);
  P.Gen = LDF.Local.AntLoc;
  P.Kill = notTransparent(LDF.Local, NE);
  P.MeetOp = DataFlowProblem::Meet::Intersect;
  LDF.Ant = solveDataFlow(C, P);
  P.MeetOp = DataFlowProblem::Meet::Union;
  LDF.PartAnt = solveDataFlow(C, P);
  return LDF;
}

bool specpre::checkReloadsFullyAvailable(
    const Function &Transformed,
    const std::vector<std::pair<ExprKey, VarId>> &TempMap,
    std::string &Error) {
  std::vector<ExprKey> Exprs;
  for (const auto &[Key, Temp] : TempMap)
    Exprs.push_back(Key);
  Cfg C(Transformed);
  DataFlowResult Global = solveLexicalAvailability(Transformed, C, Exprs);

  for (unsigned B = 0; B != Transformed.numBlocks(); ++B) {
    if (!C.isReachable(static_cast<BlockId>(B)))
      continue;
    const BasicBlock &BB = Transformed.Blocks[B];
    // Walk the block tracking intra-block availability per expression.
    BitVector Avail = Global.In[B];
    for (const Stmt &S : BB.Stmts) {
      if (S.Kind == StmtKind::Phi)
        continue;
      if (S.Kind == StmtKind::Copy && S.Src0.isVar()) {
        for (unsigned E = 0; E != Exprs.size(); ++E) {
          if (TempMap[E].second != S.Src0.Var)
            continue;
          if (!Avail.test(E)) {
            Error = "expression '" + Exprs[E].toString(Transformed) +
                    "' not fully available at reload in block '" + BB.Label +
                    "': " + printStmt(Transformed, S);
            return false;
          }
        }
      }
      for (unsigned E = 0; E != Exprs.size(); ++E)
        if (Exprs[E].matches(S))
          Avail.set(E);
      if (S.definesValue()) {
        for (unsigned E = 0; E != Exprs.size(); ++E)
          if (Exprs[E].dependsOnVar(S.Dest))
            Avail.reset(E);
      }
    }
  }
  return true;
}
