//===- pre/EdgeTransform.cpp - Shared edge-insertion rewrite -----------------===//

#include "pre/EdgeTransform.h"

#include "analysis/Cfg.h"
#include "analysis/DataFlow.h"
#include "pre/LexicalDataFlow.h"
#include "support/Diagnostics.h"

#include <cassert>
#include <string>

using namespace specpre;

void specpre::applyEdgeInsertionsAndRewrite(
    Function &F, const ExprKey &E,
    const std::vector<std::pair<BlockId, BlockId>> &Inserts, VarId TempVar,
    Profile *ProfToUpdate) {
  // Phase 1: edge splitting with the inserted computation. The profile,
  // when given, follows along: split blocks inherit the edge frequency,
  // so networks built later for other expressions see real costs.
  for (auto [U, V] : Inserts) {
    BlockId Mid =
        F.addBlock("ins." + std::to_string(U) + "." + std::to_string(V));
    if (ProfToUpdate) {
      uint64_t EdgeF = ProfToUpdate->edgeFreq(U, V);
      ProfToUpdate->BlockFreq.resize(F.numBlocks(), 0);
      ProfToUpdate->BlockFreq[Mid] = EdgeF;
      ProfToUpdate->EdgeFreq.erase({U, V});
      ProfToUpdate->EdgeFreq[{U, Mid}] = EdgeF;
      ProfToUpdate->EdgeFreq[{Mid, V}] = EdgeF;
    }
    Operand L = E.L.IsConst ? Operand::makeConst(E.L.Const)
                            : Operand::makeVar(E.L.Var);
    Operand R = E.R.IsConst ? Operand::makeConst(E.R.Const)
                            : Operand::makeVar(E.R.Var);
    F.Blocks[Mid].Stmts.push_back(Stmt::makeCompute(TempVar, E.Op, L, R));
    F.Blocks[Mid].Stmts.push_back(Stmt::makeJump(V));
    Stmt &T = F.Blocks[U].terminator();
    if (T.Kind == StmtKind::Branch) {
      if (T.TrueTarget == V)
        T.TrueTarget = Mid;
      else
        T.FalseTarget = Mid;
    } else if (T.Kind == StmtKind::Jump) {
      assert(T.TrueTarget == V && "jump target mismatch");
      T.TrueTarget = Mid;
    } else {
      SPECPRE_UNREACHABLE("insertion edge out of a return block");
    }
  }

  // Phase 2: availability after the insertions.
  Cfg C(F);
  DataFlowResult Avail = solveLexicalAvailability(F, C, {E});

  // Phase 3: rewrite occurrences.
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    if (!C.isReachable(static_cast<BlockId>(B)))
      continue;
    BasicBlock &BB = F.Blocks[B];
    bool AvailHere = Avail.In[B].test(0);
    std::vector<Stmt> NewStmts;
    NewStmts.reserve(BB.Stmts.size());
    for (Stmt &S : BB.Stmts) {
      bool IsOcc = E.matches(S);
      VarId Dest = S.definesValue() ? S.Dest : InvalidVar;
      if (IsOcc && Dest == TempVar) {
        // The inserted computation itself (phase 1): keep, refreshes t.
        NewStmts.push_back(std::move(S));
        AvailHere = true;
        continue;
      }
      if (IsOcc && AvailHere) {
        // Fully redundant: delete the computation, reload from t.
        NewStmts.push_back(
            Stmt::makeCopy(S.Dest, Operand::makeVar(TempVar), 0));
      } else if (IsOcc) {
        // Keeps computing; save the value for downstream reuse.
        VarId D = S.Dest;
        NewStmts.push_back(std::move(S));
        NewStmts.push_back(Stmt::makeCopy(TempVar, Operand::makeVar(D), 0));
        AvailHere = true;
      } else {
        NewStmts.push_back(std::move(S));
      }
      if (Dest != InvalidVar && E.dependsOnVar(Dest))
        AvailHere = false;
    }
    BB.Stmts = std::move(NewStmts);
  }
}
