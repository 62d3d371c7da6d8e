//===- tests/ReferenceFrg.cpp - Unpruned reference FRG builder --------------===//

#include "ReferenceFrg.h"

#include <algorithm>
#include <vector>

using namespace specpre;

namespace {

/// Step 1 without the prune: a Φ at every reachable join block of the
/// DF+ of the seeds (the context's dominance frontier is the one the
/// original builder recomputed per candidate).
void insertPhis(Frg &G, const FrgContext &X) {
  const Function &F = G.function();
  const Cfg &C = G.cfg();

  std::vector<BlockId> OccBlocks;
  std::vector<BlockId> VarPhiBlocks;
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    bool HasOcc = false, HasVarPhi = false;
    for (const Stmt &S : F.Blocks[B].Stmts) {
      if (G.expr().matches(S))
        HasOcc = true;
      if (S.Kind == StmtKind::Phi && G.expr().dependsOnVar(S.Dest))
        HasVarPhi = true;
    }
    if (HasOcc)
      OccBlocks.push_back(static_cast<BlockId>(B));
    if (HasVarPhi)
      VarPhiBlocks.push_back(static_cast<BlockId>(B));
  }

  std::vector<BlockId> Seeds = OccBlocks;
  Seeds.insert(Seeds.end(), VarPhiBlocks.begin(), VarPhiBlocks.end());
  std::vector<BlockId> PhiBlocks = X.frontier().iterated(Seeds);
  PhiBlocks.insert(PhiBlocks.end(), VarPhiBlocks.begin(), VarPhiBlocks.end());
  std::sort(PhiBlocks.begin(), PhiBlocks.end());
  PhiBlocks.erase(std::unique(PhiBlocks.begin(), PhiBlocks.end()),
                  PhiBlocks.end());

  for (BlockId B : PhiBlocks) {
    if (!C.isReachable(B) || C.preds(B).size() < 2)
      continue;
    PhiOcc P;
    P.Block = B;
    for (BlockId Pred : C.preds(B)) {
      PhiOperand Op;
      Op.Pred = Pred;
      P.Operands.push_back(Op);
    }
    G.phis().push_back(std::move(P));
  }
}

void collectReals(Frg &G) {
  const Function &F = G.function();
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    if (!G.cfg().isReachable(static_cast<BlockId>(B)))
      continue;
    const BasicBlock &BB = F.Blocks[B];
    for (unsigned I = 0; I != BB.Stmts.size(); ++I) {
      const Stmt &S = BB.Stmts[I];
      if (!G.expr().matches(S))
        continue;
      RealOcc R;
      R.Block = static_cast<BlockId>(B);
      R.StmtIdx = I;
      R.LVer = S.Src0.isVar() ? S.Src0.Version : 0;
      R.RVer = S.Src1.isVar() ? S.Src1.Version : 0;
      G.reals().push_back(R);
    }
  }
}

/// Step 2 over the whole dominator tree.
class Renamer {
public:
  explicit Renamer(Frg &G)
      : G(G), F(G.function()), C(G.cfg()), DT(G.domTree()) {
    LIsConst = G.expr().L.IsConst;
    RIsConst = G.expr().R.IsConst;
    LVar = LIsConst ? InvalidVar : G.expr().L.Var;
    RVar = RIsConst ? InvalidVar : G.expr().R.Var;
    RealAt.assign(F.numBlocks(), {});
    for (unsigned I = 0; I != G.reals().size(); ++I)
      RealAt[G.reals()[I].Block].push_back(static_cast<int>(I));
    VarStacks.assign(F.numVars(), {});
    for (VarId P : F.Params)
      VarStacks[P].push_back(1);
  }

  void run() {
    walkDomTree(
        DT, [this](BlockId B) { return enterBlock(B); },
        [this](Mark M) { exitBlock(M); });
  }

private:
  struct StackEntry {
    int Class = -1;
    OccRef Occ;
    int LVer = 0, RVer = 0;
  };

  int curVer(VarId V) const {
    if (V == InvalidVar)
      return 0;
    return VarStacks[V].empty() ? 0 : VarStacks[V].back();
  }
  int curL() const { return curVer(LVar); }
  int curR() const { return curVer(RVar); }

  using Mark = std::pair<size_t, size_t>;

  Mark enterBlock(BlockId B);
  void exitBlock(Mark M);
  void handleReal(int RealIdx);
  void fillSuccessorOperands(BlockId B);

  Frg &G;
  const Function &F;
  const Cfg &C;
  const DomTree &DT;

  bool LIsConst = false, RIsConst = false;
  VarId LVar = InvalidVar, RVar = InvalidVar;

  std::vector<std::vector<int>> RealAt;
  std::vector<std::vector<int>> VarStacks;
  std::vector<StackEntry> ExprStack;
  std::vector<VarId> VarPushes;
};

void Renamer::handleReal(int RealIdx) {
  RealOcc &R = G.reals()[RealIdx];
  if (!ExprStack.empty()) {
    const StackEntry &Top = ExprStack.back();
    if (Top.LVer == R.LVer && Top.RVer == R.RVer) {
      R.Class = Top.Class;
      R.Def = G.classDef(Top.Class);
      if (Top.Occ.isReal()) {
        R.RgExcluded = true;
        return;
      }
      ExprStack.push_back(
          StackEntry{R.Class, OccRef::real(RealIdx), R.LVer, R.RVer});
      return;
    }
  }
  R.Class = G.allocateClass(OccRef::real(RealIdx));
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

    bool Blocked = false;
    for (VarId V : {LVar, RVar}) {
      if (V == InvalidVar)
        continue;
      if (curVer(V) == 0)
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
        Op.Class = -1;
      }
    }
  }
}

Renamer::Mark Renamer::enterBlock(BlockId B) {
  const BasicBlock &BB = F.Blocks[B];
  Mark M{ExprStack.size(), VarPushes.size()};

  auto PushVarDef = [&](VarId V, int Version) {
    if (V != LVar && V != RVar)
      return;
    VarStacks[V].push_back(Version);
    VarPushes.push_back(V);
  };

  unsigned I = 0;
  for (; I != BB.Stmts.size() && BB.Stmts[I].Kind == StmtKind::Phi; ++I)
    PushVarDef(BB.Stmts[I].Dest, BB.Stmts[I].DestVersion);

  int PhiIdx = G.phiAt(B);
  if (PhiIdx >= 0) {
    PhiOcc &P = G.phis()[PhiIdx];
    P.LVerAtEntry = curL();
    P.RVerAtEntry = curR();
    P.Class = G.allocateClass(OccRef::phi(PhiIdx));
    ExprStack.push_back(StackEntry{P.Class, OccRef::phi(PhiIdx),
                                   P.LVerAtEntry, P.RVerAtEntry});
  }

  unsigned NextReal = 0;
  const std::vector<int> &RealsHere = RealAt[B];
  for (; I != BB.Stmts.size(); ++I) {
    const Stmt &S = BB.Stmts[I];
    if (NextReal != RealsHere.size() &&
        G.reals()[RealsHere[NextReal]].StmtIdx == I) {
      handleReal(RealsHere[NextReal]);
      ++NextReal;
    }
    if (S.definesValue())
      PushVarDef(S.Dest, S.DestVersion);
  }

  fillSuccessorOperands(B);
  return M;
}

void Renamer::exitBlock(Mark M) {
  auto [ExprMark, VarMark] = M;
  ExprStack.resize(ExprMark);
  for (size_t I = VarMark; I != VarPushes.size(); ++I)
    VarStacks[VarPushes[I]].pop_back();
  VarPushes.resize(VarMark);
}

} // namespace

Frg specpre::buildReferenceFrg(const FrgContext &Ctx, unsigned ExprIdx) {
  Frg G = Frg::unbuilt(Ctx, ExprIdx);
  insertPhis(G, Ctx);
  collectReals(G);
  Renamer R(G);
  R.run();
  return G;
}
