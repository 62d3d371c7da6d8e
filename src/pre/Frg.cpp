//===- pre/Frg.cpp - Factored redundancy graph: Phi-Insertion ---------------===//

#include "pre/Frg.h"

#include "pre/FrgInternal.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/PassTimer.h"

#include <algorithm>
#include <sstream>

using namespace specpre;

const PhiOcc &Frg::phiOf(OccRef Ref) const {
  assert(Ref.isPhi() && "not a phi occurrence");
  return Phis[Ref.Index];
}

PhiOcc &Frg::phiOf(OccRef Ref) {
  assert(Ref.isPhi() && "not a phi occurrence");
  return Phis[Ref.Index];
}

namespace {

/// Calls \p Fn(Operand) for every operand a non-phi statement reads.
template <typename FnT> void forEachNonPhiUse(const Stmt &S, FnT &&Fn) {
  switch (S.Kind) {
  case StmtKind::Compute:
    Fn(S.Src1);
    [[fallthrough]];
  case StmtKind::Copy:
  case StmtKind::Branch:
  case StmtKind::Ret:
  case StmtKind::Print:
    Fn(S.Src0);
    break;
  default:
    break;
  }
}

/// Finds the variables among \p Tracked whose SSA versions do not behave
/// like one lexical variable: a phi of V has an argument that is not a
/// version of V (a foreign phi), or two versions of V are live at one
/// point, or a version of V is live where another one is defined. SSA
/// construction produces neither; copy propagation and value numbering
/// can. Pruned Φ-insertion is exact only for candidates whose operands
/// are free of both (docs/ALGORITHM.md, "Pruned Φ-insertion").
///
/// Liveness is explored backwards from each use up to its definition,
/// one variable at a time, with at most one live version per block
/// boundary: the cost is the size of the tracked variables' live ranges.
std::vector<bool> findNonLexicalVars(const Function &F, const Cfg &C,
                                     const std::vector<bool> &Tracked) {
  unsigned NV = F.numVars(), NB = F.numBlocks();
  std::vector<bool> Bad(NV, false);
  /// A definition or use of one version. Idx is the statement index; a
  /// parameter is defined at -1 in the entry block, and a phi argument
  /// is used at the end (Stmts.size()) of its predecessor.
  struct Site {
    BlockId B;
    int Idx;
    int Ver;
  };
  std::vector<std::vector<Site>> Defs(NV), Uses(NV);
  std::vector<std::vector<BlockId>> Touched(NV);
  auto Touch = [&](VarId V, BlockId B) {
    if (Touched[V].empty() || Touched[V].back() != B)
      Touched[V].push_back(B);
  };
  for (VarId P : F.Params)
    if (Tracked[P]) {
      Defs[P].push_back(Site{0, -1, 1});
      Touch(P, 0);
    }
  for (unsigned BI = 0; BI != NB; ++BI) {
    BlockId B = static_cast<BlockId>(BI);
    const std::vector<Stmt> &Stmts = F.Blocks[B].Stmts;
    for (unsigned I = 0; I != Stmts.size(); ++I) {
      const Stmt &S = Stmts[I];
      int Idx = static_cast<int>(I);
      if (S.Kind == StmtKind::Phi) {
        for (const PhiArg &A : S.PhiArgs) {
          if (Tracked[S.Dest] && (!A.Val.isVar() || A.Val.Var != S.Dest))
            Bad[S.Dest] = true;
          if (A.Val.isVar() && Tracked[A.Val.Var])
            Uses[A.Val.Var].push_back(Site{
                A.Pred, static_cast<int>(F.Blocks[A.Pred].Stmts.size()),
                A.Val.Version});
        }
      } else {
        forEachNonPhiUse(S, [&](const Operand &O) {
          if (O.isVar() && Tracked[O.Var]) {
            Uses[O.Var].push_back(Site{B, Idx, O.Version});
            Touch(O.Var, B);
          }
        });
      }
      if (S.definesValue() && Tracked[S.Dest]) {
        Defs[S.Dest].push_back(Site{B, Idx, S.DestVersion});
        Touch(S.Dest, B);
      }
    }
  }

  // Per block: the one version of the current variable live at entry
  // and at exit (-1: none), reset through Marked.
  std::vector<int> LiveIn(NB, -1), LiveOut(NB, -1);
  std::vector<BlockId> Marked, Work;
  for (unsigned VI = 0; VI != NV; ++VI) {
    if (!Tracked[VI] || Bad[VI])
      continue;
    VarId V = static_cast<VarId>(VI);
    std::vector<Site> &D = Defs[V];
    std::sort(D.begin(), D.end(),
              [](const Site &A, const Site &B) { return A.Ver < B.Ver; });
    auto DefOf = [&](int Ver) -> const Site * {
      auto It = std::lower_bound(
          D.begin(), D.end(), Ver,
          [](const Site &S, int W) { return S.Ver < W; });
      return It != D.end() && It->Ver == Ver ? &*It : nullptr;
    };
    bool Ok = std::adjacent_find(D.begin(), D.end(),
                                 [](const Site &A, const Site &B) {
                                   return A.Ver == B.Ver;
                                 }) == D.end();
    auto Mark = [&](std::vector<int> &Live, BlockId B, int Ver) {
      if (Live[B] == Ver)
        return false;
      if (Live[B] >= 0)
        Ok = false; // two versions live at one block boundary
      Live[B] = Ver;
      Marked.push_back(B);
      return true;
    };
    // Live-in at B for Ver, then backwards through the predecessors up
    // to the definition.
    auto Explore = [&](BlockId From, int Ver) {
      const Site *Def = DefOf(Ver);
      if (!Mark(LiveIn, From, Ver))
        return;
      Work.push_back(From);
      while (Ok && !Work.empty()) {
        BlockId B = Work.back();
        Work.pop_back();
        for (BlockId P : C.preds(B)) {
          Mark(LiveOut, P, Ver);
          if ((!Def || Def->B != P) && Mark(LiveIn, P, Ver))
            Work.push_back(P);
        }
      }
    };
    for (const Site &U : Uses[V]) {
      if (!Ok)
        break;
      bool AtEnd =
          U.Idx == static_cast<int>(F.Blocks[U.B].Stmts.size());
      if (AtEnd)
        Mark(LiveOut, U.B, U.Ver);
      const Site *Def = DefOf(U.Ver);
      if (Def && Def->B == U.B && Def->Idx < U.Idx)
        continue; // live only within the block
      Explore(U.B, U.Ver);
    }
    // Within the blocks that define or read V, walk backwards from the
    // live-out version: no definition may fall where another version
    // is live, and no read may meet another live version.
    for (BlockId B : Touched[V]) {
      if (!Ok)
        break;
      const std::vector<Stmt> &Stmts = F.Blocks[B].Stmts;
      int Cur = LiveOut[B];
      auto Def = [&](int Ver) {
        if (Cur >= 0 && Cur != Ver)
          Ok = false;
        Cur = -1;
      };
      for (size_t I = Stmts.size(); I-- != 0;) {
        const Stmt &S = Stmts[I];
        if (S.definesValue() && S.Dest == V)
          Def(S.DestVersion);
        if (S.Kind == StmtKind::Phi)
          continue; // its arguments are read at the predecessors' ends
        forEachNonPhiUse(S, [&](const Operand &O) {
          if (!O.isVar() || O.Var != V)
            return;
          if (Cur >= 0 && Cur != O.Version)
            Ok = false;
          Cur = O.Version;
        });
      }
      if (B == 0 && std::find(F.Params.begin(), F.Params.end(), V) !=
                        F.Params.end())
        Def(1);
      Ok &= Cur == LiveIn[B];
    }
    Bad[V] = !Ok;
    for (BlockId B : Marked)
      LiveIn[B] = LiveOut[B] = -1;
    Marked.clear();
    Work.clear();
  }
  return Bad;
}

} // namespace

FrgContext::FrgContext(const Function &F, const Cfg &C, const DomTree &DT,
                       std::vector<ExprKey> ExprList)
    : F(F), C(C), DT(DT), Exprs(std::move(ExprList)), DF(C, DT),
      LDF(solveLexicalDataFlow(F, C, this->Exprs)) {
  assert(F.IsSSA && "FRG construction requires SSA form");
  PreorderPos.assign(F.numBlocks(), ~0u);
  for (unsigned I = 0; I != DT.preorder().size(); ++I)
    PreorderPos[DT.preorder()[I]] = I;

  // The occurrence index, from one pass over the statements.
  ExprKeyIndex Index;
  std::vector<bool> IsOperand(F.numVars(), false);
  for (unsigned EI = 0; EI != Exprs.size(); ++EI) {
    Index.insert(Exprs[EI], EI);
    for (const OperandKey *K : {&Exprs[EI].L, &Exprs[EI].R})
      if (!K->IsConst)
        IsOperand[K->Var] = true;
  }
  OccBlocks.assign(Exprs.size(), {});
  PhiBlocksOf.assign(F.numVars(), {});
  DefsOf.assign(F.numVars(), {});
  for (unsigned BI = 0; BI != F.numBlocks(); ++BI) {
    BlockId B = static_cast<BlockId>(BI);
    for (const Stmt &S : F.Blocks[B].Stmts) {
      int EI = Index.find(S);
      if (EI >= 0 && (OccBlocks[EI].empty() || OccBlocks[EI].back() != B))
        OccBlocks[EI].push_back(B);
      if (!S.definesValue() || !IsOperand[S.Dest])
        continue;
      std::vector<VarDefSite> &Defs = DefsOf[S.Dest];
      if (Defs.empty() || Defs.back().Block != B)
        Defs.push_back(VarDefSite{B, 0, 0});
      Defs.back().ExitVersion = S.DestVersion;
      if (S.Kind == StmtKind::Phi) {
        Defs.back().PhiVersion = S.DestVersion;
        PhiBlocksOf[S.Dest].push_back(B);
      }
    }
  }
  for (std::vector<VarDefSite> &Defs : DefsOf) {
    std::erase_if(Defs,
                  [&](const VarDefSite &D) { return !DT.hasInfo(D.Block); });
    std::sort(Defs.begin(), Defs.end(),
              [&](const VarDefSite &A, const VarDefSite &B) {
                return PreorderPos[A.Block] < PreorderPos[B.Block];
              });
  }
  NonLexical = findNonLexicalVars(F, C, IsOperand);
}

const std::vector<BlockId> &FrgContext::varPhiBlocks(VarId V) const {
  static const std::vector<BlockId> None;
  return V >= 0 && static_cast<unsigned>(V) < PhiBlocksOf.size()
             ? PhiBlocksOf[V]
             : None;
}

const std::vector<VarDefSite> &FrgContext::varDefs(VarId V) const {
  static const std::vector<VarDefSite> None;
  return V >= 0 && static_cast<unsigned>(V) < DefsOf.size() ? DefsOf[V]
                                                            : None;
}

bool FrgContext::lexicalVersions(VarId V) const {
  return V >= 0 && static_cast<unsigned>(V) < NonLexical.size() &&
         !NonLexical[V];
}

void FrgContext::sortInPreorder(std::vector<BlockId> &Blocks) const {
  std::erase_if(Blocks, [&](BlockId B) { return !DT.hasInfo(B); });
  std::sort(Blocks.begin(), Blocks.end(), [&](BlockId A, BlockId B) {
    return PreorderPos[A] < PreorderPos[B];
  });
  Blocks.erase(std::unique(Blocks.begin(), Blocks.end()), Blocks.end());
}

namespace specpre {

/// Shared implementation of steps 1-2; Rename lives in FrgRename.cpp.
class FrgBuilder {
public:
  FrgBuilder(Frg &G, unsigned ExprIdx) : G(G), ExprIdx(ExprIdx) {}

  void run() {
    {
      PassTimer T(PipelineStep::PhiInsertion);
      maybeInject(FaultSite::PhiInsertion, "FRG build");
      insertPhis();
      collectReals();
      // Degenerate inputs can explode the occurrence count; the graph-node
      // budget bounds FRG memory before Rename touches it. It is charged
      // the unpruned Φ count, so pruning changes no budget outcome.
      if (BudgetTracker *B = currentBudget())
        throwIfError(B->checkGraphNodes(G.NumPhiBlocks + G.Reals.size(),
                                        "FRG build"));
      maybeInject(FaultSite::Alloc, "FRG occurrence arrays");
      T.setProblemSize(G.Phis.size() + G.Reals.size());
    }
    PassTimer T(PipelineStep::Rename, G.Phis.size() + G.Reals.size());
    maybeInject(FaultSite::Rename, "FRG rename");
    detail::renameFrg(G);
  }

private:
  void insertPhis();
  void collectReals();

  Frg &G;
  unsigned ExprIdx;
};

void FrgBuilder::insertPhis() {
  const FrgContext &X = G.Ctx;
  const Cfg &C = G.C;

  // Seed set: blocks with real occurrences, plus blocks containing a
  // variable phi for one of the expression's operands (the expression
  // potentially acquires a new value there, so the merge point of h must
  // be exposed; Kennedy et al. Section 3.1).
  std::vector<BlockId> VarPhiBlocks;
  bool Prune = true;
  for (const OperandKey *K : {&G.E.L, &G.E.R}) {
    if (K->IsConst)
      continue;
    const std::vector<BlockId> &Blocks = X.varPhiBlocks(K->Var);
    VarPhiBlocks.insert(VarPhiBlocks.end(), Blocks.begin(), Blocks.end());
    // Partial anticipation is lexical; Rename matches SSA versions. The
    // two agree only while the operand's versions behave like the
    // lexical variable, so other candidates keep every Φ.
    Prune &= X.lexicalVersions(K->Var);
  }
  std::vector<BlockId> Seeds = X.occurrenceBlocks(ExprIdx);
  Seeds.insert(Seeds.end(), VarPhiBlocks.begin(), VarPhiBlocks.end());
  std::vector<BlockId> PhiBlocks = X.frontier().iterated(Seeds);
  // Operand-phi blocks host a Φ directly (they are join nodes already).
  PhiBlocks.insert(PhiBlocks.end(), VarPhiBlocks.begin(), VarPhiBlocks.end());
  std::sort(PhiBlocks.begin(), PhiBlocks.end());
  PhiBlocks.erase(std::unique(PhiBlocks.begin(), PhiBlocks.end()),
                  PhiBlocks.end());

  for (BlockId B : PhiBlocks) {
    // Φs are only meaningful at reachable join points.
    if (!C.isReachable(B) || C.preds(B).size() < 2)
      continue;
    ++G.NumPhiBlocks;
    // Pruned: h's value here can reach no real occurrence.
    if (Prune && !X.dataFlow().partAntIn(B, ExprIdx))
      continue;
    PhiOcc P;
    P.Block = B;
    for (BlockId Pred : C.preds(B)) {
      PhiOperand Op;
      Op.Pred = Pred;
      P.Operands.push_back(Op);
    }
    G.Phis.push_back(std::move(P));
  }
}

void FrgBuilder::collectReals() {
  for (BlockId B : G.Ctx.occurrenceBlocks(ExprIdx)) {
    if (!G.C.isReachable(B))
      continue;
    const BasicBlock &BB = G.F.Blocks[B];
    for (unsigned I = 0; I != BB.Stmts.size(); ++I) {
      const Stmt &S = BB.Stmts[I];
      if (!G.E.matches(S))
        continue;
      RealOcc R;
      R.Block = B;
      R.StmtIdx = I;
      R.LVer = S.Src0.isVar() ? S.Src0.Version : 0;
      R.RVer = S.Src1.isVar() ? S.Src1.Version : 0;
      G.Reals.push_back(R);
    }
  }
}

} // namespace specpre

Frg::Frg(const FrgContext &Ctx, unsigned ExprIdx, Unbuilt)
    : Ctx(Ctx), F(Ctx.function()), C(Ctx.cfg()), DT(Ctx.domTree()),
      E(Ctx.exprs()[ExprIdx]) {}

Frg::Frg(const FrgContext &Ctx, unsigned ExprIdx)
    : Frg(Ctx, ExprIdx, Unbuilt{}) {
  FrgBuilder B(*this, ExprIdx);
  B.run();
}

Frg::Frg(const Function &F, const Cfg &C, const DomTree &DT, const ExprKey &E)
    : OwnCtx(std::make_unique<FrgContext>(F, C, DT, std::vector<ExprKey>{E})),
      Ctx(*OwnCtx), F(F), C(C), DT(DT), E(E) {
  FrgBuilder B(*this, 0);
  B.run();
}

int Frg::phiAt(BlockId B) const {
  auto It = std::lower_bound(
      Phis.begin(), Phis.end(), B,
      [](const PhiOcc &P, BlockId Block) { return P.Block < Block; });
  return It != Phis.end() && It->Block == B
             ? static_cast<int>(It - Phis.begin())
             : -1;
}

unsigned Frg::firstRealIn(BlockId B) const {
  auto It = std::lower_bound(
      Reals.begin(), Reals.end(), B,
      [](const RealOcc &R, BlockId Block) { return R.Block < Block; });
  return static_cast<unsigned>(It - Reals.begin());
}

std::string Frg::dump() const {
  std::ostringstream OS;
  OS << "FRG for '" << E.toString(F) << "':\n";
  for (unsigned I = 0; I != Phis.size(); ++I) {
    const PhiOcc &P = Phis[I];
    OS << "  phi" << I << " @" << F.Blocks[P.Block].Label
       << " class=" << P.Class << " entry=(" << P.LVerAtEntry << ","
       << P.RVerAtEntry << ") [";
    for (unsigned J = 0; J != P.Operands.size(); ++J) {
      const PhiOperand &Op = P.Operands[J];
      if (J)
        OS << ", ";
      OS << F.Blocks[Op.Pred].Label << ": ";
      if (Op.isBottom())
        OS << "_|_";
      else
        OS << "c" << Op.Class << (Op.HasRealUse ? "!" : "");
    }
    OS << "] downSafe=" << Phis[I].DownSafe
       << " fullyAvail=" << Phis[I].FullyAvail << " partAnt=" << P.PartAnt
       << "\n";
  }
  for (unsigned I = 0; I != Reals.size(); ++I) {
    const RealOcc &R = Reals[I];
    OS << "  real" << I << " @" << F.Blocks[R.Block].Label << "/" << R.StmtIdx
       << " class=" << R.Class << " vers=(" << R.LVer << "," << R.RVer << ")"
       << (R.RgExcluded ? " rg_excluded" : "")
       << " def=" << (R.Def.isPhi() ? "phi" : R.Def.isReal() ? "real" : "self")
       << "\n";
  }
  return OS.str();
}
