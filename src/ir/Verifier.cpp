//===- ir/Verifier.cpp - IR well-formedness checks -------------------------===//

#include "ir/Verifier.h"

#include "ir/Printer.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

using namespace specpre;

namespace {

/// Collects all statement-level checks for one function. One call is
/// O(n log n) in the function's blocks, edges and statements: dominance
/// comes from one dominator tree per call, and the text that locates a
/// failure is only built when a check fails.
class VerifierImpl {
public:
  VerifierImpl(const Function &F, std::string &Error) : F(F), Error(Error) {}

  bool run();

private:
  bool fail(const std::string &Message) {
    Error = "function '" + F.Name + "': " + Message;
    return false;
  }

  /// The "block 'L': <stmt>" text that locates a failing statement.
  std::string where(BlockId B, const Stmt &S) const {
    return "block '" + F.Blocks[B].Label + "': " + printStmt(F, S);
  }

  bool checkStructure();
  bool checkOperand(const Operand &O, BlockId B, const Stmt &S);
  bool checkPhiPreds(BlockId B, const Stmt &S);
  bool checkSsa();

  /// Numbers the blocks reachable from the entry in DFS preorder
  /// (DfsNum, Vertex, DfsParent).
  void numberBlocks();

  /// Computes immediate dominators with the simple Lengauer-Tarjan
  /// algorithm (path compression, no balancing) over Preds, then numbers
  /// the dominator tree so that dominates() is an interval test. This is
  /// deliberately not src/analysis/DomTree (Cooper-Harvey-Kennedy), so
  /// the verifier stays an independent oracle for the code it checks.
  void buildDomTree();

  bool reachable(BlockId B) const { return DfsNum[B] >= 0; }

  /// Returns true if \p A dominates \p B, where B is reachable. A block
  /// that is unreachable from the entry (DomSize 0) dominates nothing.
  bool dominates(BlockId A, BlockId B) const {
    unsigned PA = DomPre[A], PB = DomPre[B];
    return PA <= PB && PB < PA + DomSize[A];
  }

  const Function &F;
  std::string &Error;
  /// Sorted, duplicate-free CFG predecessors of each block (including
  /// unreachable ones).
  std::vector<std::vector<BlockId>> Preds;

  /// DFS preorder over reachable blocks: DfsNum[block] (-1 if
  /// unreachable), Vertex[num] = block, DfsParent[num] = parent's num.
  std::vector<int> DfsNum;
  std::vector<BlockId> Vertex;
  std::vector<unsigned> DfsParent;

  /// Dominator-tree preorder number and subtree size of each block (0
  /// for unreachable ones): A dominates B iff DomPre[B] lies in
  /// [DomPre[A], DomPre[A] + DomSize[A]).
  std::vector<unsigned> DomPre, DomSize;

  /// Reused by checkPhiPreds: (pred, argument index) pairs.
  std::vector<std::pair<BlockId, unsigned>> PhiScratch;
};

bool VerifierImpl::checkOperand(const Operand &O, BlockId B, const Stmt &S) {
  if (O.isConst())
    return true;
  if (O.Var < 0 || O.Var >= static_cast<VarId>(F.numVars()))
    return fail("invalid variable operand in " + where(B, S));
  if (F.IsSSA && O.Version <= 0)
    return fail("unversioned variable use of '" + F.varName(O.Var) + "' in " +
                where(B, S) + " of SSA-form function");
  return true;
}

bool VerifierImpl::checkPhiPreds(BlockId B, const Stmt &S) {
  // The first argument whose predecessor repeats an earlier argument's is
  // reported as a duplicate, in argument order with the operand checks.
  PhiScratch.clear();
  for (unsigned I = 0; I != S.PhiArgs.size(); ++I)
    PhiScratch.emplace_back(S.PhiArgs[I].Pred, I);
  std::sort(PhiScratch.begin(), PhiScratch.end());
  unsigned FirstDup = static_cast<unsigned>(S.PhiArgs.size());
  for (unsigned I = 1; I < PhiScratch.size(); ++I)
    if (PhiScratch[I].first == PhiScratch[I - 1].first)
      FirstDup = std::min(FirstDup, PhiScratch[I].second);
  for (unsigned I = 0; I != S.PhiArgs.size(); ++I) {
    if (I == FirstDup)
      return fail("duplicate phi predecessor in " + where(B, S));
    if (!checkOperand(S.PhiArgs[I].Val, B, S))
      return false;
  }
  // Phi args must correspond 1:1 with CFG predecessors.
  const std::vector<BlockId> &CfgPreds = Preds[B];
  bool Match = PhiScratch.size() == CfgPreds.size();
  for (unsigned I = 0; Match && I != CfgPreds.size(); ++I)
    Match = PhiScratch[I].first == CfgPreds[I];
  if (!Match)
    return fail("phi predecessors do not match CFG predecessors in " +
                where(B, S));
  return true;
}

void VerifierImpl::numberBlocks() {
  unsigned N = F.numBlocks();
  DfsNum.assign(N, -1);
  Vertex.clear();
  DfsParent.clear();
  // Iterative DFS: a block is numbered when popped, with the block that
  // pushed it as its tree parent.
  std::vector<std::pair<BlockId, unsigned>> Stack{{0, 0}};
  std::vector<BlockId> Succs;
  while (!Stack.empty()) {
    auto [B, Parent] = Stack.back();
    Stack.pop_back();
    if (DfsNum[B] >= 0)
      continue;
    unsigned Num = static_cast<unsigned>(Vertex.size());
    DfsNum[B] = static_cast<int>(Num);
    Vertex.push_back(B);
    DfsParent.push_back(Parent);
    Succs.clear();
    F.Blocks[B].appendSuccessors(Succs);
    for (auto It = Succs.rbegin(); It != Succs.rend(); ++It)
      if (DfsNum[*It] < 0)
        Stack.emplace_back(*It, Num);
  }
}

void VerifierImpl::buildDomTree() {
  // Everything below is indexed by DFS number; 0 is the entry.
  unsigned N = static_cast<unsigned>(Vertex.size());
  constexpr unsigned None = ~0u;
  std::vector<unsigned> Semi(N), Label(N), Ancestor(N, None), Idom(N, 0);
  std::vector<unsigned> BucketHead(N, None), BucketNext(N, None);
  for (unsigned V = 0; V != N; ++V)
    Semi[V] = Label[V] = V;

  std::vector<unsigned> Path;
  // Returns the vertex of minimum semidominator on the forest path from V
  // to its root, compressing the path (iteratively, so deep chains do not
  // exhaust the stack).
  auto Eval = [&](unsigned V) {
    if (Ancestor[V] == None)
      return V;
    Path.clear();
    for (unsigned X = V; Ancestor[Ancestor[X]] != None; X = Ancestor[X])
      Path.push_back(X);
    for (auto It = Path.rbegin(); It != Path.rend(); ++It) {
      unsigned X = *It, A = Ancestor[X];
      if (Semi[Label[A]] < Semi[Label[X]])
        Label[X] = Label[A];
      Ancestor[X] = Ancestor[A];
    }
    return Label[V];
  };

  for (unsigned W = N; W-- > 1;) {
    for (BlockId P : Preds[Vertex[W]]) {
      if (DfsNum[P] < 0)
        continue; // unreachable predecessors do not constrain dominance
      unsigned U = Eval(static_cast<unsigned>(DfsNum[P]));
      if (Semi[U] < Semi[W])
        Semi[W] = Semi[U];
    }
    BucketNext[W] = BucketHead[Semi[W]];
    BucketHead[Semi[W]] = W;
    unsigned P = DfsParent[W];
    Ancestor[W] = P;
    for (unsigned V = BucketHead[P]; V != None; V = BucketNext[V]) {
      unsigned U = Eval(V);
      Idom[V] = Semi[U] < Semi[V] ? U : P;
    }
    BucketHead[P] = None;
  }
  for (unsigned W = 1; W < N; ++W)
    if (Idom[W] != Semi[W])
      Idom[W] = Idom[Idom[W]];

  // Dominator-tree intervals. An idom precedes its children in DFS
  // order, so subtree sizes accumulate bottom-up and each child is handed
  // the next free slot of its parent's interval top-down.
  std::vector<unsigned> Size(N, 1), Pre(N, 0), NextSlot(N, 1);
  for (unsigned W = N; W-- > 1;)
    Size[Idom[W]] += Size[W];
  for (unsigned W = 1; W < N; ++W) {
    Pre[W] = NextSlot[Idom[W]];
    NextSlot[Idom[W]] += Size[W];
    NextSlot[W] = Pre[W] + 1;
  }
  DomPre.assign(F.numBlocks(), 0);
  DomSize.assign(F.numBlocks(), 0);
  for (unsigned W = 0; W != N; ++W) {
    DomPre[Vertex[W]] = Pre[W];
    DomSize[Vertex[W]] = Size[W];
  }
}

bool VerifierImpl::checkStructure() {
  if (F.Blocks.empty())
    return fail("function has no blocks");

  Preds.assign(F.numBlocks(), {});
  std::vector<BlockId> Succs;
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    if (BB.Stmts.empty())
      return fail("block '" + BB.Label + "' is empty");
    if (!BB.Stmts.back().isTerminator())
      return fail("block '" + BB.Label + "' does not end with a terminator");
    for (unsigned I = 0; I + 1 < BB.Stmts.size(); ++I)
      if (BB.Stmts[I].isTerminator())
        return fail("block '" + BB.Label + "' has a terminator in mid-block");
    bool SeenNonPhi = false;
    for (const Stmt &S : BB.Stmts) {
      if (S.Kind == StmtKind::Phi) {
        if (SeenNonPhi)
          return fail("phi after non-phi statement in block '" + BB.Label +
                      "'");
      } else {
        SeenNonPhi = true;
      }
    }
    const Stmt &T = BB.Stmts.back();
    if (T.Kind == StmtKind::Branch || T.Kind == StmtKind::Jump) {
      if (T.TrueTarget < 0 || T.TrueTarget >= static_cast<BlockId>(F.numBlocks()))
        return fail("invalid branch target in block '" + BB.Label + "'");
      if (T.Kind == StmtKind::Branch &&
          (T.FalseTarget < 0 ||
           T.FalseTarget >= static_cast<BlockId>(F.numBlocks())))
        return fail("invalid false target in block '" + BB.Label + "'");
    }
    Succs.clear();
    BB.appendSuccessors(Succs);
    for (BlockId S : Succs)
      Preds[S].push_back(static_cast<BlockId>(B));
  }
  for (std::vector<BlockId> &P : Preds)
    P.erase(std::unique(P.begin(), P.end()), P.end()); // already sorted

  if (!Preds[0].empty())
    return fail("entry block must have no predecessors");

  // Statement-level operand and phi checks.
  numberBlocks();
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    for (const Stmt &S : BB.Stmts) {
      if (S.definesValue() &&
          (S.Dest < 0 || S.Dest >= static_cast<VarId>(F.numVars())))
        return fail("invalid destination variable in " + where(B, S));
      switch (S.Kind) {
      case StmtKind::Copy:
      case StmtKind::Branch:
      case StmtKind::Ret:
      case StmtKind::Print:
        if (!checkOperand(S.Src0, B, S))
          return false;
        break;
      case StmtKind::Compute:
        if (!checkOperand(S.Src0, B, S) || !checkOperand(S.Src1, B, S))
          return false;
        break;
      case StmtKind::Phi:
        if (reachable(B) && !checkPhiPreds(B, S))
          return false;
        break;
      case StmtKind::Jump:
        break;
      }
    }
  }
  return true;
}

bool VerifierImpl::checkSsa() {
  // Gather all definitions: (var, version) -> (block, stmt index), as one
  // table sorted by (var, version, scan order). Parameters are implicitly
  // defined at function entry with version 1.
  struct DefSite {
    VarId Var;
    int Version;
    unsigned Seq; ///< 0 for parameters, else 1 + position in scan order.
    BlockId Block;
    unsigned StmtIdx;
  };
  std::vector<DefSite> Defs;
  for (VarId P : F.Params)
    if (P >= 0 && P < static_cast<VarId>(F.numVars()))
      Defs.push_back(DefSite{P, 1, 0, 0, 0});
  // Scanning stops at the first unversioned definition: a repeated
  // definition is only reported ahead of it if it comes earlier.
  const Stmt *Unversioned = nullptr;
  for (unsigned B = 0; B != F.numBlocks() && !Unversioned; ++B) {
    const BasicBlock &BB = F.Blocks[B];
    for (unsigned I = 0; I != BB.Stmts.size(); ++I) {
      const Stmt &S = BB.Stmts[I];
      if (!S.definesValue())
        continue;
      if (S.DestVersion <= 0) {
        Unversioned = &S;
        break;
      }
      Defs.push_back(DefSite{S.Dest, S.DestVersion,
                             static_cast<unsigned>(Defs.size()) + 1,
                             static_cast<BlockId>(B), I});
    }
  }
  auto KeyLess = [](const DefSite &A, const DefSite &B) {
    return std::tie(A.Var, A.Version) < std::tie(B.Var, B.Version);
  };
  std::sort(Defs.begin(), Defs.end(), [](const DefSite &A, const DefSite &B) {
    return std::tie(A.Var, A.Version, A.Seq) < std::tie(B.Var, B.Version, B.Seq);
  });
  // The first repeated definition in scan order: within one key,
  // parameters (Seq 0) count as one definition and every later statement
  // repeats it.
  const DefSite *FirstRepeat = nullptr;
  for (size_t I = 1; I < Defs.size(); ++I) {
    const DefSite &D = Defs[I];
    if (!KeyLess(Defs[I - 1], D) && D.Seq != 0 &&
        (!FirstRepeat || D.Seq < FirstRepeat->Seq))
      FirstRepeat = &D;
  }
  if (FirstRepeat)
    return fail("multiple definitions of '" + F.varName(FirstRepeat->Var) +
                "#" + std::to_string(FirstRepeat->Version) + "'");
  if (Unversioned)
    return fail("unversioned definition of '" + F.varName(Unversioned->Dest) +
                "' in SSA-form function");

  buildDomTree();

  // Check that every use is dominated by its definition. A phi argument is
  // a use at the end of the corresponding predecessor block.
  auto CheckUse = [&](const Operand &O, BlockId UseBlock, unsigned UseIdx,
                      bool AtPredEnd, BlockId B, const Stmt &S) {
    if (!O.isVar())
      return true;
    DefSite Key{O.Var, O.Version, 0, 0, 0};
    auto It = std::lower_bound(Defs.begin(), Defs.end(), Key, KeyLess);
    if (It == Defs.end() || KeyLess(Key, *It))
      return fail("use of undefined '" + F.varName(O.Var) + "#" +
                  std::to_string(O.Version) + "' in " + where(B, S));
    const DefSite &D = *It;
    if (!reachable(UseBlock))
      return true; // unreachable code is not held to dominance rules
    if (D.Block == UseBlock) {
      if (AtPredEnd)
        return true; // def inside the pred block always precedes its end
      if (D.StmtIdx >= UseIdx && D.Seq != 0)
        return fail("definition does not precede use in " + where(B, S));
      return true;
    }
    if (!dominates(D.Block, UseBlock))
      return fail("definition of '" + F.varName(O.Var) + "#" +
                  std::to_string(O.Version) + "' does not dominate use in " +
                  where(B, S));
    return true;
  };

  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    if (!reachable(B))
      continue;
    for (unsigned I = 0; I != BB.Stmts.size(); ++I) {
      const Stmt &S = BB.Stmts[I];
      switch (S.Kind) {
      case StmtKind::Copy:
      case StmtKind::Branch:
      case StmtKind::Ret:
      case StmtKind::Print:
        if (!CheckUse(S.Src0, B, I, false, B, S))
          return false;
        break;
      case StmtKind::Compute:
        if (!CheckUse(S.Src0, B, I, false, B, S) ||
            !CheckUse(S.Src1, B, I, false, B, S))
          return false;
        break;
      case StmtKind::Phi:
        for (const PhiArg &A : S.PhiArgs)
          if (!CheckUse(A.Val, A.Pred, 0, true, B, S))
            return false;
        break;
      case StmtKind::Jump:
        break;
      }
    }
  }
  return true;
}

bool VerifierImpl::run() {
  if (!checkStructure())
    return false;
  if (F.IsSSA && !checkSsa())
    return false;
  return true;
}

} // namespace

bool specpre::verifyFunction(const Function &F, std::string &Error) {
  VerifierImpl V(F, Error);
  return V.run();
}

void specpre::verifyFunctionOrDie(const Function &F,
                                  const std::string &Context) {
  std::string Error;
  if (!verifyFunction(F, Error))
    reportFatalError(Context + ": " + Error + "\n" + printFunction(F));
}
