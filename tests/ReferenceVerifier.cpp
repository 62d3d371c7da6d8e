//===- tests/ReferenceVerifier.cpp - Naive reference IR verifier -----------===//
//
// The IR verifier as it was before ir/Verifier.cpp gained its own
// dominator tree, kept verbatim as a test-only oracle. Dominance is the
// naive formulation (A dominates B iff B is unreachable from the entry
// once A is removed), one whole-function DFS per cross-block use, so it is
// only fit for small functions. verifier_differential_test requires the
// production verifier to give the same verdict and the same message.
//
//===----------------------------------------------------------------------===//

#include "ReferenceVerifier.h"

#include "ir/Printer.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

using namespace specpre;

namespace {

/// Collects all statement-level checks for one function.
class VerifierImpl {
public:
  VerifierImpl(const Function &F, std::string &Error) : F(F), Error(Error) {}

  bool run();

private:
  bool fail(const std::string &Message) {
    Error = "function '" + F.Name + "': " + Message;
    return false;
  }

  bool checkStructure();
  bool checkOperand(const Operand &O, const std::string &Where);
  bool checkSsa();

  /// Computes reachable blocks from entry.
  std::vector<bool> reachableFrom(BlockId Start,
                                  BlockId Excluded = InvalidBlock) const;

  /// Returns true if \p A dominates \p B (both reachable). Naive
  /// formulation: A dominates B iff B is unreachable once A is removed.
  bool dominates(BlockId A, BlockId B) const;

  const Function &F;
  std::string &Error;
  std::vector<std::vector<BlockId>> Preds;
};

std::vector<bool> VerifierImpl::reachableFrom(BlockId Start,
                                              BlockId Excluded) const {
  std::vector<bool> Seen(F.numBlocks(), false);
  if (Start == Excluded)
    return Seen;
  std::vector<BlockId> Work{Start};
  Seen[Start] = true;
  std::vector<BlockId> Succs;
  while (!Work.empty()) {
    BlockId B = Work.back();
    Work.pop_back();
    Succs.clear();
    F.Blocks[B].appendSuccessors(Succs);
    for (BlockId S : Succs) {
      if (S == Excluded || Seen[S])
        continue;
      Seen[S] = true;
      Work.push_back(S);
    }
  }
  return Seen;
}

bool VerifierImpl::dominates(BlockId A, BlockId B) const {
  if (A == B)
    return true;
  std::vector<bool> Seen = reachableFrom(0, A);
  return !Seen[B];
}

bool VerifierImpl::checkOperand(const Operand &O, const std::string &Where) {
  if (O.isConst())
    return true;
  if (O.Var < 0 || O.Var >= static_cast<VarId>(F.numVars()))
    return fail("invalid variable operand in " + Where);
  if (F.IsSSA && O.Version <= 0)
    return fail("unversioned variable use of '" + F.varName(O.Var) + "' in " +
                Where + " of SSA-form function");
  return true;
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

  if (!Preds[0].empty())
    return fail("entry block must have no predecessors");

  // Statement-level operand and phi checks.
  std::vector<bool> Reachable = reachableFrom(0);
  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    for (const Stmt &S : BB.Stmts) {
      std::string Where = "block '" + BB.Label + "': " + printStmt(F, S);
      if (S.definesValue() &&
          (S.Dest < 0 || S.Dest >= static_cast<VarId>(F.numVars())))
        return fail("invalid destination variable in " + Where);
      switch (S.Kind) {
      case StmtKind::Copy:
      case StmtKind::Branch:
      case StmtKind::Ret:
      case StmtKind::Print:
        if (!checkOperand(S.Src0, Where))
          return false;
        break;
      case StmtKind::Compute:
        if (!checkOperand(S.Src0, Where) || !checkOperand(S.Src1, Where))
          return false;
        break;
      case StmtKind::Phi: {
        if (!Reachable[B])
          break;
        // Phi args must correspond 1:1 with CFG predecessors.
        std::set<BlockId> ArgPreds;
        for (const PhiArg &A : S.PhiArgs) {
          if (!ArgPreds.insert(A.Pred).second)
            return fail("duplicate phi predecessor in " + Where);
          if (!checkOperand(A.Val, Where))
            return false;
        }
        std::set<BlockId> CfgPreds(Preds[B].begin(), Preds[B].end());
        if (ArgPreds != CfgPreds)
          return fail("phi predecessors do not match CFG predecessors in " +
                      Where);
        break;
      }
      case StmtKind::Jump:
        break;
      }
    }
  }
  return true;
}

bool VerifierImpl::checkSsa() {
  // Gather all definitions: (var, version) -> (block, stmt index).
  // Parameters are implicitly defined at function entry with version 1.
  struct DefSite {
    BlockId Block;
    unsigned StmtIdx;
    bool IsParam;
  };
  std::map<std::pair<VarId, int>, DefSite> Defs;
  for (VarId P : F.Params)
    Defs[{P, 1}] = DefSite{0, 0, true};

  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    for (unsigned I = 0; I != BB.Stmts.size(); ++I) {
      const Stmt &S = BB.Stmts[I];
      if (!S.definesValue())
        continue;
      if (S.DestVersion <= 0)
        return fail("unversioned definition of '" + F.varName(S.Dest) +
                    "' in SSA-form function");
      auto Key = std::make_pair(S.Dest, S.DestVersion);
      if (!Defs.emplace(Key, DefSite{static_cast<BlockId>(B), I, false})
               .second)
        return fail("multiple definitions of '" + F.varName(S.Dest) + "#" +
                    std::to_string(S.DestVersion) + "'");
    }
  }

  std::vector<bool> Reachable = reachableFrom(0);

  // Check that every use is dominated by its definition. A phi argument is
  // a use at the end of the corresponding predecessor block.
  auto CheckUse = [&](const Operand &O, BlockId UseBlock, unsigned UseIdx,
                      bool AtPredEnd, const std::string &Where) {
    if (!O.isVar())
      return true;
    auto It = Defs.find({O.Var, O.Version});
    if (It == Defs.end())
      return fail("use of undefined '" + F.varName(O.Var) + "#" +
                  std::to_string(O.Version) + "' in " + Where);
    const DefSite &D = It->second;
    if (!Reachable[UseBlock])
      return true; // unreachable code is not held to dominance rules
    if (D.Block == UseBlock) {
      if (AtPredEnd)
        return true; // def inside the pred block always precedes its end
      if (D.StmtIdx >= UseIdx && !D.IsParam)
        return fail("definition does not precede use in " + Where);
      return true;
    }
    if (!dominates(D.Block, UseBlock))
      return fail("definition of '" + F.varName(O.Var) + "#" +
                  std::to_string(O.Version) + "' does not dominate use in " +
                  Where);
    return true;
  };

  for (unsigned B = 0; B != F.numBlocks(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    if (!Reachable[B])
      continue;
    for (unsigned I = 0; I != BB.Stmts.size(); ++I) {
      const Stmt &S = BB.Stmts[I];
      std::string Where = "block '" + BB.Label + "': " + printStmt(F, S);
      switch (S.Kind) {
      case StmtKind::Copy:
      case StmtKind::Branch:
      case StmtKind::Ret:
      case StmtKind::Print:
        if (!CheckUse(S.Src0, B, I, false, Where))
          return false;
        break;
      case StmtKind::Compute:
        if (!CheckUse(S.Src0, B, I, false, Where) ||
            !CheckUse(S.Src1, B, I, false, Where))
          return false;
        break;
      case StmtKind::Phi:
        for (const PhiArg &A : S.PhiArgs)
          if (!CheckUse(A.Val, A.Pred, 0, true, Where))
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

bool specpre::referenceVerifyFunction(const Function &F, std::string &Error) {
  VerifierImpl V(F, Error);
  return V.run();
}
