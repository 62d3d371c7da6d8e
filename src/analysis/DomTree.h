//===- analysis/DomTree.h - Dominator and post-dominator trees -*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator-tree construction using the Cooper-Harvey-Kennedy iterative
/// algorithm ("A Simple, Fast Dominance Algorithm"). The same engine
/// builds post-dominator trees by running on the reverse CFG with a
/// virtual exit node.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_ANALYSIS_DOMTREE_H
#define SPECPRE_ANALYSIS_DOMTREE_H

#include "analysis/Cfg.h"
#include "ir/Ir.h"

#include <utility>
#include <vector>

namespace specpre {

/// Dominator tree over the blocks of one function. For the post-dominator
/// variant, a virtual exit (id == numBlocks()) is the root.
class DomTree {
public:
  /// Builds the (forward) dominator tree of \p C.
  static DomTree buildDominators(const Cfg &C);

  /// Builds the post-dominator tree of \p C. All Ret blocks are joined
  /// into a virtual exit node whose id is `C.numBlocks()`. Blocks that
  /// cannot reach any Ret have no post-dominator information
  /// (hasInfo() == false).
  static DomTree buildPostDominators(const Cfg &C);

  /// Immediate dominator of \p B; InvalidBlock for the root or nodes
  /// without info.
  BlockId idom(BlockId B) const { return Idom[B]; }

  /// True if dominance information exists for \p B (reachable from the
  /// root in the direction of the analysis).
  bool hasInfo(BlockId B) const { return B == Root || Idom[B] != InvalidBlock; }

  /// True if \p A dominates \p B (reflexive). Constant time via DFS
  /// intervals.
  bool dominates(BlockId A, BlockId B) const {
    return DfsIn[A] <= DfsIn[B] && DfsOut[B] <= DfsOut[A];
  }

  /// True if \p A strictly dominates \p B.
  bool properlyDominates(BlockId A, BlockId B) const {
    return A != B && dominates(A, B);
  }

  const std::vector<BlockId> &children(BlockId B) const { return Kids[B]; }

  BlockId root() const { return Root; }
  unsigned numNodes() const { return static_cast<unsigned>(Idom.size()); }

  /// Nodes in dominator-tree preorder (root first).
  const std::vector<BlockId> &preorder() const { return Preorder; }

private:
  DomTree() = default;

  /// Runs CHK on an abstract graph given in reverse postorder.
  void compute(unsigned NumNodes, BlockId RootNode,
               const std::vector<std::vector<BlockId>> &Preds,
               const std::vector<BlockId> &Rpo);
  void buildTree();

  BlockId Root = InvalidBlock;
  std::vector<BlockId> Idom;
  std::vector<std::vector<BlockId>> Kids;
  std::vector<int> DfsIn, DfsOut;
  std::vector<BlockId> Preorder;
};

/// Depth-first walk of the blocks \p Blocks of \p DT, without recursion.
/// \p Blocks must be a subsequence of DT.preorder(). Enter(B) runs before
/// the listed blocks of B's subtree and returns a mark (typically the
/// sizes of the walker's undo logs); Exit(Mark) runs after them. An
/// unlisted block gets neither call, so a walker whose unlisted blocks
/// would push nothing gets exactly the result of the full walk while
/// paying only for the listed ones (the sparse FRG walks). A dominator
/// tree as deep as the function is long (a straight-line chain of
/// blocks) cannot overflow the call stack. Walking preorder with an
/// explicit stack of open blocks measured faster than iterating
/// children() lists.
template <typename EnterFn, typename ExitFn>
void walkDomTreeBlocks(const DomTree &DT, const std::vector<BlockId> &Blocks,
                       EnterFn &&Enter, ExitFn &&Exit) {
  using Mark = decltype(Enter(DT.root()));
  std::vector<std::pair<BlockId, Mark>> Open;
  for (BlockId B : Blocks) {
    while (!Open.empty() && !DT.dominates(Open.back().first, B)) {
      Exit(Open.back().second);
      Open.pop_back();
    }
    Open.emplace_back(B, Enter(B));
  }
  while (!Open.empty()) {
    Exit(Open.back().second);
    Open.pop_back();
  }
}

/// walkDomTreeBlocks over the whole of \p DT: blocks in preorder,
/// children in children() order, the visit order of a recursive walk
/// from the root.
template <typename EnterFn, typename ExitFn>
void walkDomTree(const DomTree &DT, EnterFn &&Enter, ExitFn &&Exit) {
  walkDomTreeBlocks(DT, DT.preorder(), Enter, Exit);
}

} // namespace specpre

#endif // SPECPRE_ANALYSIS_DOMTREE_H
