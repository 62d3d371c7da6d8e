//===- pre/Finalize.cpp - SSAPRE Finalize step --------------------------------===//

#include "pre/Finalize.h"

#include "support/Diagnostics.h"
#include "support/FaultInjector.h"
#include "support/PassTimer.h"

#include <cassert>
#include <vector>

using namespace specpre;

bool FinalizePlan::hasAnyEffect() const {
  for (const TempDef &D : TempDefs)
    if (D.Live)
      return true;
  return false;
}

namespace {

class Finalizer {
public:
  explicit Finalizer(Frg &G)
      : G(G), C(G.cfg()), DT(G.domTree()) {
    AvailStack.assign(static_cast<unsigned>(G.numClasses()), {});
    PhiDefIdx.assign(G.phis().size(), -1);
  }

  FinalizePlan run() {
    for (RealOcc &R : G.reals()) {
      R.Reload = false;
      R.Save = false;
      R.TempDefIndex = -1;
    }
    // Pre-create the temp-phi definitions for all will_be_avail Φs so
    // that predecessor blocks can fill their operands regardless of the
    // dominator-tree visit order (a predecessor may well be visited
    // before the join block itself). The walk visits only the blocks
    // that provide a value or feed an operand: will_be_avail Φs, their
    // predecessors and the real occurrences. The rest would push
    // nothing, and the preorder of the visited blocks (hence the
    // TempDefs order) is that of the full walk.
    std::vector<BlockId> Events;
    for (const RealOcc &R : G.reals())
      Events.push_back(R.Block);
    for (unsigned PI = 0; PI != G.phis().size(); ++PI) {
      const PhiOcc &P = G.phis()[PI];
      if (!P.WillBeAvail)
        continue;
      TempDef D;
      D.K = TempDef::Kind::Phi;
      D.Block = P.Block;
      D.PhiIdx = static_cast<int>(PI);
      for (const PhiOperand &Op : P.Operands)
        D.PhiPreds.push_back(Op.Pred);
      D.PhiArgs.assign(P.Operands.size(), -1);
      PhiDefIdx[PI] = makeDef(std::move(D));
      Events.push_back(P.Block);
      for (const PhiOperand &Op : P.Operands)
        Events.push_back(Op.Pred);
    }
    G.context().sortInPreorder(Events);
    walkDomTreeBlocks(
        DT, Events, [this](BlockId B) { return enterBlock(B); },
        [this](size_t Mark) { exitBlock(Mark); });
    markLiveness();
    return std::move(Plan);
  }

private:
  int makeDef(TempDef D) {
    Plan.TempDefs.push_back(std::move(D));
    return static_cast<int>(Plan.TempDefs.size()) - 1;
  }

  /// Steps 1-3 of the walk at B; the values B provides stay on the
  /// class stacks for its dominator subtree. Returns the mark exitBlock()
  /// pops back to.
  size_t enterBlock(BlockId B);
  /// Pops the values provided since \p Mark.
  void exitBlock(size_t Mark);
  void markLiveness();

  Frg &G;
  const Cfg &C;
  const DomTree &DT;

  FinalizePlan Plan;
  /// Per redundancy class: stack of TempDef indices currently providing
  /// the value on the dominator path.
  std::vector<std::vector<int>> AvailStack;
  std::vector<int> PhiDefIdx; ///< Per Φ: its TempDef index (wba only).
  /// Classes whose AvailStack was pushed, in push order, along the path.
  std::vector<int> PushedClasses;
};

size_t Finalizer::enterBlock(BlockId B) {
  size_t Mark = PushedClasses.size();

  // 1. A will_be_avail Φ provides the value for its class from the top
  // of block B (its TempDef was pre-created in run()).
  int PhiIdx = G.phiAt(B);
  if (PhiIdx >= 0 && G.phis()[PhiIdx].WillBeAvail) {
    const PhiOcc &P = G.phis()[PhiIdx];
    AvailStack[P.Class].push_back(PhiDefIdx[PhiIdx]);
    PushedClasses.push_back(P.Class);
  }

  // 2. Real occurrences: reload when a dominating definition of the same
  // class exists, otherwise compute (and provide the value).
  for (unsigned RI = G.firstRealIn(B);
       RI != G.reals().size() && G.reals()[RI].Block == B; ++RI) {
    RealOcc &R = G.reals()[RI];
    std::vector<int> &Stack = AvailStack[R.Class];
    if (!Stack.empty()) {
      R.Reload = true;
      R.TempDefIndex = Stack.back();
      continue;
    }
    TempDef D;
    D.K = TempDef::Kind::RealSave;
    D.Block = B;
    D.RealIdx = static_cast<int>(RI);
    int Idx = makeDef(std::move(D));
    Stack.push_back(Idx);
    PushedClasses.push_back(R.Class);
  }

  // 3. At the block's end, feed the operands of will_be_avail Φs in the
  // CFG successors: inserted computations or the current class value.
  for (BlockId S : C.succs(B)) {
    int SuccPhi = G.phiAt(S);
    if (SuccPhi < 0 || !G.phis()[SuccPhi].WillBeAvail)
      continue;
    const PhiOcc &P = G.phis()[SuccPhi];
    for (unsigned OI = 0; OI != P.Operands.size(); ++OI) {
      const PhiOperand &Op = P.Operands[OI];
      if (Op.Pred != B)
        continue;
      int SourceDef;
      if (Op.Insert) {
        TempDef D;
        D.K = TempDef::Kind::Insert;
        D.Block = B;
        D.LVer = Op.LVerAtPredEnd;
        D.RVer = Op.RVerAtPredEnd;
        SourceDef = makeDef(std::move(D));
      } else {
        assert(!Op.isBottom() && "non-inserted bottom operand of a "
                                 "will_be_avail Φ");
        const std::vector<int> &Stack = AvailStack[Op.Class];
        assert(!Stack.empty() && "no available definition for a "
                                 "will_be_avail Φ operand");
        SourceDef = Stack.back();
      }
      Plan.TempDefs[PhiDefIdx[SuccPhi]].PhiArgs[OI] = SourceDef;
    }
  }

  // 4. The walk visits B's dominator-tree children, then exitBlock()
  // restores the stacks.
  return Mark;
}

void Finalizer::exitBlock(size_t Mark) {
  for (size_t I = Mark; I != PushedClasses.size(); ++I)
    AvailStack[PushedClasses[I]].pop_back();
  PushedClasses.resize(Mark);
}

void Finalizer::markLiveness() {
  // Extraneous-phi removal: a temp definition is live iff a reload uses
  // it, or a live phi references it as an operand. Inserted computations
  // and saves materialize only when live.
  std::vector<int> Work;
  auto MarkLive = [&](int DefIdx) {
    TempDef &D = Plan.TempDefs[DefIdx];
    if (D.Live)
      return;
    D.Live = true;
    Work.push_back(DefIdx);
  };
  for (RealOcc &R : G.reals())
    if (R.Reload)
      MarkLive(R.TempDefIndex);
  while (!Work.empty()) {
    int DefIdx = Work.back();
    Work.pop_back();
    const TempDef &D = Plan.TempDefs[DefIdx];
    if (D.K != TempDef::Kind::Phi)
      continue;
    for (int Arg : D.PhiArgs) {
      assert(Arg >= 0 && "live phi with an unfilled operand");
      MarkLive(Arg);
    }
  }
  for (TempDef &D : Plan.TempDefs)
    if (D.Live && D.K == TempDef::Kind::RealSave)
      G.reals()[D.RealIdx].Save = true;
}

} // namespace

FinalizePlan specpre::finalizePlacement(Frg &G) {
  PassTimer Timer(PipelineStep::Finalize,
                  G.phis().size() + G.reals().size());
  maybeInject(FaultSite::Finalize, "finalize placement");
  Finalizer Fz(G);
  return Fz.run();
}
