//===- tests/frg_pruning_test.cpp - Pruned FRG vs. the unpruned reference ---===//
//
// Differential oracle for the FRG front half. For every candidate of
// every function, in the order the driver commits them, the production
// FRG (Φs only where the expression is partially anticipated, sparse
// Rename, sparse Finalize) is built next to the unpruned reference
// (tests/ReferenceFrg.cpp). Both go through the same placement; then
// every kept Φ must match the reference Φ at its block, every real
// occurrence must match, the EFGs must agree edge by edge, the Finalize
// plans must agree on every live temp definition, and every pruned Φ
// must be inert (not PartAnt, not in the reduced graph, no live temp
// definition). The production placement is then committed, so the next
// candidate sees the function the driver would.
//
//===----------------------------------------------------------------------===//

#include "ReferenceFrg.h"

#include "analysis/Loops.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "opt/Cleanup.h"
#include "opt/ValueNumbering.h"
#include "pre/CodeMotion.h"
#include "pre/Finalize.h"
#include "pre/LexicalDataFlow.h"
#include "pre/McSsaPre.h"
#include "pre/PreDriver.h"
#include "pre/SsaPre.h"
#include "ssa/SsaConstruction.h"
#include "workload/ProgramGenerator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#ifndef SPECPRE_CORPUS_DIR
#error "SPECPRE_CORPUS_DIR must point at tests/corpus"
#endif

using namespace specpre;

namespace {

enum class Mode { Safe, SafeSpec, Speculative };

/// Deterministic node profile: the oracle needs weights, not executions.
Profile syntheticProfile(const Function &F) {
  Profile P;
  P.reset(F.numBlocks(), false);
  for (unsigned B = 0; B != F.numBlocks(); ++B)
    P.BlockFreq[B] = 1 + (B * 37u) % 101u;
  return P;
}

/// Checks the production FRG P against the reference R (same candidate,
/// same placement already run on both). Pruned reference Φs must be
/// inert; kept ones must agree field by field, classes through a
/// consistent class -> class mapping.
class FrgComparer {
public:
  FrgComparer(const Frg &P, const Frg &R, std::string Where)
      : P(P), R(R), Where(std::move(Where)) {}

  void compareGraphs() {
    const Function &F = P.function();
    ASSERT_EQ(P.numPhiBlocks(), R.phis().size()) << Where;
    ASSERT_EQ(P.reals().size(), R.reals().size()) << Where;
    for (const PhiOcc &RP : R.phis()) {
      int PI = P.phiAt(RP.Block);
      std::string At = Where + " Φ@" + F.Blocks[RP.Block].Label;
      if (PI < 0) {
        EXPECT_FALSE(RP.PartAnt) << At << ": pruned Φ is PartAnt";
        EXPECT_FALSE(RP.InReducedGraph) << At << ": pruned Φ in the EFG";
        continue;
      }
      const PhiOcc &PP = P.phis()[PI];
      EXPECT_TRUE(sameClass(PP.Class, RP.Class)) << At;
      EXPECT_EQ(PP.LVerAtEntry, RP.LVerAtEntry) << At;
      EXPECT_EQ(PP.RVerAtEntry, RP.RVerAtEntry) << At;
      EXPECT_EQ(PP.DownSafe, RP.DownSafe) << At;
      EXPECT_EQ(PP.SpeculativeDownSafe, RP.SpeculativeDownSafe) << At;
      EXPECT_EQ(PP.CanBeAvail, RP.CanBeAvail) << At;
      EXPECT_EQ(PP.Later, RP.Later) << At;
      EXPECT_EQ(PP.WillBeAvail, RP.WillBeAvail) << At;
      EXPECT_EQ(PP.FullyAvail, RP.FullyAvail) << At;
      EXPECT_EQ(PP.PartAnt, RP.PartAnt) << At;
      EXPECT_EQ(PP.InReducedGraph, RP.InReducedGraph) << At;
      ASSERT_EQ(PP.Operands.size(), RP.Operands.size()) << At;
      for (unsigned OI = 0; OI != PP.Operands.size(); ++OI) {
        const PhiOperand &A = PP.Operands[OI], &B = RP.Operands[OI];
        std::string Op = At + " operand " + std::to_string(OI);
        EXPECT_EQ(A.Pred, B.Pred) << Op;
        EXPECT_EQ(A.isBottom(), B.isBottom()) << Op;
        if (!A.isBottom() && !B.isBottom()) {
          EXPECT_TRUE(sameClass(A.Class, B.Class)) << Op;
          EXPECT_TRUE(sameOcc(A.Def, B.Def)) << Op;
        }
        EXPECT_EQ(A.HasRealUse, B.HasRealUse) << Op;
        EXPECT_EQ(A.InsertBlocked, B.InsertBlocked) << Op;
        EXPECT_EQ(A.LVerAtPredEnd, B.LVerAtPredEnd) << Op;
        EXPECT_EQ(A.RVerAtPredEnd, B.RVerAtPredEnd) << Op;
        EXPECT_EQ(A.Insert, B.Insert) << Op;
      }
    }
    for (unsigned RI = 0; RI != P.reals().size(); ++RI) {
      const RealOcc &A = P.reals()[RI], &B = R.reals()[RI];
      std::string At = Where + " real " + std::to_string(RI);
      EXPECT_EQ(A.Block, B.Block) << At;
      EXPECT_EQ(A.StmtIdx, B.StmtIdx) << At;
      EXPECT_EQ(A.LVer, B.LVer) << At;
      EXPECT_EQ(A.RVer, B.RVer) << At;
      EXPECT_TRUE(sameClass(A.Class, B.Class)) << At;
      EXPECT_TRUE(sameOcc(A.Def, B.Def)) << At;
      EXPECT_EQ(A.RgExcluded, B.RgExcluded) << At;
    }
  }

  /// The EFGs of P and R, built by the production builder, edge by edge
  /// (InsertAtOperand actions name Φs by block).
  void compareEfgs(const EfgBuild &A, const EfgBuild &B) {
    ASSERT_EQ(A.Empty, B.Empty) << Where;
    ASSERT_EQ(A.Net.numNodes(), B.Net.numNodes()) << Where;
    ASSERT_EQ(A.Net.numOriginalEdges(), B.Net.numOriginalEdges()) << Where;
    EXPECT_EQ(A.NumEdges, B.NumEdges) << Where;
    EXPECT_EQ(A.SprReals, B.SprReals) << Where;
    EXPECT_EQ(A.SprWeight, B.SprWeight) << Where;
    EXPECT_EQ(A.Saturated, B.Saturated) << Where;
    for (int E = 0; E != A.Net.numOriginalEdges(); ++E) {
      std::string At = Where + " EFG edge " + std::to_string(E);
      EXPECT_EQ(A.Net.edgeFrom(E), B.Net.edgeFrom(E)) << At;
      EXPECT_EQ(A.Net.edgeTo(E), B.Net.edgeTo(E)) << At;
      EXPECT_EQ(A.Net.edgeCapacity(E), B.Net.edgeCapacity(E)) << At;
      int TA = A.Net.edgeTag(E), TB = B.Net.edgeTag(E);
      ASSERT_EQ(TA < 0, TB < 0) << At;
      if (TA < 0)
        continue;
      const EfgBuild::Action &X = A.Actions[TA], &Y = B.Actions[TB];
      ASSERT_EQ(X.K, Y.K) << At;
      if (X.K == EfgBuild::Action::Kind::ComputeInPlace) {
        EXPECT_EQ(X.RealIdx, Y.RealIdx) << At;
      } else {
        EXPECT_EQ(P.phis()[X.PhiIdx].Block, R.phis()[Y.PhiIdx].Block) << At;
        EXPECT_EQ(X.OpIdx, Y.OpIdx) << At;
      }
    }
  }

  /// The live temp definitions of the two Finalize plans, in order, and
  /// the real-occurrence decisions that point into them.
  void comparePlans(const FinalizePlan &A, const FinalizePlan &B) {
    std::vector<int> LiveA = liveIndex(A), LiveB = liveIndex(B);
    std::vector<int> OrderA, OrderB;
    for (unsigned I = 0; I != A.TempDefs.size(); ++I)
      if (A.TempDefs[I].Live)
        OrderA.push_back(static_cast<int>(I));
    for (unsigned I = 0; I != B.TempDefs.size(); ++I)
      if (B.TempDefs[I].Live)
        OrderB.push_back(static_cast<int>(I));
    ASSERT_EQ(OrderA.size(), OrderB.size()) << Where << ": live temp defs";
    for (unsigned K = 0; K != OrderA.size(); ++K) {
      const TempDef &X = A.TempDefs[OrderA[K]], &Y = B.TempDefs[OrderB[K]];
      std::string At = Where + " live temp def " + std::to_string(K);
      ASSERT_EQ(X.K, Y.K) << At;
      EXPECT_EQ(X.Block, Y.Block) << At;
      EXPECT_EQ(X.RealIdx, Y.RealIdx) << At;
      EXPECT_EQ(X.LVer, Y.LVer) << At;
      EXPECT_EQ(X.RVer, Y.RVer) << At;
      EXPECT_EQ(X.PhiPreds, Y.PhiPreds) << At;
      ASSERT_EQ(X.PhiArgs.size(), Y.PhiArgs.size()) << At;
      for (unsigned OI = 0; OI != X.PhiArgs.size(); ++OI)
        EXPECT_EQ(LiveA[X.PhiArgs[OI]], LiveB[Y.PhiArgs[OI]]) << At;
    }
    // No live definition belongs to a pruned Φ: the live sequences are
    // equal, and every live reference-Φ definition sits at a kept Φ.
    for (int I : OrderB) {
      const TempDef &D = B.TempDefs[I];
      if (D.K == TempDef::Kind::Phi) {
        EXPECT_GE(P.phiAt(R.phis()[D.PhiIdx].Block), 0)
            << Where << ": live temp def of a pruned Φ";
      }
    }
    for (unsigned RI = 0; RI != P.reals().size(); ++RI) {
      const RealOcc &X = P.reals()[RI], &Y = R.reals()[RI];
      std::string At = Where + " real " + std::to_string(RI);
      EXPECT_EQ(X.Reload, Y.Reload) << At;
      EXPECT_EQ(X.Save, Y.Save) << At;
      if (X.Reload && Y.Reload) {
        EXPECT_EQ(LiveA[X.TempDefIndex], LiveB[Y.TempDefIndex]) << At;
      }
    }
  }

private:
  /// Per temp def: its rank among the live ones, or -1.
  static std::vector<int> liveIndex(const FinalizePlan &Plan) {
    std::vector<int> Rank(Plan.TempDefs.size(), -1);
    int Next = 0;
    for (unsigned I = 0; I != Plan.TempDefs.size(); ++I)
      if (Plan.TempDefs[I].Live)
        Rank[I] = Next++;
    return Rank;
  }

  bool sameClass(int A, int B) {
    if (A < 0 || B < 0)
      return A == B;
    auto [It, New] = ClassMap.emplace(A, B);
    auto [RIt, RNew] = Reverse.emplace(B, A);
    return It->second == B && RIt->second == A;
  }

  bool sameOcc(OccRef A, OccRef B) {
    if (A.K != B.K)
      return false;
    if (A.isPhi())
      return P.phis()[A.Index].Block == R.phis()[B.Index].Block;
    return A.Index == B.Index;
  }

  const Frg &P, &R;
  std::string Where;
  std::map<int, int> ClassMap, Reverse;
};

/// Replays the driver's candidate loop over \p F (SSA, prepared or as
/// written) under \p M, comparing each candidate's FRG against the
/// reference before committing the production placement. SSA fresh from
/// construction must have every candidate pruned (\p FreshSsa), so an
/// over-eager guard cannot pass the oracle by never pruning.
void replayFunction(Function F, Mode M, const std::string &Name,
                    bool FreshSsa) {
  SCOPED_TRACE(Name + " mode " + std::to_string(static_cast<int>(M)));
  ASSERT_TRUE(F.IsSSA);
  Cfg C(F);
  DomTree DT = DomTree::buildDominators(C);
  LoopInfo LI(C, DT);
  Profile Prof = syntheticProfile(F);
  FrgContext Ctx(F, C, DT, collectCandidateExprs(F));
  const std::vector<ExprKey> &Exprs = Ctx.exprs();
  for (unsigned EI = 0; EI != Exprs.size(); ++EI) {
    for (const OperandKey *K : {&Exprs[EI].L, &Exprs[EI].R}) {
      if (FreshSsa && !K->IsConst) {
        EXPECT_TRUE(Ctx.lexicalVersions(K->Var))
            << Name << ": " << F.varName(K->Var)
            << " flagged in SSA fresh from construction";
      }
    }
    Frg P(Ctx, EI);
    Frg R = buildReferenceFrg(Ctx, EI);
    std::string Where = Name + " '" + Exprs[EI].toString(F) + "'";
    FrgComparer Cmp(P, R, Where);
    Cmp.compareGraphs();
    if (P.reals().empty())
      continue;

    const ExprKey &E = Exprs[EI];
    if (M == Mode::Speculative && !E.canFault()) {
      EfgBuild BP = buildEfgNetwork(P, Prof);
      EfgBuild BR = buildEfgNetwork(R, Prof);
      Cmp.compareEfgs(BP, BR);
      computeSpeculativePlacement(P, Prof);
      computeSpeculativePlacement(R, Prof);
    } else {
      bool Spec = M == Mode::SafeSpec && !E.canFault();
      computeSafePlacement(P, Ctx.dataFlow(), EI, Spec, &LI);
      computeSafePlacement(R, Ctx.dataFlow(), EI, Spec, &LI);
    }
    Cmp.compareGraphs();
    FinalizePlan PlanP = finalizePlacement(P);
    FinalizePlan PlanR = finalizePlacement(R);
    Cmp.comparePlans(PlanP, PlanR);
    if (::testing::Test::HasFailure())
      return; // one diverging candidate is enough; later ones cascade
    if (PlanP.hasAnyEffect())
      applyCodeMotion(F, P, PlanP,
                      F.makeFreshVar("pre.tmp." + std::to_string(EI)));
  }
  std::string Error;
  EXPECT_TRUE(verifyFunction(F, Error)) << Error;
}

void replayModes(const Function &Ssa, const std::string &Name,
                 std::initializer_list<Mode> Modes, bool FreshSsa = true) {
  for (Mode M : Modes) {
    replayFunction(Ssa, M, Name, FreshSsa);
    if (::testing::Test::HasFailure())
      return;
  }
}

void replayAllModes(const Function &Ssa, const std::string &Name,
                    bool FreshSsa = true) {
  replayModes(Ssa, Name, {Mode::Safe, Mode::SafeSpec, Mode::Speculative},
              FreshSsa);
}

Function prepareSsa(Function F) {
  prepareFunction(F);
  constructSsa(F);
  return F;
}

TEST(FrgPruning, SpecSuitePrograms) {
  for (const BenchmarkSpec &S : fullCpu2006Suite()) {
    replayAllModes(prepareSsa(S.buildProgram()), S.Name);
    if (HasFailure())
      return;
  }
}

TEST(FrgPruning, DeepChains) {
  // The deep-chain family of bench/compile_time_scaling.
  for (unsigned K = 8; K <= 64; K *= 2) {
    GeneratorConfig Cfg;
    Cfg.MaxDepth = 1;
    Cfg.RegionsPerLevel = K;
    Cfg.IfChance = 0;
    Cfg.WhileChance = 0;
    Cfg.DoWhileChance = 0;
    Cfg.GridChance = 1000;
    Cfg.MaxWidth = 3;
    Cfg.ExprPoolSize = 10;
    Cfg.InvariantChance = 400;
    uint64_t Seed = 17 * K + 3;
    Function F;
    do
      F = generateProgram(Seed++, Cfg, "chain" + std::to_string(K));
    while (F.numBlocks() < K * 15u);
    // The unpruned reference is quadratic on this family; the largest
    // chain runs MC-SSAPRE's placement only, to bound the test's time.
    std::string Name = "chain" + std::to_string(K);
    if (K < 64)
      replayAllModes(prepareSsa(std::move(F)), Name);
    else
      replayModes(prepareSsa(std::move(F)), Name, {Mode::Speculative});
    if (HasFailure())
      return;
  }
}

TEST(FrgPruning, GeneratedPrograms) {
  GeneratorConfig Cfg;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    replayAllModes(prepareSsa(generateProgram(Seed, Cfg, "gen")),
                   "seed " + std::to_string(Seed));
    if (HasFailure())
      return;
  }
}

TEST(FrgPruning, CleanedUpSsa) {
  // PRE also runs on SSA that value numbering, copy propagation and the
  // rest of the cleanup pipeline rewrote (iterated PRE, GVN + PRE),
  // where versions of one variable may be live at once.
  GeneratorConfig Cfg;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Function F = prepareSsa(generateProgram(Seed, Cfg, "gen"));
    runValueNumbering(F);
    runCleanupPipeline(F);
    replayAllModes(F, "cleaned seed " + std::to_string(Seed),
                   /*FreshSsa=*/false);
    if (HasFailure())
      return;
    // A second round, as compileWithIteratedPre runs it.
    PreOptions PO;
    PO.Strategy = PreStrategy::SsaPre;
    runPre(F, PO);
    runCleanupPipeline(F);
    replayModes(F, "second-round seed " + std::to_string(Seed),
                {Mode::Speculative}, /*FreshSsa=*/false);
    if (HasFailure())
      return;
  }
  for (const BenchmarkSpec &S : fullCpu2006Suite()) {
    Function F = prepareSsa(S.buildProgram());
    runValueNumbering(F);
    runCleanupPipeline(F);
    replayModes(F, "cleaned " + S.Name, {Mode::Speculative},
                /*FreshSsa=*/false);
    if (HasFailure())
      return;
  }
}

TEST(FrgPruning, CorpusReproducers) {
  unsigned Files = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(SPECPRE_CORPUS_DIR)) {
    if (Entry.path().extension() != ".ir")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Text;
    Text << In.rdbuf();
    std::string Error;
    std::optional<Module> Mod = parseModule(Text.str(), Error);
    ASSERT_TRUE(Mod) << Entry.path() << ": " << Error;
    ++Files;
    for (const Function &F : Mod->Functions) {
      std::string Name = Entry.path().filename().string() + ":" + F.Name;
      // Prepared, as the driver sees it, and as written (critical edges
      // unsplit), as the efg-cut fuzz oracle builds it.
      replayAllModes(prepareSsa(F), Name);
      Function AsWritten = F;
      if (!AsWritten.IsSSA)
        constructSsa(AsWritten);
      replayAllModes(AsWritten, Name + " (as written)");
    }
  }
  EXPECT_GT(Files, 0u);
}

/// Hand-written SSA whose variable phis substitute another variable or a
/// constant along an edge (as copy propagation can leave them).
const char *const ForeignPhiPrograms[] = {
      R"(
    func f(a, b, c, p) {
    entry:
      br p#1, l, r
    l:
      jmp j
    r:
      jmp j
    j:
      a#2 = phi [l: a#1] [r: c#1]
      x#1 = a#2 + b#1
      print x#1
      ret 0
    }
  )",
      R"(
    func f(a, b, p) {
    entry:
      x#1 = a#1 + 0
      u#1 = x#1 * b#1
      print u#1
      br p#1, t, e
    t:
      y#1 = a#1 + 5
      jmp j
    e:
      jmp j
    j:
      x#2 = phi [t: y#1] [e: x#1]
      v#1 = x#2 * b#1
      ret v#1
    }
  )",
      R"(
    func f(a, b, n) {
    entry:
      i#1 = 0
      s#1 = a#1 + b#1
      jmp h
    h:
      i#2 = phi [entry: i#1] [body: i#3]
      a#2 = phi [entry: a#1] [body: 7]
      c#1 = i#2 < n#1
      br c#1, body, out
    body:
      t#1 = a#2 + b#1
      print t#1
      i#3 = i#2 + 1
      jmp h
    out:
      w#1 = a#2 + b#1
      ret w#1
    }
  )",
};

TEST(FrgPruning, ForeignOperandPhis) {
  // A foreign phi kills lexically at its block's entry, so the
  // occurrence right after it is not partially anticipated at the Φ
  // there, yet Rename still matches it to that Φ: pruning must leave
  // these candidates alone.
  for (const char *Text : ForeignPhiPrograms)
    replayAllModes(parseFunctionOrDie(Text), "foreign", /*FreshSsa=*/false);
}

/// The original O(statements x candidates) local properties.
LocalExprProps bruteForceLocalProps(const Function &F,
                                    const std::vector<ExprKey> &Exprs) {
  unsigned NE = static_cast<unsigned>(Exprs.size());
  unsigned NB = F.numBlocks();
  LocalExprProps P;
  P.CompAtExit.assign(NB, BitVector(NE, false));
  P.AntLoc.assign(NB, BitVector(NE, false));
  P.Transp.assign(NB, BitVector(NE, true));
  for (unsigned B = 0; B != NB; ++B) {
    BitVector KilledSoFar(NE, false);
    auto Kill = [&](VarId V) {
      for (unsigned E = 0; E != NE; ++E) {
        if (Exprs[E].dependsOnVar(V)) {
          KilledSoFar.set(E);
          P.Transp[B].reset(E);
          P.CompAtExit[B].reset(E);
        }
      }
    };
    for (const Stmt &S : F.Blocks[B].Stmts) {
      if (S.Kind == StmtKind::Phi) {
        bool Foreign = false;
        for (const PhiArg &A : S.PhiArgs)
          Foreign |= !A.Val.isVar() || A.Val.Var != S.Dest;
        if (Foreign)
          Kill(S.Dest);
        continue;
      }
      for (unsigned E = 0; E != NE; ++E) {
        if (Exprs[E].matches(S)) {
          if (!KilledSoFar.test(E))
            P.AntLoc[B].set(E);
          P.CompAtExit[B].set(E);
        }
      }
      if (S.definesValue())
        Kill(S.Dest);
    }
  }
  return P;
}

void expectSameLocalProps(const Function &F,
                          const std::vector<ExprKey> &Exprs,
                          const std::string &Name) {
  LocalExprProps A = computeLocalExprProps(F, Exprs);
  LocalExprProps B = bruteForceLocalProps(F, Exprs);
  for (unsigned Blk = 0; Blk != F.numBlocks(); ++Blk) {
    for (unsigned E = 0; E != Exprs.size(); ++E) {
      if (A.CompAtExit[Blk].test(E) != B.CompAtExit[Blk].test(E) ||
          A.AntLoc[Blk].test(E) != B.AntLoc[Blk].test(E) ||
          A.Transp[Blk].test(E) != B.Transp[Blk].test(E)) {
        ADD_FAILURE() << Name << ": block " << F.Blocks[Blk].Label
                      << ", expression '" << Exprs[E].toString(F)
                      << "': COMP/ANTLOC/TRANSP differ from brute force";
        return;
      }
    }
  }
}

/// Both forms of \p F: prepared but not yet SSA, and SSA. Each under its
/// candidate list, and under that list reversed with its first key
/// repeated at the end (the local properties accept any list).
void checkLocalProps(Function F, const std::string &Name) {
  for (int Form = 0; Form != 2; ++Form) {
    if (Form == 1 && !F.IsSSA)
      constructSsa(F);
    std::vector<ExprKey> Exprs = collectCandidateExprs(F);
    expectSameLocalProps(F, Exprs, Name);
    std::vector<ExprKey> Shuffled(Exprs.rbegin(), Exprs.rend());
    if (!Exprs.empty())
      Shuffled.push_back(Exprs.front());
    expectSameLocalProps(F, Shuffled, Name + " (reversed, repeated key)");
  }
}

TEST(LocalExprProps, MatchBruteForce) {
  for (const BenchmarkSpec &S : fullCpu2006Suite()) {
    Function F = S.buildProgram();
    prepareFunction(F);
    checkLocalProps(std::move(F), S.Name);
  }
  GeneratorConfig Cfg;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    Function F = generateProgram(Seed, Cfg, "gen");
    prepareFunction(F);
    checkLocalProps(std::move(F), "seed " + std::to_string(Seed));
  }
  for (const char *Text : ForeignPhiPrograms)
    checkLocalProps(parseFunctionOrDie(Text), "foreign");
}

} // namespace
