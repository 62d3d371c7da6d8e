//===- tests/verifier_differential_test.cpp - Verifier vs naive reference -===//
//
// Mutates SSA functions taken from the SpecSuite and from the program
// generator (fixed seeds) and requires ir/Verifier.cpp to give the same
// verdict and the same message as the naive reference verifier
// (ReferenceVerifier.cpp) on every case. The mutations change operand,
// destination and phi-argument versions, retarget branches (with and
// without repairing the phis, so blocks become unreachable while the
// structure stays valid) and swap statements within and across blocks.
//
//===----------------------------------------------------------------------===//

#include "ReferenceVerifier.h"

#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pre/PreDriver.h"
#include "ssa/SsaConstruction.h"
#include "support/Random.h"
#include "workload/ProgramGenerator.h"
#include "workload/SpecSuite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace specpre;

namespace {

Function ssaOf(Function F) {
  prepareFunction(F);
  constructSsa(F);
  return F;
}

/// Highest version of each variable, so mutated versions are mostly ones
/// that exist somewhere else in the function.
std::vector<int> maxVersions(const Function &F) {
  std::vector<int> Max(F.numVars(), 1);
  for (const BasicBlock &BB : F.Blocks)
    for (const Stmt &S : BB.Stmts)
      if (S.definesValue() && S.Dest >= 0 &&
          S.Dest < static_cast<VarId>(F.numVars()))
        Max[S.Dest] = std::max(Max[S.Dest], S.DestVersion);
  return Max;
}

class Mutator {
public:
  Mutator(Function &F, Rng &R) : F(F), R(R), MaxVer(maxVersions(F)) {}

  void mutateOnce() {
    switch (R.nextBelow(6)) {
    case 0:
      return operandVersion();
    case 1:
      return destVersion();
    case 2:
      return phiArgVersion();
    case 3:
      return retarget(/*RepairPhis=*/false);
    case 4:
      return retarget(/*RepairPhis=*/true);
    default:
      return swapStatements();
    }
  }

private:
  int newVersion(VarId V) {
    int Hi = (V >= 0 && V < static_cast<VarId>(MaxVer.size()) ? MaxVer[V]
                                                                 : 1) + 1;
    return static_cast<int>(R.nextInRange(0, Hi));
  }

  BlockId randomBlock() {
    return static_cast<BlockId>(R.nextBelow(F.numBlocks()));
  }

  void operandVersion() {
    std::vector<Operand *> Uses;
    for (BasicBlock &BB : F.Blocks)
      for (Stmt &S : BB.Stmts)
        for (Operand *O : {&S.Src0, &S.Src1})
          if (S.Kind != StmtKind::Phi && S.Kind != StmtKind::Jump &&
              O->isVar())
            Uses.push_back(O);
    if (Uses.empty())
      return;
    Operand *O = Uses[R.nextBelow(Uses.size())];
    O->Version = newVersion(O->Var);
  }

  void destVersion() {
    std::vector<Stmt *> Defs;
    for (BasicBlock &BB : F.Blocks)
      for (Stmt &S : BB.Stmts)
        if (S.definesValue())
          Defs.push_back(&S);
    if (Defs.empty())
      return;
    Stmt *S = Defs[R.nextBelow(Defs.size())];
    S->DestVersion = newVersion(S->Dest);
  }

  void phiArgVersion() {
    std::vector<Operand *> Args;
    for (BasicBlock &BB : F.Blocks)
      for (Stmt &S : BB.Stmts)
        if (S.Kind == StmtKind::Phi)
          for (PhiArg &A : S.PhiArgs)
            if (A.Val.isVar())
              Args.push_back(&A.Val);
    if (Args.empty())
      return;
    Operand *O = Args[R.nextBelow(Args.size())];
    O->Version = newVersion(O->Var);
  }

  /// Points one edge of a branch or jump at another block. With
  /// \p RepairPhis the phis of the old and new targets are updated so the
  /// phi/predecessor structure stays valid and the SSA checks run.
  void retarget(bool RepairPhis) {
    BlockId B = randomBlock();
    Stmt &T = F.Blocks[B].Stmts.back();
    if (T.Kind != StmtKind::Branch && T.Kind != StmtKind::Jump)
      return;
    BlockId &Target =
        T.Kind == StmtKind::Branch && R.chance(1, 2) ? T.FalseTarget
                                                     : T.TrueTarget;
    BlockId Old = Target;
    // Rarely out of range, to cover the target checks.
    BlockId New = R.chance(1, 50) ? static_cast<BlockId>(F.numBlocks())
                                  : randomBlock();
    Target = New;
    auto InRange = [&](BlockId X) {
      return X >= 0 && X < static_cast<BlockId>(F.numBlocks());
    };
    if (!RepairPhis || New == Old || !InRange(New) || !InRange(Old))
      return;
    std::vector<BlockId> Succs;
    F.Blocks[B].appendSuccessors(Succs);
    auto StillPred = [&](BlockId S) {
      return std::find(Succs.begin(), Succs.end(), S) != Succs.end();
    };
    if (!StillPred(Old))
      for (Stmt &S : F.Blocks[Old].Stmts)
        if (S.Kind == StmtKind::Phi)
          std::erase_if(S.PhiArgs,
                        [&](const PhiArg &A) { return A.Pred == B; });
    for (Stmt &S : F.Blocks[New].Stmts) {
      if (S.Kind != StmtKind::Phi)
        break;
      bool HasB = std::any_of(S.PhiArgs.begin(), S.PhiArgs.end(),
                              [&](const PhiArg &A) { return A.Pred == B; });
      if (HasB)
        continue;
      Operand Val = S.PhiArgs.empty()
                        ? Operand::makeConst(0)
                        : S.PhiArgs[R.nextBelow(S.PhiArgs.size())].Val;
      S.PhiArgs.push_back(PhiArg{B, Val});
    }
  }

  /// Swaps two statements: usually two non-terminators of one block,
  /// sometimes any two statements of one block, sometimes non-terminators
  /// of two different blocks.
  void swapStatements() {
    BlockId A = randomBlock();
    std::vector<Stmt> &SA = F.Blocks[A].Stmts;
    unsigned Kind = static_cast<unsigned>(R.nextBelow(10));
    if (Kind < 6) {
      if (SA.size() < 3)
        return;
      size_t I = R.nextBelow(SA.size() - 2);
      std::swap(SA[I], SA[I + 1]);
    } else if (Kind < 8) {
      std::swap(SA[R.nextBelow(SA.size())], SA[R.nextBelow(SA.size())]);
    } else {
      std::vector<Stmt> &SB = F.Blocks[randomBlock()].Stmts;
      if (SA.size() < 2 || SB.size() < 2)
        return;
      std::swap(SA[R.nextBelow(SA.size() - 1)], SB[R.nextBelow(SB.size() - 1)]);
    }
  }

  Function &F;
  Rng &R;
  std::vector<int> MaxVer;
};

/// Message with the quoted names and statement cut off, for tallying.
std::string messageKind(const std::string &Error) {
  std::string Rest = Error.substr(Error.find("': ") + 3);
  for (const char *Stop : {" in ", " '", "'"})
    if (size_t P = Rest.find(Stop); P != std::string::npos)
      Rest = Rest.substr(0, P);
  return Rest;
}

struct Tally {
  unsigned Cases = 0;
  unsigned Accepted = 0;
  unsigned Mismatches = 0;
  std::map<std::string, unsigned> ByKind;
};

void checkCase(const Function &F, Tally &T) {
  ++T.Cases;
  std::string Got, Want;
  bool GotOk = verifyFunction(F, Got);
  bool WantOk = referenceVerifyFunction(F, Want);
  if (GotOk == WantOk && Got == Want) {
    if (GotOk)
      ++T.Accepted;
    else
      ++T.ByKind[messageKind(Got)];
    return;
  }
  if (++T.Mismatches <= 3)
    ADD_FAILURE() << "verdicts differ\n  verifier:  "
                  << (GotOk ? "<accepted>" : Got) << "\n  reference: "
                  << (WantOk ? "<accepted>" : Want) << "\n"
                  << printFunction(F);
}

void mutateAndCheck(const Function &Base, uint64_t Seed, unsigned Count,
                    Tally &T) {
  std::string Error;
  ASSERT_TRUE(verifyFunction(Base, Error)) << Error;
  ASSERT_TRUE(referenceVerifyFunction(Base, Error)) << Error;
  Rng R(Seed);
  for (unsigned I = 0; I != Count; ++I) {
    Function F = Base;
    Mutator M(F, R);
    for (unsigned N = 1 + static_cast<unsigned>(R.nextBelow(3)); N--;)
      M.mutateOnce();
    checkCase(F, T);
  }
}

} // namespace

TEST(VerifierDifferential, MutatedSsaFunctionsMatchReference) {
  Tally T;

  // The SpecSuite programs are the largest; the reference verifier costs
  // O(uses x blocks) on each, so they get fewer mutants apiece.
  uint64_t Seed = 1;
  for (const BenchmarkSpec &Spec : fullCpu2006Suite())
    mutateAndCheck(ssaOf(Spec.buildProgram()), Seed++, 40, T);

  // Small generated programs, plain and with bounded-treewidth grid
  // regions, some after SSAPRE's code motion (fresh temporaries and
  // inserted definitions).
  for (uint64_t S = 0; S != 120; ++S) {
    GeneratorConfig Cfg;
    Cfg.MaxDepth = 2 + S % 2;
    Cfg.RegionsPerLevel = 2;
    if (S % 3 == 1)
      Cfg.MaxWidth = 2 + S % 2;
    Function F = ssaOf(generateProgram(0x5eed + S, Cfg, "gen"));
    if (S % 3 == 2) {
      PreOptions PO;
      PO.Strategy = PreStrategy::SsaPre;
      runPre(F, PO);
    }
    mutateAndCheck(F, 1000 + S, 160, T);
  }

  EXPECT_EQ(T.Mismatches, 0u);
  EXPECT_GE(T.Cases, 20000u);
  // The mutations must keep reaching the dominance checks and the
  // definition table, not just the structural ones.
  for (const char *Kind :
       {"definition of", "definition does not precede use",
        "use of undefined", "multiple definitions of",
        "unversioned definition of",
        "phi predecessors do not match CFG predecessors",
        "entry block must have no predecessors"})
    EXPECT_GT(T.ByKind[Kind], 0u) << Kind;
  EXPECT_GT(T.Accepted, 0u);
  for (const auto &[Kind, N] : T.ByKind)
    std::printf("  %6u  %s\n", N, Kind.c_str());
  std::printf("  %6u  <accepted>\n  %6u  cases\n", T.Accepted, T.Cases);
}
