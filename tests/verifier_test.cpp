//===- tests/verifier_test.cpp - Exact IR verifier messages ---------------===//
//
// One hand-built ill-formed function per failure message of
// ir/Verifier.cpp, asserting the exact Error string, plus the well-formed
// shapes the dominance rules must accept (parameter uses, phi arguments
// used at the end of the predecessor that defines them, unreachable
// code).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace specpre;

namespace {

std::string rejection(const Function &F) {
  std::string Error;
  if (verifyFunction(F, Error))
    return "<accepted>";
  return Error;
}

std::string rejection(std::string_view Text) {
  return rejection(parseFunctionOrDie(Text));
}

void expectAccepted(std::string_view Text) {
  Function F = parseFunctionOrDie(Text);
  std::string Error;
  EXPECT_TRUE(verifyFunction(F, Error)) << Error;
}

/// A one-block function "f" whose entry holds \p Stmts.
Function oneBlock(std::vector<Stmt> Stmts) {
  Function F;
  F.Name = "f";
  F.getOrAddVar("x");
  F.addBlock("entry");
  F.Blocks[0].Stmts = std::move(Stmts);
  return F;
}

Operand cst(int64_t V) { return Operand::makeConst(V); }

} // namespace

//===----------------------------------------------------------------------===//
// Structure
//===----------------------------------------------------------------------===//

TEST(VerifierMessages, NoBlocks) {
  Function F;
  F.Name = "f";
  EXPECT_EQ(rejection(F), "function 'f': function has no blocks");
}

TEST(VerifierMessages, EmptyBlock) {
  EXPECT_EQ(rejection(oneBlock({})), "function 'f': block 'entry' is empty");
}

TEST(VerifierMessages, MissingTerminator) {
  EXPECT_EQ(rejection(oneBlock({Stmt::makeCopy(0, cst(1))})),
            "function 'f': block 'entry' does not end with a terminator");
}

TEST(VerifierMessages, TerminatorInMidBlock) {
  EXPECT_EQ(rejection(oneBlock({Stmt::makeRet(cst(0)), Stmt::makeRet(cst(1))})),
            "function 'f': block 'entry' has a terminator in mid-block");
}

TEST(VerifierMessages, PhiAfterNonPhi) {
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      jmp b
    b:
      x = 1
      y = phi [entry: 2]
      ret y
    }
  )"),
            "function 'f': phi after non-phi statement in block 'b'");
}

TEST(VerifierMessages, InvalidBranchTarget) {
  EXPECT_EQ(rejection(oneBlock({Stmt::makeJump(5)})),
            "function 'f': invalid branch target in block 'entry'");
  EXPECT_EQ(rejection(oneBlock({Stmt::makeBranch(cst(1), -2, 0)})),
            "function 'f': invalid branch target in block 'entry'");
}

TEST(VerifierMessages, InvalidFalseTarget) {
  Function F = oneBlock({Stmt::makeBranch(cst(1), 1, 7)});
  F.addBlock("b");
  F.Blocks[1].Stmts.push_back(Stmt::makeRet(cst(0)));
  EXPECT_EQ(rejection(F),
            "function 'f': invalid false target in block 'entry'");
}

TEST(VerifierMessages, EdgeIntoEntry) {
  EXPECT_EQ(rejection(oneBlock({Stmt::makeJump(0)})),
            "function 'f': entry block must have no predecessors");
}

TEST(VerifierMessages, InvalidDestination) {
  EXPECT_EQ(rejection(oneBlock({Stmt::makeCopy(9, cst(1)),
                                Stmt::makeRet(cst(0))})),
            "function 'f': invalid destination variable in block 'entry': "
            "<invalid var 9> = 1");
}

TEST(VerifierMessages, InvalidOperand) {
  EXPECT_EQ(rejection(oneBlock({Stmt::makeRet(Operand::makeVar(-3))})),
            "function 'f': invalid variable operand in block 'entry': "
            "ret <invalid var -3>");
}

TEST(VerifierMessages, UnversionedUseInSsa) {
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      x#1 = 1
      ret x
    }
  )"),
            "function 'f': unversioned variable use of 'x' in block 'entry': "
            "ret x of SSA-form function");
}

TEST(VerifierMessages, DuplicatePhiPredecessor) {
  EXPECT_EQ(rejection(R"(
    func f(p) {
    entry:
      br p, a, join
    a:
      jmp join
    join:
      x = phi [a: 1] [a: 2] [entry: 3]
      ret x
    }
  )"),
            "function 'f': duplicate phi predecessor in block 'join': "
            "x = phi [a: 1] [a: 2] [entry: 3]");
}

TEST(VerifierMessages, DuplicateIsReportedInArgumentOrder) {
  // The third argument repeats the first; the second argument's operand is
  // invalid and comes earlier, so it is the reported failure.
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      br p, a, join
    a:
      jmp join
    join:
      x = phi [a: 1] [entry: 2] [a: 3]
      ret x
    }
  )");
  F.Blocks[2].Stmts[0].PhiArgs[1].Val = Operand::makeVar(40);
  EXPECT_EQ(rejection(F),
            "function 'f': invalid variable operand in block 'join': "
            "x = phi [a: 1] [entry: <invalid var 40>] [a: 3]");
  F.Blocks[2].Stmts[0].PhiArgs[1].Val = cst(2);
  EXPECT_EQ(rejection(F),
            "function 'f': duplicate phi predecessor in block 'join': "
            "x = phi [a: 1] [entry: 2] [a: 3]");
}

TEST(VerifierMessages, PhiPredecessorMismatch) {
  const char *Missing = R"(
    func f(p) {
    entry:
      br p, a, join
    a:
      jmp join
    join:
      x = phi [a: 1]
      ret x
    }
  )";
  EXPECT_EQ(rejection(Missing),
            "function 'f': phi predecessors do not match CFG predecessors in "
            "block 'join': x = phi [a: 1]");
  const char *Extra = R"(
    func f(p) {
    entry:
      jmp join
    a:
      ret 0
    join:
      x = phi [entry: 1] [a: 2]
      ret x
    }
  )";
  EXPECT_EQ(rejection(Extra),
            "function 'f': phi predecessors do not match CFG predecessors in "
            "block 'join': x = phi [entry: 1] [a: 2]");
}

TEST(VerifierMessages, PhiInUnreachableBlockIsNotChecked) {
  expectAccepted(R"(
    func f() {
    entry:
      ret 0
    dead:
      x = phi [entry: 1] [entry: 2]
      ret x
    }
  )");
}

TEST(VerifierMessages, BothEdgesOfABranchAreOnePredecessor) {
  expectAccepted(R"(
    func f(p) {
    entry:
      br p, join, join
    join:
      x = phi [entry: 1]
      ret x
    }
  )");
}

//===----------------------------------------------------------------------===//
// SSA definitions
//===----------------------------------------------------------------------===//

TEST(VerifierMessages, UnversionedDefinition) {
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      x#1 = 1
      y = 2
      ret x#1
    }
  )"),
            "function 'f': unversioned definition of 'y' in SSA-form function");
}

TEST(VerifierMessages, MultipleDefinitions) {
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      x#1 = 1
      x#1 = 2
      ret x#1
    }
  )"),
            "function 'f': multiple definitions of 'x#1'");
}

TEST(VerifierMessages, RedefinedParameter) {
  EXPECT_EQ(rejection(R"(
    func f(p) {
    entry:
      p#1 = 3
      ret p#1
    }
  )"),
            "function 'f': multiple definitions of 'p#1'");
}

TEST(VerifierMessages, FirstDefinitionFailureInScanOrderWins) {
  // A repeated definition before the unversioned one is reported ...
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      y#2 = 1
      jmp b
    b:
      y#2 = 2
      z = 3
      x#1 = 4
      x#1 = 5
      ret 0
    }
  )"),
            "function 'f': multiple definitions of 'y#2'");
  // ... and the unversioned one before a later repeat.
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      y#2 = 1
      jmp b
    b:
      z = 3
      y#2 = 2
      ret 0
    }
  )"),
            "function 'f': unversioned definition of 'z' in SSA-form function");
  // Among repeats, the one reached first in block order wins, whatever
  // the variable order.
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      a#1 = 1
      b#1 = 1
      jmp next
    next:
      b#1 = 2
      a#1 = 2
      ret 0
    }
  )"),
            "function 'f': multiple definitions of 'b#1'");
}

TEST(VerifierMessages, UndefinedVersion) {
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      x#1 = 1
      ret x#2
    }
  )"),
            "function 'f': use of undefined 'x#2' in block 'entry': ret x#2");
}

TEST(VerifierMessages, UndefinedParameterVersion) {
  EXPECT_EQ(rejection(R"(
    func f(p) {
    entry:
      x#1 = p#2 * 2
      ret x#1
    }
  )"),
            "function 'f': use of undefined 'p#2' in block 'entry': "
            "x#1 = p#2 * 2");
}

TEST(VerifierMessages, UndefinedPhiArgumentFromUnreachablePredecessor) {
  // Dominance does not apply to an unreachable predecessor, but the
  // version must still exist.
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      jmp join
    dead:
      jmp join
    join:
      x#2 = phi [entry: 1] [dead: x#7]
      ret x#2
    }
  )"),
            "function 'f': use of undefined 'x#7' in block 'join': "
            "x#2 = phi [entry: 1] [dead: x#7]");
}

//===----------------------------------------------------------------------===//
// SSA uses
//===----------------------------------------------------------------------===//

TEST(VerifierMessages, SameBlockUseBeforeDefinition) {
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      y#1 = x#1 + 1
      x#1 = 2
      ret y#1
    }
  )"),
            "function 'f': definition does not precede use in block 'entry': "
            "y#1 = x#1 + 1");
}

TEST(VerifierMessages, SelfUse) {
  EXPECT_EQ(rejection(R"(
    func f() {
    entry:
      x#1 = x#1 + 1
      ret x#1
    }
  )"),
            "function 'f': definition does not precede use in block 'entry': "
            "x#1 = x#1 + 1");
}

TEST(VerifierMessages, DefinitionOnOneArmDoesNotDominateJoin) {
  EXPECT_EQ(rejection(R"(
    func f(p) {
    entry:
      br p#1, then, other
    then:
      a#1 = p#1 + 1
      jmp join
    other:
      jmp join
    join:
      ret a#1
    }
  )"),
            "function 'f': definition of 'a#1' does not dominate use in "
            "block 'join': ret a#1");
}

TEST(VerifierMessages, UnreachableDefinitionDoesNotDominateReachableUse) {
  const char *Expected = "function 'f': definition of 'x#1' does not "
                         "dominate use in block 'exit': ret x#1";
  // The dead block does not reach the use ...
  EXPECT_EQ(rejection(R"(
    func f(p) {
    entry:
      jmp exit
    dead:
      x#1 = p#1 + 1
      ret x#1
    exit:
      ret x#1
    }
  )"),
            Expected);
  // ... and when it does, its edge is no path from the entry.
  EXPECT_EQ(rejection(R"(
    func f(p) {
    entry:
      jmp exit
    dead:
      x#1 = p#1 + 1
      jmp exit
    exit:
      ret x#1
    }
  )"),
            Expected);
}

TEST(VerifierMessages, PhiArgumentNotDominatedAtItsPredecessor) {
  EXPECT_EQ(rejection(R"(
    func f(p) {
    entry:
      br p#1, then, other
    then:
      jmp join
    other:
      a#2 = p#1 + 2
      jmp join
    join:
      a#3 = phi [then: a#2] [other: a#2]
      ret a#3
    }
  )"),
            "function 'f': definition of 'a#2' does not dominate use in "
            "block 'join': a#3 = phi [then: a#2] [other: a#2]");
}

TEST(VerifierMessages, LoopCarriedPhiNotDominated) {
  // The back edge comes from the latch, but the definition sits on only
  // one of the latch's two predecessors.
  EXPECT_EQ(rejection(R"(
    func f(n) {
    entry:
      jmp head
    head:
      i#2 = phi [entry: 0] [latch: i#3]
      c#1 = i#2 < n#1
      br c#1, left, right
    left:
      i#3 = i#2 + 1
      jmp latch
    right:
      jmp latch
    latch:
      br c#1, head, exit
    exit:
      ret i#2
    }
  )"),
            "function 'f': definition of 'i#3' does not dominate use in "
            "block 'head': i#2 = phi [entry: 0] [latch: i#3]");
}

//===----------------------------------------------------------------------===//
// Well-formed shapes the dominance rules accept
//===----------------------------------------------------------------------===//

TEST(VerifierAccepts, ParameterUses) {
  // In the entry before any statement, in the entry's terminator, in a
  // later block and as a phi argument.
  expectAccepted(R"(
    func f(p, q) {
    entry:
      x#1 = p#1 + q#1
      br p#1, a, join
    a:
      y#1 = q#1 * 2
      jmp join
    join:
      z#1 = phi [entry: p#1] [a: y#1]
      ret z#1
    }
  )");
}

TEST(VerifierAccepts, PhiArgumentDefinedInItsPredecessor) {
  expectAccepted(R"(
    func f(n) {
    entry:
      jmp head
    head:
      i#2 = phi [entry: 0] [body: i#3]
      c#1 = i#2 < n#1
      br c#1, body, exit
    body:
      i#3 = i#2 + 1
      jmp head
    exit:
      ret i#2
    }
  )");
}

TEST(VerifierAccepts, SelfLoopPhi) {
  // The phi's own block is the predecessor: its result is available at the
  // block's end.
  expectAccepted(R"(
    func f(n) {
    entry:
      jmp loop
    loop:
      i#2 = phi [entry: 0] [loop: i#3]
      i#3 = i#2 + 1
      c#1 = i#3 < n#1
      br c#1, loop, exit
    exit:
      ret i#3
    }
  )");
}

TEST(VerifierAccepts, UnreachableCodeIsNotHeldToDominance) {
  expectAccepted(R"(
    func f(p) {
    entry:
      x#1 = p#1 + 1
      ret x#1
    dead:
      y#1 = z#1 + 1
      z#1 = 2
      ret w#9
    }
  )");
}

TEST(VerifierAccepts, DefinitionDominatesThroughIrreducibleRegion) {
  // Two loop entries (a and b) form an irreducible cycle; only the entry's
  // definition dominates the exit, and a definition in the cycle
  // dominates nothing outside its own block.
  const char *Text = R"(
    func f(p) {
    entry:
      x#1 = p#1 + 1
      br p#1, a, b
    a:
      y#1 = x#1 + 1
      br y#1, b, exit
    b:
      br x#1, a, exit
    exit:
      ret x#1
    }
  )";
  expectAccepted(Text);
  std::string Bad = Text;
  Bad.replace(Bad.find("br x#1, a"), 9, "br y#1, a");
  EXPECT_EQ(rejection(Bad),
            "function 'f': definition of 'y#1' does not dominate use in "
            "block 'b': br y#1, a, exit");
}
