//===- tests/parser_test.cpp - Textual IR parser tests ------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "interp/Interpreter.h"

#include <gtest/gtest.h>

using namespace specpre;

TEST(Parser, SimpleFunction) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      x = a + b
      ret x
    }
  )");
  EXPECT_EQ(F.Name, "f");
  EXPECT_EQ(F.Params.size(), 2u);
  ASSERT_EQ(F.numBlocks(), 1u);
  ASSERT_EQ(F.Blocks[0].Stmts.size(), 2u);
  EXPECT_EQ(F.Blocks[0].Stmts[0].Kind, StmtKind::Compute);
  EXPECT_EQ(F.Blocks[0].Stmts[0].Op, Opcode::Add);
  std::string Error;
  EXPECT_TRUE(verifyFunction(F, Error)) << Error;
}

TEST(Parser, FlattensNestedExpressions) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b, c) {
    entry:
      x = a + b * c
      ret x
    }
  )");
  // b*c into a temp, then a + temp into x.
  ASSERT_EQ(F.Blocks[0].Stmts.size(), 3u);
  EXPECT_EQ(F.Blocks[0].Stmts[0].Op, Opcode::Mul);
  EXPECT_EQ(F.Blocks[0].Stmts[1].Op, Opcode::Add);
  EXPECT_EQ(F.varName(F.Blocks[0].Stmts[1].Dest), "x");
}

TEST(Parser, Precedence) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b, c) {
    entry:
      x = a + b == c & 1
      ret x
    }
  )");
  // Expected: ((a+b) == c) & 1 — & binds loosest of the three.
  ASSERT_EQ(F.Blocks[0].Stmts.size(), 4u);
  EXPECT_EQ(F.Blocks[0].Stmts[0].Op, Opcode::Add);
  EXPECT_EQ(F.Blocks[0].Stmts[1].Op, Opcode::CmpEq);
  EXPECT_EQ(F.Blocks[0].Stmts[2].Op, Opcode::And);
}

TEST(Parser, Parentheses) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b, c) {
    entry:
      x = (a + b) * c
      ret x
    }
  )");
  ASSERT_EQ(F.Blocks[0].Stmts.size(), 3u);
  EXPECT_EQ(F.Blocks[0].Stmts[0].Op, Opcode::Add);
  EXPECT_EQ(F.Blocks[0].Stmts[1].Op, Opcode::Mul);
}

TEST(Parser, MinMaxCalls) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      x = min(a, b) + max(a, 3)
      ret x
    }
  )");
  ASSERT_EQ(F.Blocks[0].Stmts.size(), 4u);
  EXPECT_EQ(F.Blocks[0].Stmts[0].Op, Opcode::Min);
  EXPECT_EQ(F.Blocks[0].Stmts[1].Op, Opcode::Max);
  EXPECT_EQ(F.Blocks[0].Stmts[2].Op, Opcode::Add);
}

TEST(Parser, ControlFlowAndPhis) {
  Function F = parseFunctionOrDie(R"(
    func f(p) {
    entry:
      br p > 0, then, other
    then:
      a#1 = p#1 + 1
      jmp join
    other:
      a#2 = p#1 + 2
      jmp join
    join:
      a#3 = phi [then: a#1] [other: a#2]
      ret a#3
    }
  )");
  EXPECT_TRUE(F.IsSSA);
  ASSERT_EQ(F.numBlocks(), 4u);
  const Stmt &Phi = F.Blocks[3].Stmts[0];
  ASSERT_EQ(Phi.Kind, StmtKind::Phi);
  ASSERT_EQ(Phi.PhiArgs.size(), 2u);
  EXPECT_EQ(Phi.PhiArgs[0].Pred, 1);
  EXPECT_EQ(Phi.PhiArgs[1].Pred, 2);
}

TEST(Parser, NegativeConstantsAndUnaryMinus) {
  Function F = parseFunctionOrDie(R"(
    func f(a) {
    entry:
      x = -5
      y = -a
      z = x + -3
      ret z
    }
  )");
  EXPECT_EQ(F.Blocks[0].Stmts[0].Kind, StmtKind::Copy);
  EXPECT_EQ(F.Blocks[0].Stmts[0].Src0.Value, -5);
  // -a becomes 0 - a.
  EXPECT_EQ(F.Blocks[0].Stmts[1].Kind, StmtKind::Compute);
  EXPECT_EQ(F.Blocks[0].Stmts[1].Op, Opcode::Sub);
}

TEST(Parser, CommentsIgnored) {
  Function F = parseFunctionOrDie(R"(
    // header comment
    func f(a) {  // trailing
    entry:       // label comment
      x = a + 1  // stmt comment
      ret x
    }
  )");
  EXPECT_EQ(F.Blocks[0].Stmts.size(), 2u);
}

TEST(Parser, PrintStatement) {
  Function F = parseFunctionOrDie(R"(
    func f(a) {
    entry:
      print a + 1
      ret 0
    }
  )");
  ASSERT_EQ(F.Blocks[0].Stmts.size(), 3u);
  EXPECT_EQ(F.Blocks[0].Stmts[1].Kind, StmtKind::Print);
}

TEST(Parser, ErrorsAreReported) {
  std::string Error;
  EXPECT_FALSE(parseModule("func f( {", Error).has_value());
  EXPECT_FALSE(Error.empty());

  Error.clear();
  EXPECT_FALSE(parseModule(R"(
    func f(a) {
    entry:
      jmp nowhere
    }
  )", Error).has_value());
  EXPECT_NE(Error.find("nowhere"), std::string::npos);

  Error.clear();
  EXPECT_FALSE(parseModule(R"(
    func f(a) {
    entry:
      ret a
    entry:
      ret a
    }
  )", Error).has_value());
  EXPECT_NE(Error.find("duplicate"), std::string::npos);
}

TEST(Parser, RoundTripThroughPrinter) {
  const char *Src = R"(
    func roundtrip(p, q) {
    entry:
      x = p * q + 3
      br x >= 10, big, small
    big:
      print x
      jmp done
    small:
      x = x + 1
      jmp done
    done:
      ret x
    }
  )";
  Function F1 = parseFunctionOrDie(Src);
  std::string Printed = printFunction(F1);
  Function F2 = parseFunctionOrDie(Printed);
  // Printing the reparse must be a fixpoint.
  EXPECT_EQ(printFunction(F2), Printed);
  EXPECT_EQ(F1.numBlocks(), F2.numBlocks());
}

TEST(Parser, ModuleWithTwoFunctions) {
  std::string Error;
  auto M = parseModule(R"(
    func a() {
    e:
      ret 1
    }
    func b(x) {
    e:
      ret x
    }
  )", Error);
  ASSERT_TRUE(M.has_value()) << Error;
  EXPECT_EQ(M->Functions.size(), 2u);
  EXPECT_NE(M->findFunction("a"), nullptr);
  EXPECT_NE(M->findFunction("b"), nullptr);
  EXPECT_EQ(M->findFunction("c"), nullptr);
}

TEST(Parser, ShiftAndBitwisePrecedence) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      x = a << 2 | b >> 1
      ret x
    }
  )");
  // (a << 2) | (b >> 1): shl, shr, then or.
  ASSERT_EQ(F.Blocks[0].Stmts.size(), 4u);
  EXPECT_EQ(F.Blocks[0].Stmts[0].Op, Opcode::Shl);
  EXPECT_EQ(F.Blocks[0].Stmts[1].Op, Opcode::Shr);
  EXPECT_EQ(F.Blocks[0].Stmts[2].Op, Opcode::Or);
  EXPECT_EQ(interpret(F, {3, 8}).ReturnValue, (3 << 2) | (8 >> 1));
}

TEST(Parser, DeeplyNestedParentheses) {
  Function F = parseFunctionOrDie(R"(
    func f(a) {
    entry:
      x = ((((a + 1) * 2) - 3) % 7)
      ret x
    }
  )");
  EXPECT_EQ(interpret(F, {5}).ReturnValue, ((5 + 1) * 2 - 3) % 7);
}

TEST(Parser, EmptyParamList) {
  Function F = parseFunctionOrDie(R"(
    func f() {
    entry:
      ret 42
    }
  )");
  EXPECT_TRUE(F.Params.empty());
  EXPECT_EQ(interpret(F, {}).ReturnValue, 42);
}

TEST(Parser, BranchConditionCanBeExpression) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      br a * b > 10, big, small
    big:
      ret 1
    small:
      ret 0
    }
  )");
  EXPECT_EQ(interpret(F, {3, 4}).ReturnValue, 1);
  EXPECT_EQ(interpret(F, {3, 3}).ReturnValue, 0);
}

TEST(Parser, RejectsVersionOnKeywordStatements) {
  std::string Error;
  EXPECT_FALSE(parseModule(R"(
    func f(a) {
    entry:
      ret
    }
  )", Error).has_value());
}

TEST(Parser, RejectsMissingTerminatorContentGracefully) {
  std::string Error;
  // A block that ends the function without a terminator parses but then
  // fails verification, not parsing; the parser itself reports only
  // syntax issues.
  auto M = parseModule(R"(
    func f(a) {
    entry:
      x = a + 1
    }
  )", Error);
  ASSERT_TRUE(M.has_value()) << Error;
  std::string VerifyError;
  EXPECT_FALSE(verifyFunction(M->Functions[0], VerifyError));
}

TEST(Parser, FreshTemporariesSkipDeclaredNames) {
  // The source already holds t$, t$.0 and t$.2, so the temporaries the
  // nested expression materializes take the free suffixes in order.
  Function F = parseFunctionOrDie(R"(
    func f(a, b) {
    entry:
      t$ = a
      t$.0 = b
      t$.2 = 7
      x = (a + b) * (a - b) + (t$ + t$.0) * t$.2
      ret x
    }
  )");
  std::vector<std::string> Expected = {"a",    "b",    "t$",   "t$.0",
                                       "t$.2", "x",    "t$.1", "t$.3",
                                       "t$.4", "t$.5", "t$.6", "t$.7"};
  EXPECT_EQ(F.VarNames, Expected);
  EXPECT_EQ(interpret(F, {5, 3}).ReturnValue, (5 + 3) * (5 - 3) + (5 + 3) * 7);
  // Later fresh names keep counting from where the parser left off.
  EXPECT_EQ(F.varName(F.makeFreshVar("t$")), "t$.8");
  EXPECT_EQ(F.varName(F.makeFreshVar("x")), "x.0");
}
