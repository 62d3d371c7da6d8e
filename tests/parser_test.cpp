//===- tests/parser_test.cpp - Textual IR parser tests ------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "interp/Interpreter.h"
#include "ssa/SsaConstruction.h"
#include "support/Status.h"

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

// A source reference to a temporary's name must not bind to the
// temporary: `t$` is never assigned here, so it is an undefined variable
// exactly like `y` would be, and SSA construction rejects it.
TEST(Parser, SourceUseNeverBindsToTemporary) {
  const char *Src = R"(
    func f(a, b, c) {
    entry:
      x = (a + b) * c
      print t$
      ret x
    }
  )";
  Function F = parseFunctionOrDie(Src);
  // The outer product's temporary is retargeted onto x but keeps its id.
  std::vector<std::string> Expected = {"a",    "b",    "c", "x",
                                       "t$.0", "t$.1", "t$"};
  EXPECT_EQ(F.VarNames, Expected);
  const Stmt &Temp = F.Blocks[0].Stmts[0];
  const Stmt &Print = F.Blocks[0].Stmts[2];
  ASSERT_EQ(Print.Kind, StmtKind::Print);
  EXPECT_NE(Print.Src0.Var, Temp.Dest);
  try {
    constructSsa(F);
    FAIL() << "use of the never-assigned 't$' was accepted";
  } catch (const StatusException &E) {
    EXPECT_EQ(E.status().code(), ErrorCode::InvalidInput);
    EXPECT_NE(E.status().message().find("undefined variable 't$'"),
              std::string::npos)
        << E.status().message();
  }

  // The printed (flat) function reparses to the same text.
  std::string Printed = printFunction(parseFunctionOrDie(Src));
  EXPECT_EQ(printFunction(parseFunctionOrDie(Printed)), Printed);
}

// A source assignment to `t$` after a nested expression defines the
// source variable, not the temporary the expression materialized.
TEST(Parser, SourceAssignmentAfterTemporaryIsDistinct) {
  Function F = parseFunctionOrDie(R"(
    func f(a, b, c) {
    entry:
      x = (a + b) * c
      t$ = x + 1
      y = (a - b) * t$
      ret y
    }
  )");
  std::vector<std::string> Expected = {"a",    "b",    "c", "x",
                                       "t$.0", "t$.1", "t$", "t$.2",
                                       "y",    "t$.3", "t$.4"};
  EXPECT_EQ(F.VarNames, Expected);
  EXPECT_NE(F.Blocks[0].Stmts[0].Dest, F.Blocks[0].Stmts[2].Dest);
  EXPECT_EQ(interpret(F, {5, 3, 2}).ReturnValue,
            (5 - 3) * ((5 + 3) * 2 + 1));
  std::string Error;
  EXPECT_TRUE(verifyFunction(F, Error)) << Error;
}

namespace {

/// `x = <Depth opening parens>a<Depth closing parens>` in a one-block
/// function.
std::string nestedParens(unsigned Depth) {
  return "func f(a) {\nentry:\n  x = " + std::string(Depth, '(') + "a" +
         std::string(Depth, ')') + "\n  ret x\n}\n";
}

} // namespace

// Expression nesting is capped at 1000 levels, so no input can recurse
// the parser off its stack; past the cap is a located parse error.
TEST(Parser, ExpressionNestingAtCapParses) {
  std::string Error;
  std::optional<Module> M = parseModule(nestedParens(1000), Error);
  ASSERT_TRUE(M.has_value()) << Error;
  EXPECT_EQ(interpret(M->Functions.front(), {7}).ReturnValue, 7);

  std::string Minus = "func f(a) {\nentry:\n  x = " + std::string(1000, '-') +
                      "a\n  ret x\n}\n";
  M = parseModule(Minus, Error);
  ASSERT_TRUE(M.has_value()) << Error;
  EXPECT_EQ(interpret(M->Functions.front(), {7}).ReturnValue, 7);
}

TEST(Parser, ExpressionNestingPastCapIsAParseError) {
  std::string Error;
  EXPECT_FALSE(parseModule(nestedParens(1001), Error).has_value());
  // "  x = " is six columns; the 1001st '(' is at column 7 + 1000.
  EXPECT_EQ(Error, "line 3, col 1007: expression nesting exceeds 1000 levels");

  Error.clear();
  std::string Minus = "func f(a) {\nentry:\n  x = " + std::string(1001, '-') +
                      "a\n  ret x\n}\n";
  EXPECT_FALSE(parseModule(Minus, Error).has_value());
  // A minus opens its level at the operand that follows it.
  EXPECT_EQ(Error, "line 3, col 1008: expression nesting exceeds 1000 levels");

  // Far past the cap (the size that used to overflow the stack) is the
  // same error at the same place.
  Error.clear();
  EXPECT_FALSE(parseModule(nestedParens(20000), Error).has_value());
  EXPECT_EQ(Error, "line 3, col 1007: expression nesting exceeds 1000 levels");
}
