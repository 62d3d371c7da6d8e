//===- ir/Ir.h - Mid-level three-address IR --------------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mid-level IR the PRE algorithms operate on. A Module holds
/// Functions; a Function holds BasicBlocks of three-address statements over
/// 64-bit integer values. Variables are function-local and identified by a
/// dense VarId; in SSA form every definition carries a version number and
/// control-flow merges are expressed with phi statements.
///
/// The design intentionally mirrors the representation assumed by SSAPRE
/// (Kennedy et al., TOPLAS 1999) and MC-SSAPRE (Zhou, Chen, Chow, PLDI
/// 2011): PRE candidates are first-order binary expressions "a op b".
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_IR_IR_H
#define SPECPRE_IR_IR_H

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specpre {

/// Dense index of a function-local variable.
using VarId = int;
/// Dense index of a basic block within its function. Block 0 is the entry.
using BlockId = int;

constexpr VarId InvalidVar = -1;
constexpr BlockId InvalidBlock = -1;

//===----------------------------------------------------------------------===//
// Opcodes
//===----------------------------------------------------------------------===//

/// Binary operators of Compute statements.
enum class Opcode {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Min,
  Max,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
};

constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::CmpGe) + 1;

/// Returns the textual spelling used by the parser/printer ("+", "min", ...).
const char *opcodeSpelling(Opcode Op);

/// Returns true if evaluating the operator can fault at run time (division
/// or remainder by zero). Faulting operators must never be speculated
/// (paper Section 2).
bool opcodeCanFault(Opcode Op);

/// Evaluates the operator on two values. For Div/Mod with a zero right
/// operand, sets \p Faulted and returns 0; shifts are masked to 0..63.
int64_t evalOpcode(Opcode Op, int64_t L, int64_t R, bool &Faulted);

//===----------------------------------------------------------------------===//
// Operand
//===----------------------------------------------------------------------===//

/// A value operand: an integer literal or a variable reference. In SSA form
/// variable references carry the version of the reaching definition
/// (versions start at 1); version 0 means "not in SSA form".
struct Operand {
  enum class Kind : uint8_t { Const, Var };

  Kind K = Kind::Const;
  int64_t Value = 0;   ///< Literal value when K == Const.
  VarId Var = InvalidVar;
  int Version = 0;     ///< SSA version when K == Var; 0 outside SSA form.

  static Operand makeConst(int64_t V) {
    Operand O;
    O.K = Kind::Const;
    O.Value = V;
    return O;
  }

  static Operand makeVar(VarId V, int Version = 0) {
    Operand O;
    O.K = Kind::Var;
    O.Var = V;
    O.Version = Version;
    return O;
  }

  bool isConst() const { return K == Kind::Const; }
  bool isVar() const { return K == Kind::Var; }

  bool operator==(const Operand &Other) const {
    if (K != Other.K)
      return false;
    if (isConst())
      return Value == Other.Value;
    return Var == Other.Var && Version == Other.Version;
  }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Copy,    ///< Dest = Src0
  Compute, ///< Dest = Src0 Op Src1        (the PRE candidates)
  Phi,     ///< Dest = phi(PhiArgs...)     (must lead its block)
  Branch,  ///< if Src0 != 0 goto TrueTarget else FalseTarget (terminator)
  Jump,    ///< goto TrueTarget            (terminator)
  Ret,     ///< return Src0                (terminator)
  Print,   ///< observable output of Src0 (never moved by any optimization)
};

/// One incoming value of a phi statement, keyed by predecessor block so the
/// association survives CFG edits such as critical-edge splitting.
struct PhiArg {
  BlockId Pred = InvalidBlock;
  Operand Val;
};

/// A single three-address statement. One struct covers all kinds; the
/// active fields are determined by Kind (see StmtKind).
struct Stmt {
  StmtKind Kind = StmtKind::Copy;

  VarId Dest = InvalidVar; ///< Defined variable (Copy/Compute/Phi).
  int DestVersion = 0;     ///< SSA version of the definition.

  Opcode Op = Opcode::Add; ///< Compute only.
  Operand Src0;            ///< Copy/Compute/Branch/Ret/Print.
  Operand Src1;            ///< Compute only.

  std::vector<PhiArg> PhiArgs; ///< Phi only.

  BlockId TrueTarget = InvalidBlock;  ///< Branch/Jump.
  BlockId FalseTarget = InvalidBlock; ///< Branch only.

  bool isTerminator() const {
    return Kind == StmtKind::Branch || Kind == StmtKind::Jump ||
           Kind == StmtKind::Ret;
  }
  bool definesValue() const {
    return Kind == StmtKind::Copy || Kind == StmtKind::Compute ||
           Kind == StmtKind::Phi;
  }

  static Stmt makeCopy(VarId Dest, Operand Src, int DestVersion = 0);
  static Stmt makeCompute(VarId Dest, Opcode Op, Operand L, Operand R,
                          int DestVersion = 0);
  static Stmt makePhi(VarId Dest, std::vector<PhiArg> Args,
                      int DestVersion = 0);
  static Stmt makeBranch(Operand Cond, BlockId TrueTarget,
                         BlockId FalseTarget);
  static Stmt makeJump(BlockId Target);
  static Stmt makeRet(Operand Val);
  static Stmt makePrint(Operand Val);

  /// Finds the incoming phi value for predecessor \p Pred; asserts if the
  /// statement is not a phi or has no entry for that predecessor.
  const Operand &phiArgForPred(BlockId Pred) const;
  Operand &phiArgForPred(BlockId Pred);
};

//===----------------------------------------------------------------------===//
// BasicBlock / Function / Module
//===----------------------------------------------------------------------===//

/// A basic block: zero or more phis, then straight-line statements, then
/// exactly one terminator.
struct BasicBlock {
  std::string Label;
  std::vector<Stmt> Stmts;

  /// Returns the index of the first non-phi statement.
  unsigned firstNonPhiIdx() const {
    unsigned I = 0;
    while (I < Stmts.size() && Stmts[I].Kind == StmtKind::Phi)
      ++I;
    return I;
  }

  const Stmt &terminator() const {
    assert(!Stmts.empty() && Stmts.back().isTerminator() &&
           "block has no terminator");
    return Stmts.back();
  }
  Stmt &terminator() {
    assert(!Stmts.empty() && Stmts.back().isTerminator() &&
           "block has no terminator");
    return Stmts.back();
  }

  /// Appends the successor block ids of this block's terminator (in branch
  /// order: true target first) to \p Out.
  void appendSuccessors(std::vector<BlockId> &Out) const;
};

/// A function: parameters, a variable table, and basic blocks. Block 0 is
/// the entry block.
class Function {
public:
  std::string Name;
  std::vector<std::string> VarNames; ///< VarId -> source-level name.
  std::vector<VarId> Params;         ///< Parameter variables, in order.
  std::vector<BasicBlock> Blocks;
  bool IsSSA = false;

  /// Returns the variable named \p Name, creating it if necessary.
  VarId getOrAddVar(const std::string &VarName);

  /// Returns the variable named \p Name or InvalidVar.
  VarId findVar(const std::string &VarName) const;

  /// Creates a fresh variable whose name starts with \p Hint and does not
  /// collide with any existing variable.
  VarId makeFreshVar(const std::string &Hint);

  unsigned numVars() const { return static_cast<unsigned>(VarNames.size()); }
  unsigned numBlocks() const { return static_cast<unsigned>(Blocks.size()); }

  BlockId addBlock(const std::string &Label);

  const std::string &varName(VarId V) const {
    assert(V >= 0 && V < static_cast<VarId>(VarNames.size()));
    return VarNames[V];
  }

private:
  /// Catches the index up with names appended to VarNames since the last
  /// lookup.
  void syncVarIndex() const;

  /// Lazily-grown name -> id index behind findVar. Without it the parser
  /// is super-linear: every materialized temporary probes makeFreshVar's
  /// candidate names with a full linear scan of the table. Entries are
  /// only ever appended to VarNames (never renamed or removed), so
  /// growing the index incrementally keeps it exact; emplace preserves
  /// findVar's first-match semantics should a duplicate ever appear.
  mutable std::map<std::string, VarId> VarIndex;
  mutable unsigned IndexedVars = 0;

  /// Per-hint next suffix for makeFreshVar, so a run of fresh names with
  /// one hint (the parser's "t$" temporaries) costs amortized O(1) probes
  /// instead of re-probing "hint.0", "hint.1", ... from zero.
  std::map<std::string, unsigned> FreshSuffix;
};

/// A translation unit: a list of functions.
class Module {
public:
  std::vector<Function> Functions;

  Function *findFunction(const std::string &Name);
  const Function *findFunction(const std::string &Name) const;
};

} // namespace specpre

#endif // SPECPRE_IR_IR_H
