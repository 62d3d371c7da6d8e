//===- pre/ExprKey.h - Lexical expression identification -------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lexical identification of PRE candidate expressions. Two Compute
/// statements are occurrences of the same expression when they apply the
/// same operation to the same variables or constants *before* SSA
/// versioning (paper footnote 1).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_PRE_EXPRKEY_H
#define SPECPRE_PRE_EXPRKEY_H

#include "ir/Ir.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace specpre {

/// One side of a candidate expression: a base variable (version ignored)
/// or a constant.
struct OperandKey {
  bool IsConst = false;
  int64_t Const = 0;
  VarId Var = InvalidVar;

  static OperandKey of(const Operand &O) {
    OperandKey K;
    K.IsConst = O.isConst();
    if (K.IsConst)
      K.Const = O.Value;
    else
      K.Var = O.Var;
    return K;
  }

  bool matches(const Operand &O) const {
    if (O.isConst())
      return IsConst && Const == O.Value;
    return !IsConst && Var == O.Var;
  }

  auto operator<=>(const OperandKey &) const = default;
};

/// A lexically identified expression `L Op R`.
struct ExprKey {
  Opcode Op = Opcode::Add;
  OperandKey L, R;

  /// True if \p S is a real occurrence of this expression.
  bool matches(const Stmt &S) const {
    return S.Kind == StmtKind::Compute && S.Op == Op && L.matches(S.Src0) &&
           R.matches(S.Src1);
  }

  /// True if redefining \p V changes the expression's value.
  bool dependsOnVar(VarId V) const {
    return (!L.IsConst && L.Var == V) || (!R.IsConst && R.Var == V);
  }

  bool canFault() const { return opcodeCanFault(Op); }

  std::string toString(const Function &F) const;

  auto operator<=>(const ExprKey &) const = default;
};

/// Hash lookup from a lexical expression to its index in a candidate
/// list: one probe per statement instead of one matches() test per
/// candidate.
class ExprKeyIndex {
public:
  /// Index of \p K, or -1.
  int find(const ExprKey &K) const {
    auto It = Map.find(K);
    return It == Map.end() ? -1 : static_cast<int>(It->second);
  }

  /// Index of the expression \p S is a real occurrence of, or -1.
  int find(const Stmt &S) const {
    if (S.Kind != StmtKind::Compute)
      return -1;
    return find(ExprKey{S.Op, OperandKey::of(S.Src0), OperandKey::of(S.Src1)});
  }

  /// Maps \p K to \p Index unless \p K is already present; returns
  /// whether it was inserted.
  bool insert(const ExprKey &K, unsigned Index) {
    return Map.emplace(K, Index).second;
  }

private:
  struct Hash {
    size_t operator()(const ExprKey &K) const;
  };
  std::unordered_map<ExprKey, unsigned, Hash> Map;
};

/// Collects every candidate expression of \p F in a deterministic order
/// (first occurrence order). Expressions whose operands are both constants
/// are skipped — they belong to constant folding, not PRE.
std::vector<ExprKey> collectCandidateExprs(const Function &F);

} // namespace specpre

#endif // SPECPRE_PRE_EXPRKEY_H
