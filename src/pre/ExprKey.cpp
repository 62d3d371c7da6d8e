//===- pre/ExprKey.cpp - Lexical expression identification ------------------===//

#include "pre/ExprKey.h"


using namespace specpre;

std::string ExprKey::toString(const Function &F) const {
  auto Side = [&](const OperandKey &K) {
    return K.IsConst ? std::to_string(K.Const) : F.varName(K.Var);
  };
  return Side(L) + " " + opcodeSpelling(Op) + " " + Side(R);
}

size_t ExprKeyIndex::Hash::operator()(const ExprKey &K) const {
  auto Side = [](const OperandKey &O) {
    return O.IsConst ? static_cast<uint64_t>(O.Const) * 0x9E3779B97F4A7C15ull
                     : static_cast<uint64_t>(O.Var) + 0x632BE59BD9B4E019ull;
  };
  uint64_t H = Side(K.L) ^ (Side(K.R) * 0xBF58476D1CE4E5B9ull);
  H ^= static_cast<uint64_t>(K.Op) * 0x94D049BB133111EBull;
  return static_cast<size_t>(H ^ (H >> 31));
}

std::vector<ExprKey> specpre::collectCandidateExprs(const Function &F) {
  std::vector<ExprKey> Keys;
  ExprKeyIndex Seen;
  for (const BasicBlock &BB : F.Blocks) {
    for (const Stmt &S : BB.Stmts) {
      if (S.Kind != StmtKind::Compute)
        continue;
      if (S.Src0.isConst() && S.Src1.isConst())
        continue; // constant folding territory
      ExprKey K;
      K.Op = S.Op;
      K.L = OperandKey::of(S.Src0);
      K.R = OperandKey::of(S.Src1);
      if (Seen.insert(K, static_cast<unsigned>(Keys.size())))
        Keys.push_back(K);
    }
  }
  return Keys;
}
