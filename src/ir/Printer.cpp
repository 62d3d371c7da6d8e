//===- ir/Printer.cpp - Textual IR printer ---------------------------------===//

#include "ir/Printer.h"

#include "support/Diagnostics.h"

#include <sstream>

using namespace specpre;

// Ill-formed IR (an out-of-range variable or block id) still prints, so
// the verifier can quote the statement it rejects.
static std::string varText(const Function &F, VarId V) {
  if (V < 0 || V >= static_cast<VarId>(F.numVars()))
    return "<invalid var " + std::to_string(V) + ">";
  return F.varName(V);
}

static std::string blockText(const Function &F, BlockId B) {
  if (B < 0 || B >= static_cast<BlockId>(F.numBlocks()))
    return "<invalid block " + std::to_string(B) + ">";
  return F.Blocks[B].Label;
}

std::string specpre::printOperand(const Function &F, const Operand &O) {
  if (O.isConst())
    return std::to_string(O.Value);
  std::string S = varText(F, O.Var);
  if (O.Version > 0)
    S += "#" + std::to_string(O.Version);
  return S;
}

static std::string printDest(const Function &F, const Stmt &S) {
  std::string D = varText(F, S.Dest);
  if (S.DestVersion > 0)
    D += "#" + std::to_string(S.DestVersion);
  return D;
}

std::string specpre::printStmt(const Function &F, const Stmt &S) {
  std::ostringstream OS;
  switch (S.Kind) {
  case StmtKind::Copy:
    OS << printDest(F, S) << " = " << printOperand(F, S.Src0);
    break;
  case StmtKind::Compute: {
    const char *Sp = opcodeSpelling(S.Op);
    if (S.Op == Opcode::Min || S.Op == Opcode::Max)
      OS << printDest(F, S) << " = " << Sp << "(" << printOperand(F, S.Src0)
         << ", " << printOperand(F, S.Src1) << ")";
    else
      OS << printDest(F, S) << " = " << printOperand(F, S.Src0) << " " << Sp
         << " " << printOperand(F, S.Src1);
    break;
  }
  case StmtKind::Phi:
    OS << printDest(F, S) << " = phi";
    for (const PhiArg &A : S.PhiArgs)
      OS << " [" << blockText(F, A.Pred) << ": " << printOperand(F, A.Val)
         << "]";
    break;
  case StmtKind::Branch:
    OS << "br " << printOperand(F, S.Src0) << ", "
       << blockText(F, S.TrueTarget) << ", "
       << blockText(F, S.FalseTarget);
    break;
  case StmtKind::Jump:
    OS << "jmp " << blockText(F, S.TrueTarget);
    break;
  case StmtKind::Ret:
    OS << "ret " << printOperand(F, S.Src0);
    break;
  case StmtKind::Print:
    OS << "print " << printOperand(F, S.Src0);
    break;
  }
  return OS.str();
}

std::string specpre::printFunction(const Function &F) {
  std::ostringstream OS;
  OS << "func " << F.Name << "(";
  for (unsigned I = 0; I != F.Params.size(); ++I) {
    if (I != 0)
      OS << ", ";
    OS << varText(F, F.Params[I]);
  }
  OS << ") {\n";
  for (const BasicBlock &BB : F.Blocks) {
    OS << BB.Label << ":\n";
    for (const Stmt &S : BB.Stmts)
      OS << "  " << printStmt(F, S) << "\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string specpre::printModule(const Module &M) {
  std::string Out;
  for (const Function &F : M.Functions) {
    Out += printFunction(F);
    Out += "\n";
  }
  return Out;
}
