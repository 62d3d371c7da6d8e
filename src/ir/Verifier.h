//===- ir/Verifier.h - IR well-formedness checks ---------------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and SSA well-formedness verification. The verifier is
/// deliberately self-contained so it can serve as an independent oracle
/// against the analyses in src/analysis: it computes reachability itself
/// and builds its own dominator tree once per call, with the simple
/// Lengauer-Tarjan algorithm rather than src/analysis/DomTree's
/// Cooper-Harvey-Kennedy iteration. One call is near-linear in function
/// size. The original naive-dominance verifier (one reachability search
/// per use) is kept test-only, as tests/ReferenceVerifier.cpp, and a
/// differential test holds the two to the same verdict and message.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_IR_VERIFIER_H
#define SPECPRE_IR_VERIFIER_H

#include "ir/Ir.h"

#include <string>

namespace specpre {

/// Checks structural invariants (terminators, phi placement, target and
/// operand validity, phi/pred agreement, entry has no predecessors) and,
/// when F.IsSSA, SSA invariants (unique versioned defs, defs dominate
/// uses). Returns true when well-formed; otherwise false with a message in
/// \p Error.
bool verifyFunction(const Function &F, std::string &Error);

/// Verifies and aborts with the message on failure. For tests/examples.
void verifyFunctionOrDie(const Function &F, const std::string &Context);

} // namespace specpre

#endif // SPECPRE_IR_VERIFIER_H
