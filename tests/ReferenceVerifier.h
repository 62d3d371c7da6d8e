//===- tests/ReferenceVerifier.h - Naive reference IR verifier -*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A test-only copy of the original naive-dominance verifier, used as the
/// differential oracle for ir/Verifier.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_TESTS_REFERENCEVERIFIER_H
#define SPECPRE_TESTS_REFERENCEVERIFIER_H

#include "ir/Ir.h"

#include <string>

namespace specpre {

/// Same contract as verifyFunction: true when well-formed, otherwise
/// false with the message in \p Error. Cost is O(uses x blocks).
bool referenceVerifyFunction(const Function &F, std::string &Error);

} // namespace specpre

#endif // SPECPRE_TESTS_REFERENCEVERIFIER_H
