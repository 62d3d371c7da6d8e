//===- tests/ReferenceFrg.h - Unpruned reference FRG builder ---*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A test-only copy of the original FRG front half, used as the
/// differential oracle for the pruned Φ-insertion and the sparse Rename
/// of pre/Frg.cpp and pre/FrgRename.cpp: a Φ at every reachable join
/// block in the DF+ of the seeds, and a Rename that walks the whole
/// dominator tree with one version stack per variable.
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_TESTS_REFERENCEFRG_H
#define SPECPRE_TESTS_REFERENCEFRG_H

#include "pre/Frg.h"

namespace specpre {

/// The unpruned FRG of candidate \p ExprIdx of \p Ctx, built against the
/// function as it stands now. Cost is O(blocks + variables) per
/// candidate plus the whole DF+.
Frg buildReferenceFrg(const FrgContext &Ctx, unsigned ExprIdx);

} // namespace specpre

#endif // SPECPRE_TESTS_REFERENCEFRG_H
