//===- support/Budget.h - Per-function compile budgets ---------*- C++ -*-===//
//
// Part of the MC-SSAPRE reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets for one function's compilation, so adversarial or
/// pathological inputs degrade (down the PreDriver ladder) instead of
/// hanging or exhausting memory:
///
///  * a wall-clock deadline, checked at pass boundaries and inside the
///    max-flow augmentation loops (the only super-linear hot spot);
///  * a cap on max-flow augmentation steps (Edmonds-Karp rounds / Dinic
///    level-graph phases × DFS pushes), the knob that bounds min-cut
///    work independently of clock resolution;
///  * a cap on FRG/EFG node counts, bounding memory for degenerate
///    functions with enormous redundancy graphs.
///
/// The budget is installed with a BudgetScope around the per-function
/// pipeline; deep code asks `currentBudget()` and throws a
/// StatusException(BudgetExhausted) when a limit trips, which the
/// degradation ladder converts into a retry on a cheaper strategy. Each
/// function's compile installs its own tracker on the thread that runs
/// it (compileWithPre, one per ladder rung).
///
//===----------------------------------------------------------------------===//

#ifndef SPECPRE_SUPPORT_BUDGET_H
#define SPECPRE_SUPPORT_BUDGET_H

#include "support/Status.h"

#include <atomic>
#include <chrono>
#include <cstdint>

namespace specpre {

/// Limits for one function's compilation; 0 means unlimited.
struct CompileBudget {
  uint64_t DeadlineMillis = 0;        ///< Wall-clock deadline.
  uint64_t MaxFlowAugmentations = 0;  ///< Augmentation-step cap.
  uint64_t MaxGraphNodes = 0;         ///< FRG occurrence / EFG node cap.

  bool unlimited() const {
    return !DeadlineMillis && !MaxFlowAugmentations && !MaxGraphNodes;
  }
};

/// Mutable accounting of a budget over one function compile (or one
/// ladder rung). Each compileWithPre call owns one and installs it for
/// the thread that runs the function; parallel drivers fan out whole
/// functions, so no tracker is shared between threads.
class BudgetTracker {
public:
  explicit BudgetTracker(const CompileBudget &Limits);

  const CompileBudget &limits() const { return Limits; }

  /// Restarts the clock and counters (a fresh ladder rung gets the full
  /// budget again, so a cheap fallback is not starved by the expensive
  /// attempt that preceded it).
  void reset();

  /// Deadline check; cheap enough for pass boundaries, too expensive for
  /// per-edge loops (those use checkAugmentation's sampling).
  Status checkDeadline(const char *Where) const;

  /// Counts one augmentation step and samples the deadline every 1024
  /// steps. Returns an error once the cap or deadline trips.
  Status noteAugmentation(const char *Where);

  /// Checks a graph size against MaxGraphNodes.
  Status checkGraphNodes(uint64_t Nodes, const char *Where) const;

  uint64_t augmentationsUsed() const {
    return Augmentations.load(std::memory_order_relaxed);
  }

private:
  CompileBudget Limits;
  std::chrono::steady_clock::time_point Start;
  std::atomic<uint64_t> Augmentations{0};
};

/// Installs \p T as the calling thread's budget for the scope; nesting
/// restores the previous tracker. Pass nullptr to suspend budgeting.
class BudgetScope {
public:
  explicit BudgetScope(BudgetTracker *T);
  ~BudgetScope();

  BudgetScope(const BudgetScope &) = delete;
  BudgetScope &operator=(const BudgetScope &) = delete;

private:
  BudgetTracker *Prev;
};

/// The tracker installed by the innermost BudgetScope on this thread, or
/// null when compilation is unbudgeted.
BudgetTracker *currentBudget();

/// Convenience used by deep pipeline code: if a budget is installed and
/// \p S is an error, throw it as a StatusException (caught by the
/// degradation ladder at the function boundary).
void throwIfError(const Status &S);

} // namespace specpre

#endif // SPECPRE_SUPPORT_BUDGET_H
