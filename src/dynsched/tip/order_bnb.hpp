// Combinatorial branch & bound over start orders (second optimal solver).
//
// For the quasi-offline instances, any schedule is dominated by the
// earliest-fit placement of some job order (insert jobs by ascending start;
// see tests/support/exact_oracle.hpp), so searching the n! orders finds the
// true optimum of the width-weighted response time at full second precision
// — no time-indexed grid, no time-scaling. This solver searches that order
// space with DFS, an admissible per-job earliest-fit lower bound, symmetry
// breaking among identical jobs, and a policy-schedule incumbent. It
// cross-validates the time-indexed MIP (dynsched::mip) and handles mid-size
// instances (~12-18 jobs) that exhaustive enumeration cannot.
#pragma once

#include "dynsched/core/schedule.hpp"
#include "dynsched/util/budget.hpp"

namespace dynsched::tip {

struct TipInstance;  // read by reference; the .cpp includes tim_model

struct OrderBnbOptions {
  long maxNodes = 20'000'000;
  double timeLimitSeconds = 60.0;
  /// Shared cooperative cancellation point (non-owning; may be null),
  /// polled once per search node alongside the local limits.
  util::CancelToken* cancel = nullptr;
};

struct OrderBnbResult {
  core::Schedule schedule;   ///< best schedule found
  double objective = 0;      ///< Σ (start − submit + d) · w of `schedule`
  bool optimal = false;      ///< search completed without hitting limits
  long nodes = 0;
  double seconds = 0;
};

/// Minimizes the total width-weighted response time (the paper's Eq. 2
/// objective) over all start orders. `instance.horizon` and
/// `instance.timeScale` are ignored — the search runs at second precision.
OrderBnbResult solveByOrderBnb(const TipInstance& instance,
                               const OrderBnbOptions& options = {});

}  // namespace dynsched::tip
