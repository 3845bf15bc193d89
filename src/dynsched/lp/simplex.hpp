// Bounded-variable primal simplex (revised form, dense basis inverse).
//
// Handles general range rows and variable bounds. Infeasibility is resolved
// by a classical two-phase start with one artificial variable per row: the
// crash basis keeps a row's slack basic where the starting point satisfies
// the row and lets a signed artificial carry the residual where it does not;
// phase 1 minimizes the sum of the artificials, phase 2 the objective, and
// the same pivoting machinery drives both phases. Degeneracy falls back to
// Bland's rule after a run of non-improving pivots.
//
// This solver plays the role of the LP engine inside the branch-and-bound
// "CPLEX substitute" (dynsched::mip); see DESIGN.md, substitutions.
#pragma once

#include <string>
#include <vector>

#include "dynsched/lp/model.hpp"

namespace dynsched::util {
class CancelToken;
}  // namespace dynsched::util

namespace dynsched::lp {

enum class LpStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  NumericalFailure,
  Cancelled,  ///< a CancelToken stopped the solve (budget/deadline/fault)
};

const char* lpStatusName(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::NumericalFailure;
  double objective = 0;
  std::vector<double> x;            ///< structural variable values
  std::vector<double> rowActivity;  ///< A x per row
  std::vector<double> duals;        ///< dual values per row (phase-2 y)
  long iterations = 0;
  long refactorizations = 0;

  bool optimal() const { return status == LpStatus::Optimal; }
};

/// Solves `model` (minimization). The model is not modified. A solve that
/// needs more than 200,000 pivots stops with IterationLimit.
///
/// `cancel` is a cooperative cancellation point, polled at every iteration
/// so a shared deadline is honored with at most one iteration of overshoot
/// (and so a degenerate node LP inside branch & bound cannot overrun the
/// step budget). Non-owning; may be null.
LpSolution solveLp(const LpModel& model, util::CancelToken* cancel = nullptr);

}  // namespace dynsched::lp
