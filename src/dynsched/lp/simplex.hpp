// Bounded-variable simplex (revised form, dense basis inverse).
//
// Handles general range rows and variable bounds. A cold solve is a primal
// simplex with a classical two-phase start and one artificial variable per
// row: the crash basis keeps a row's slack basic where the starting point
// satisfies the row and lets a signed artificial carry the residual where it
// does not; phase 1 minimizes the sum of the artificials, phase 2 the
// objective, and the same pivoting machinery drives both phases. Degeneracy
// falls back to Bland's rule after a run of non-improving pivots.
//
// A solve may instead start from a basis an earlier solve returned (basis
// reuse, the dual re-solve). Branch & bound passes each node its parent's
// optimal basis: a child differs from its parent only in column bounds and
// in rows appended since (root cuts), so the basis stays dual feasible and
// a bounded dual simplex restores primal feasibility in a few pivots. Each
// dual pivot takes the basic variable with the largest bound violation out
// and picks the entering column by a two-pass (Harris) dual ratio test.
// Whenever the start cannot be used the same model is solved cold.
//
// An optimal basis leaves with its factorization (LpBasis::inverse, moved
// out of the solver, not copied). A start that brings its inverse for the
// same rows skips the O(m³) refactorization and continues the product-form
// update count; a start without one, a start taken before rows were
// appended, or one due for its 120-update refresh is refactorized first.
//
// This solver plays the role of the LP engine inside the branch-and-bound
// "CPLEX substitute" (dynsched::mip); see DESIGN.md, substitutions.
#pragma once

#include <cstdint>
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

/// Where a variable sits relative to the basis.
enum class VarStatus : std::uint8_t { Basic, AtLower, AtUpper, Free };

/// A simplex basis. Variables are numbered as columns [0, n) followed by
/// one slack per row [n, n + rows): slack r carries row r's activity
/// (A x − s = 0) within the row's bounds.
struct LpBasis {
  std::vector<int> basic;         ///< per row: the basic variable
  std::vector<VarStatus> status;  ///< per column, then per row slack
  /// B^{-1} of the `basic` columns, row-major with rows in `basic` order,
  /// as the solve that returned the basis left it; empty when not carried
  /// (a start without it is refactorized). Only valid together with
  /// `basic` and the model's matrix it was taken from: callers may drop
  /// it, never edit it.
  std::vector<double> inverse;
  /// Product-form updates applied to `inverse` since its last
  /// refactorization.
  int updates = 0;

  /// Column count of the model the basis was taken from.
  int columns() const {
    return static_cast<int>(status.size()) - static_cast<int>(basic.size());
  }
};

struct LpSolution {
  LpStatus status = LpStatus::NumericalFailure;
  double objective = 0;
  std::vector<double> x;            ///< structural variable values
  std::vector<double> rowActivity;  ///< A x per row
  std::vector<double> duals;        ///< dual values per row (phase-2 y)
  long iterations = 0;
  /// Basis factorizations the solve ran, whatever its status (a start
  /// that carried its inverse needs none).
  long refactorizations = 0;
  /// The optimal basis with its inverse (Optimal only). Left empty for a
  /// model without rows and when an artificial variable is still basic,
  /// which no later solve can start from.
  LpBasis basis;
  /// A start basis was passed but could not be used (wrong size, singular,
  /// not dual feasible, or the dual re-solve broke down), so the model was
  /// solved cold. `iterations` counts the pivots of both attempts.
  bool coldFallback = false;

  bool optimal() const { return status == LpStatus::Optimal; }
};

/// Solves `model` (minimization). The model is not modified. A solve that
/// needs more than 200,000 pivots stops with IterationLimit.
///
/// `cancel` is a cooperative cancellation point, polled at every iteration
/// so a shared deadline is honored with at most one iteration of overshoot
/// (and so a degenerate node LP inside branch & bound cannot overrun the
/// step budget). Non-owning; may be null.
///
/// `start`, when given, is the optimal basis of an earlier solve of a model
/// with the same columns and at most as many rows; only bounds and appended
/// rows may differ (each appended row starts with its slack basic). The
/// solve re-optimizes it with the dual simplex and falls back to the cold
/// two-phase primal whenever it cannot (see LpSolution::coldFallback).
/// A carried inverse is copied in when the row count still matches.
/// Non-owning; may be null.
LpSolution solveLp(const LpModel& model, util::CancelToken* cancel = nullptr,
                   const LpBasis* start = nullptr);

/// As above, but the solve may move `start.inverse` out instead of copying
/// it (`start` is left without an inverse): for a start no one else needs.
LpSolution solveLp(const LpModel& model, util::CancelToken* cancel,
                   LpBasis&& start);

}  // namespace dynsched::lp
