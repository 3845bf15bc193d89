// Mixed-integer programming by LP-based branch & bound.
//
// This module is the stand-in for ILOG CPLEX in the reproduction (DESIGN.md,
// substitutions): it minimizes a MipModel exactly — or to a proven relative
// gap / within node+time limits — using the bounded simplex of dynsched::lp
// for node relaxations, best-first node selection with most-fractional
// branching, an optional problem-specific rounding heuristic, and an
// optional warm-start incumbent (the paper's policy schedules are natural
// incumbents for the time-indexed instances).
//
// Node relaxations reuse bases: the root LP solves cold, and every other
// node re-solves its parent's optimal basis with the dual simplex (both
// children share it). A child differs from its parent only in bound
// fixings, so a few dual pivots replace a cold two-phase solve; the LP
// layer solves cold whenever the inherited basis cannot be used. The shared
// basis also carries the parent's basis inverse, so a child skips the
// refactorization, while the inverses parked in one solve's open nodes fit
// a fixed byte budget (a constant in mip.cpp); the second child to run
// takes the inverse without a copy. Past the budget children refactorize.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dynsched/lp/model.hpp"
#include "dynsched/util/budget.hpp"

namespace dynsched::mip {

struct MipModel {
  lp::LpModel lp;
  std::vector<bool> integer;  ///< per column; true = integrality required

  /// Adds an integer variable to `lp` and marks it.
  int addIntegerVariable(double lb, double ub, double objective,
                         std::string name = {});
};

enum class MipStatus {
  Optimal,          ///< incumbent proven optimal (within gap tolerance)
  FeasibleLimit,    ///< limits hit; incumbent available with a gap
  Infeasible,       ///< no integer-feasible point exists
  NoSolutionLimit,  ///< limits hit before any incumbent was found
  Error,            ///< LP numerical failure
};

const char* mipStatusName(MipStatus status);

/// Number of MipStatus values (serialization range checks).
inline constexpr int kMipStatuses = 5;

/// Validated u8 → MipStatus conversion for journal deserialization.
/// Returns false on an out-of-range value.
bool mipStatusFromIndex(std::uint8_t index, MipStatus& status);

struct MipResult {
  MipStatus status = MipStatus::Error;
  double objective = 0;      ///< incumbent objective (valid unless NoSolution*)
  std::vector<double> x;     ///< incumbent point
  double bestBound = -lp::kInf;
  long nodes = 0;
  long lpIterations = 0;
  /// Basis factorizations of every node LP, whatever its status.
  long refactorizations = 0;
  long heuristicSolutions = 0;
  double seconds = 0;
  /// Why the solve stopped short, when it did: for Error the failing node
  /// and LP iteration count, for *Limit which limit fired. Empty on a clean
  /// Optimal finish — callers must never treat Error as a mere "no
  /// schedule"; this message carries the diagnosis.
  std::string message;
  /// Reason the shared CancelToken (if any) was cancelled.
  util::CancelReason stopReason = util::CancelReason::None;

  bool hasSolution() const {
    return status == MipStatus::Optimal || status == MipStatus::FeasibleLimit;
  }
  /// Relative optimality gap (0 when proven optimal; inf with no incumbent).
  double gap() const;
};

/// Fixed search tolerances. tip::studyFingerprint records them, so editing
/// one invalidates the journals written under the old value.
inline constexpr double kRelGapTol = 1e-6;  ///< stop when gap() <= this
inline constexpr double kIntegralityTol = 1e-6;
/// Most cover cuts one root separation round adds (see coverCutRounds).
inline constexpr int kMaxCoverCutsPerRound = 64;

struct MipOptions {
  long maxNodes = 200000;
  double timeLimitSeconds = 300.0;
  /// Shared cooperative cancellation point (non-owning; may be null). Every
  /// node relaxation gets it as lp::solveLp's token, and the node loop and
  /// the cover-cut separation poll it too, so the budget it carries bounds
  /// the whole solve — including a single degenerate node LP.
  util::CancelToken* cancel = nullptr;
  /// Objective value of every integer point is an integer (true for the
  /// time-indexed model, whose costs are integral); lets bounds round up.
  bool objectiveIsIntegral = false;
  /// Called with each node's fractional LP point; may return an integer
  /// feasible candidate (it is validated before acceptance).
  std::function<std::optional<std::vector<double>>(
      const std::vector<double>&)>
      roundingHeuristic;
  /// Starting incumbent (validated; ignored if infeasible).
  std::optional<std::vector<double>> warmStart;
  /// Rounds of knapsack cover-cut separation at the root node (0 disables).
  /// Applies to pure "<=" rows over binary columns with positive
  /// coefficients — exactly the time-indexed capacity rows (Eq. 4): for a
  /// cover S (Σ_{i∈S} w_i > C) every integer point satisfies
  /// Σ_{i∈S} x_i <= |S| − 1, which the LP relaxation often violates.
  int coverCutRounds = 1;
  /// Disjoint ordered groups of binary columns of which exactly one is 1 in
  /// any feasible solution (SOS1 along a value axis, e.g. the start-time
  /// columns x_{i,0..K} of one job). When the branching variable belongs to
  /// a group, the solver splits the group at its fractional mean position
  /// (dichotomy over the axis) instead of branching on the single binary —
  /// vastly stronger for time-indexed models.
  std::vector<std::vector<int>> branchGroups;
};

MipResult solveMip(const MipModel& model, const MipOptions& options = {});

}  // namespace dynsched::mip
