// Supervised solves: the degradation ladder around the exact step solver.
//
// The study and the simulator must never lose a self-tuning step to a solver
// failure — the paper's setting is an online resource manager, where "no
// schedule" is not an acceptable answer. supervisedBestSchedule() therefore
// runs one captured step under a SolveBudget (wall clock, nodes, LP
// iterations, estimated memory; see util/budget.hpp) shared by every solver
// layer through a CancelToken, and degrades through a fixed ladder:
//
//   rung 1  Optimal         proven optimal within the budget
//   rung 2  IncumbentGap    budget hit; B&B incumbent with a reported gap
//   rung 3  CoarsenedRetry  no usable solution (no incumbent, AuditError,
//                           CheckError, LP numerical failure, or memory
//                           estimate over cap): double the Eq. 6 time scale,
//                           re-lint, re-solve under the remaining budget
//   rung 4  PolicyFallback  best basic-policy schedule — always feasible
//
// Every result carries structured provenance: which rung produced the
// schedule, why the ladder descended, and why the budget stopped the solve.
// Deterministic fault injection (DYNSCHED_FAULTS) forces each rung in tests.
#pragma once

#include <optional>
#include <string>

#include "dynsched/core/metrics.hpp"
#include "dynsched/mip/mip.hpp"
#include "dynsched/tip/compaction.hpp"
#include "dynsched/tip/tim_model.hpp"
#include "dynsched/tip/time_scaling.hpp"
#include "dynsched/util/budget.hpp"

namespace dynsched::sim {
struct StepSnapshot;  // read by reference; the .cpp includes the simulator
}  // namespace dynsched::sim

namespace dynsched::tip {

/// Configuration of one supervised step solve. StudyOptions derives from
/// this, so the whole study pipeline shares the knobs.
struct SupervisedOptions {
  TimeScalingParams scaling;
  mip::MipOptions mip;
  core::MetricKind metric = core::MetricKind::SldWA;
  bool warmStart = true;             ///< seed B&B with the policy schedule
  bool roundingHeuristic = true;     ///< LP-guided order rounding
  /// Override the Eq. 6 scale with a fixed value (0 = use Eq. 6) — used by
  /// the time-scale sensitivity bench.
  Time forcedTimeScale = 0;
  /// Per-step resource envelope; default-constructed = unlimited, which
  /// reproduces the unsupervised pipeline bit for bit.
  util::SolveBudget budget;
  /// Fault plan override for tests. nullopt: read DYNSCHED_FAULTS once.
  std::optional<util::FaultPlan> faults;
};

/// Which rung of the degradation ladder produced the schedule.
enum class SolveRung : std::uint8_t {
  Optimal,         ///< rung 1: proven optimal
  IncumbentGap,    ///< rung 2: budget hit, incumbent with gap
  CoarsenedRetry,  ///< rung 3: solved after doubling the time scale
  PolicyFallback,  ///< rung 4: best basic-policy schedule
};

inline constexpr int kSolveRungs = 4;

const char* solveRungName(SolveRung rung);
/// 0-based index for per-rung counters.
inline int solveRungIndex(SolveRung rung) { return static_cast<int>(rung); }
/// Inverse of solveRungIndex with a range check — journal deserialization
/// must never materialize an out-of-range rung. False on unknown values.
bool solveRungFromIndex(int index, SolveRung& rung);

/// Outcome of one supervised step solve. `schedule` is always a feasible
/// schedule for the step (the ladder guarantees it); everything else is
/// provenance.
struct SupervisedResult {
  core::Schedule schedule;
  SolveRung rung = SolveRung::PolicyFallback;
  mip::MipStatus mipStatus = mip::MipStatus::Error;
  double gap = 0;            ///< relative B&B gap (0 when proven optimal)
  Time timeScale = 0;        ///< grid scale of the winning attempt [sec]
  bool coarsened = false;    ///< a coarsened retry was attempted
  long nodes = 0;            ///< B&B nodes consumed across all attempts
  long lpIterations = 0;     ///< simplex iterations consumed across attempts
  long refactorizations = 0; ///< node-LP basis factorizations across attempts
  double seconds = 0;        ///< wall time of the whole ladder
  int lpColumns = 0;         ///< columns of the last built model
  int lpRows = 0;            ///< rows of the last built model
  util::CancelReason stopReason = util::CancelReason::None;
  /// Human-readable ladder trace: why each descent happened ("proven
  /// optimal" for a clean rung-1 finish).
  std::string provenance;

  bool degraded() const { return rung != SolveRung::Optimal; }
};

/// Builds the TipInstance of a snapshot (horizon = max policy makespan,
/// scale from Eq. 6 or the forced override).
TipInstance makeInstance(const sim::StepSnapshot& snapshot,
                         const SupervisedOptions& options);

/// Production solver configuration for a time-indexed model: SOS1 group
/// branching over each job's start slots, the LP-guided order-rounding
/// heuristic, integral-objective bound tightening, and (optionally) a
/// warm-start incumbent snapped from a second-precision schedule.
/// `model`, `instance` and `grid` are captured by reference and must
/// outlive the solveMip() call.
mip::MipOptions makeMipOptions(const TipModel& model,
                               const TipInstance& instance, const Grid& grid,
                               mip::MipOptions base = {},
                               const core::Schedule* warmStart = nullptr);

/// Solves one captured step through the degradation ladder. Never throws on
/// solver trouble (AuditError/CheckError from the solve path are converted
/// into ladder descents); the returned schedule is always feasible.
/// `stepIndex` identifies the step for fail-at-step fault plans.
SupervisedResult supervisedBestSchedule(const sim::StepSnapshot& snapshot,
                                        const SupervisedOptions& options,
                                        long stepIndex = 0);

}  // namespace dynsched::tip
