// Pre-solve static diagnostics for the optimization models.
//
// The runtime ScheduleValidator only sees a schedule after an expensive
// solve; a silently malformed time-indexed IP (missing capacity entries,
// duplicated rows, a horizon that does not cover the policy-makespan bound)
// yields "optimal" schedules that are wrong. ModelLint inspects the model
// itself before any solve and reports structured findings:
//
//   - structural damage (non-finite coefficients, crossed bounds, column
//     mappings that disagree with the Eq. 1-5 structure) — errors;
//   - infeasibility detectable without solving (bounds propagation over
//     binary columns, rows whose activity range misses their bounds, jobs
//     with no capacity-feasible start slot) — errors for the time-indexed
//     builder (feasible by construction), warnings for general models the
//     solver is expected to reject itself;
//   - numerical smells (coefficient-range conditioning, objective weights
//     beyond the 2^53 exact-integer range that objectiveIsIntegral rounding
//     relies on, duplicate/dominated columns, empty rows) — warnings/infos.
//
// Enforcement follows the audit layer: under an enabled DYNSCHED_AUDIT,
// error findings throw AuditError naming the producing site; otherwise the
// report is logged. tip::buildModel lints each time-indexed model it
// builds, once, with the TipModelView pass (which runs the generic LP and
// MIP passes too), but only in a build with the audit compiled in and
// while the runtime audit is on (analysis::auditEnabled()); with it off no
// model is linted. Every model a production path solves comes from there.
// mip::solveMip does not lint, so models built elsewhere (tests, benches)
// are solved unlinted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dynsched/util/types.hpp"

// The models are read by reference or pointer only; model_lint.cpp includes
// their definitions.
namespace dynsched::lp {
class LpModel;
}  // namespace dynsched::lp
namespace dynsched::mip {
struct MipModel;
}  // namespace dynsched::mip

namespace dynsched::analysis {

enum class LintSeverity { Info, Warn, Error };

enum class LintKind {
  // Generic LP/MIP structure.
  InvalidBounds,          ///< crossed or NaN column/row bounds
  NonFiniteCoefficient,   ///< NaN/Inf matrix entry or objective coefficient
  EmptyRow,               ///< constraint without entries
  EmptyColumn,            ///< variable appearing in no constraint
  DuplicateRow,           ///< identical support, coefficients, and bounds
  DuplicateColumn,        ///< identical support and coefficients (dominated)
  ForcedColumn,           ///< [0,1] column fixed by one propagation round
  RowNeverSatisfiable,    ///< activity range disjoint from the row bounds
  CoefficientRange,       ///< |a|max/|a|min beyond the conditioning threshold
  ObjectiveOverflowRisk,  ///< |c| beyond the 2^53 exact-integer range
  IntegerBoundsNotIntegral,  ///< integer column with fractional finite bound
  // Time-indexed model structure (Eq. 1-5 plus the grid).
  MappingInconsistency,  ///< column/row layout disagrees with (job, slot) map
  HorizonMismatch,       ///< grid does not cover (horizon - now) / scale
  CapacityOutOfRange,    ///< slot capacity outside [0, machineSize]
  CapacityRowMismatch,   ///< Eq. 4 row bound differs from the grid capacity
  AssignmentRowMismatch,  ///< Eq. 3 row is not an exactly-one row
  NoFeasibleStart,       ///< a job has no capacity-feasible start slot
  InfeasibleStartSlot,   ///< an x_it column that can never take value 1
  InstanceInvalid,       ///< machine size, job width or duration out of range
};

const char* lintSeverityName(LintSeverity severity);
const char* lintKindName(LintKind kind);

/// One diagnostic, anchored to the model coordinates that produced it.
struct LintFinding {
  LintSeverity severity = LintSeverity::Info;
  LintKind kind = LintKind::InvalidBounds;
  int row = -1;  ///< row index when applicable
  int col = -1;  ///< column index when applicable
  std::string message;
};

/// Aggregate numerical statistics gathered during the pass.
struct LintModelStats {
  int rows = 0;
  int columns = 0;
  std::size_t nonZeros = 0;
  double minAbsCoefficient = 0;  ///< smallest nonzero |a_ij| (0 if none)
  double maxAbsCoefficient = 0;
  double maxAbsObjective = 0;
};

struct LintReport {
  std::vector<LintFinding> findings;
  std::size_t suppressedFindings = 0;  ///< dropped beyond 16 of one kind
  LintModelStats stats;

  bool hasErrors() const;
  std::size_t count(LintKind kind) const;
  std::size_t countSeverity(LintSeverity severity) const;
  /// Human-readable multi-line report (one line per finding plus stats).
  std::string summary() const;
};

/// Plain-data view of a time-indexed model (tip::TipModel + Grid +
/// TipInstance); the analysis layer stays independent of tip headers and a
/// test can corrupt individual fields to exercise one finding at a time.
struct TipModelView {
  const mip::MipModel* model = nullptr;
  int numJobs = 0;
  int numSlots = 0;
  Time now = 0;
  Time horizon = 0;
  Time timeScale = 0;
  NodeCount machineSize = 0;
  std::vector<NodeCount> slotCapacity;  ///< per slot, from the grid
  std::vector<int> slotDuration;        ///< per job, ceil(d_i / scale)
  std::vector<NodeCount> jobWidth;      ///< per job
  const std::vector<int>* colJob = nullptr;
  const std::vector<int>* colSlot = nullptr;
  const std::vector<std::vector<int>>* jobColumns = nullptr;
};

/// Generic LP lint: structure, bounds propagation, duplicates, conditioning.
LintReport lintModel(const lp::LpModel& model);

/// MIP lint: the LP pass plus integrality-specific checks.
LintReport lintModel(const mip::MipModel& model);

/// Time-indexed model lint: the MIP pass plus Eq. 1-5 / grid / horizon
/// cross-checks. Feasibility findings are errors here — makeGrid guarantees
/// an FCFS placement fits, so an unschedulable job is a builder bug.
LintReport lintModel(const TipModelView& view);

/// Acts on a report: error findings throw AuditError naming `site` while
/// auditing is enabled and are logged at Warn otherwise; clean-but-noisy
/// reports are logged at Debug. Updates the lifetime counters.
void enforceLint(const char* site, const LintReport& report);

/// Lifetime counters, for tests and reporting.
struct ModelLintStats {
  std::uint64_t modelsLinted = 0;
  std::uint64_t findings = 0;
  std::uint64_t failed = 0;  ///< reports whose errors were thrown or logged
};
ModelLintStats modelLintStats();
void resetModelLintStats();

}  // namespace dynsched::analysis
