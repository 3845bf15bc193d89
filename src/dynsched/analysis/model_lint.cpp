#include "dynsched/analysis/model_lint.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>

#include "dynsched/analysis/audit.hpp"
#include "dynsched/lp/model.hpp"
#include "dynsched/mip/mip.hpp"
#include "dynsched/util/logging.hpp"

namespace dynsched::analysis {

namespace {

std::atomic<std::uint64_t> gModelsLinted{0};
std::atomic<std::uint64_t> gFindings{0};
std::atomic<std::uint64_t> gFailed{0};

/// Warn when maxAbsCoefficient / minAbsCoefficient exceeds this.
constexpr double kConditioningRatio = 1e8;
/// Warn when |c_j| exceeds this (2^53: doubles stop being exact integers,
/// breaking MipOptions::objectiveIsIntegral bound rounding).
constexpr double kExactIntegerLimit = 9007199254740992.0;
/// Findings of one kind beyond this cap are counted, not materialized.
constexpr std::size_t kMaxFindingsPerKind = 16;
/// Slack of the row-activity and empty-row comparisons.
constexpr double kTolerance = 1e-9;

/// Accumulates findings with the per-kind cap.
class Linter {
 public:
  explicit Linter(LintReport& report) : report_(report) {}

  void add(LintSeverity severity, LintKind kind, int row, int col,
           std::string message) {
    if (perKind_[kind]++ >= kMaxFindingsPerKind) {
      ++report_.suppressedFindings;
      return;
    }
    report_.findings.push_back(
        LintFinding{severity, kind, row, col, std::move(message)});
  }

 private:
  LintReport& report_;
  std::map<LintKind, std::size_t> perKind_;
};

bool isFinite(double v) { return std::isfinite(v); }

std::string colLabel(const lp::LpModel& model, int j) {
  const std::string& name = model.variableName(j);
  return name.empty() ? "column " + std::to_string(j) : "column '" + name + "'";
}

std::string rowLabel(const lp::LpModel& model, int r) {
  const std::string& name = model.rowName(r);
  return name.empty() ? "row " + std::to_string(r) : "row '" + name + "'";
}

/// Generic LP pass. Feasibility findings are warnings: a well-formed but
/// infeasible model is a legitimate solver input (the solver reports it);
/// only structural damage is an error at this level.
void lintLp(const lp::LpModel& model, Linter& lint, LintModelStats& stats) {
  const int n = model.numVariables();
  const int m = model.numRows();
  stats.rows = m;
  stats.columns = n;
  stats.nonZeros = model.numNonZeros();

  // Column bounds, objective, and entry scan.
  for (int j = 0; j < n; ++j) {
    const double lb = model.columnLower(j), ub = model.columnUpper(j);
    if (std::isnan(lb) || std::isnan(ub) || lb > ub) {
      lint.add(LintSeverity::Error, LintKind::InvalidBounds, -1, j,
               colLabel(model, j) + " has invalid bounds [" +
                   std::to_string(lb) + ", " + std::to_string(ub) + "]");
    }
    const double c = model.objectiveCoef(j);
    if (!isFinite(c)) {
      lint.add(LintSeverity::Error, LintKind::NonFiniteCoefficient, -1, j,
               colLabel(model, j) + " has non-finite objective coefficient");
    } else {
      stats.maxAbsObjective = std::max(stats.maxAbsObjective, std::fabs(c));
    }
    for (const lp::ColumnEntry& e : model.column(j)) {
      if (!isFinite(e.value)) {
        lint.add(LintSeverity::Error, LintKind::NonFiniteCoefficient, e.row, j,
                 colLabel(model, j) + " has non-finite entry in " +
                     rowLabel(model, e.row));
        continue;
      }
      const double a = std::fabs(e.value);
      if (a > 0) {
        stats.minAbsCoefficient = stats.minAbsCoefficient == 0
                                      ? a
                                      : std::min(stats.minAbsCoefficient, a);
        stats.maxAbsCoefficient = std::max(stats.maxAbsCoefficient, a);
      }
    }
    if (model.column(j).empty()) {
      lint.add(LintSeverity::Info, LintKind::EmptyColumn, -1, j,
               colLabel(model, j) + " appears in no constraint");
    }
  }

  // Row bounds and row-major structure.
  std::vector<std::vector<std::pair<int, double>>> rowEntries(
      static_cast<std::size_t>(m));
  for (int j = 0; j < n; ++j) {
    for (const lp::ColumnEntry& e : model.column(j)) {
      rowEntries[static_cast<std::size_t>(e.row)].emplace_back(j, e.value);
    }
  }
  for (int r = 0; r < m; ++r) {
    const double lb = model.rowLower(r), ub = model.rowUpper(r);
    if (std::isnan(lb) || std::isnan(ub) || lb > ub) {
      lint.add(LintSeverity::Error, LintKind::InvalidBounds, r, -1,
               rowLabel(model, r) + " has invalid bounds [" +
                   std::to_string(lb) + ", " + std::to_string(ub) + "]");
    }
    if (rowEntries[static_cast<std::size_t>(r)].empty()) {
      const bool zeroOutside = lb > kTolerance || ub < -kTolerance;
      lint.add(LintSeverity::Warn, LintKind::EmptyRow, r, -1,
               rowLabel(model, r) +
                   (zeroOutside ? " is empty and trivially infeasible"
                                : " has no entries"));
    }
  }

  // Duplicate rows: identical support, coefficients, and bounds. Entries are
  // gathered in ascending column order, so signatures compare directly.
  {
    std::map<std::tuple<double, double, std::vector<std::pair<int, double>>>,
             int>
        seen;
    for (int r = 0; r < m; ++r) {
      if (rowEntries[static_cast<std::size_t>(r)].empty()) continue;
      const auto key = std::make_tuple(model.rowLower(r), model.rowUpper(r),
                                       rowEntries[static_cast<std::size_t>(r)]);
      const auto [it, inserted] = seen.emplace(key, r);
      if (!inserted) {
        lint.add(LintSeverity::Warn, LintKind::DuplicateRow, r, -1,
                 rowLabel(model, r) + " duplicates " +
                     rowLabel(model, it->second));
      }
    }
  }

  // Duplicate columns: identical support and coefficients — whichever costs
  // more is dominated (or they are interchangeable), usually a builder that
  // added the same variable twice.
  {
    std::map<std::vector<std::pair<int, double>>, int> seen;
    for (int j = 0; j < n; ++j) {
      if (model.column(j).empty()) continue;
      std::vector<std::pair<int, double>> signature;
      signature.reserve(model.column(j).size());
      for (const lp::ColumnEntry& e : model.column(j)) {
        signature.emplace_back(e.row, e.value);
      }
      std::sort(signature.begin(), signature.end());
      const auto [it, inserted] = seen.emplace(std::move(signature), j);
      if (!inserted) {
        const int twin = it->second;
        const int dominated =
            model.objectiveCoef(j) >= model.objectiveCoef(twin) ? j : twin;
        lint.add(LintSeverity::Warn, LintKind::DuplicateColumn, -1, dominated,
                 colLabel(model, j) + " duplicates " + colLabel(model, twin) +
                     "; the costlier one is dominated");
      }
    }
  }

  // Bounds propagation (one round, binary columns): activity ranges from the
  // variable bounds, then each [0,1] column is tested for whether either of
  // its values is still consistent with every row.
  std::vector<double> lo(static_cast<std::size_t>(m), 0.0);
  std::vector<double> hi(static_cast<std::size_t>(m), 0.0);
  const auto accumulate = [&](const std::vector<double>& colLb,
                              const std::vector<double>& colUb) {
    std::fill(lo.begin(), lo.end(), 0.0);
    std::fill(hi.begin(), hi.end(), 0.0);
    for (int j = 0; j < n; ++j) {
      const double lb = colLb[static_cast<std::size_t>(j)];
      const double ub = colUb[static_cast<std::size_t>(j)];
      for (const lp::ColumnEntry& e : model.column(j)) {
        if (!isFinite(e.value)) continue;
        const double a = e.value * lb, b = e.value * ub;
        lo[static_cast<std::size_t>(e.row)] += std::min(a, b);
        hi[static_cast<std::size_t>(e.row)] += std::max(a, b);
      }
    }
  };
  std::vector<double> effLb(static_cast<std::size_t>(n));
  std::vector<double> effUb(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    effLb[static_cast<std::size_t>(j)] = model.columnLower(j);
    effUb[static_cast<std::size_t>(j)] = model.columnUpper(j);
  }
  accumulate(effLb, effUb);
  for (int j = 0; j < n; ++j) {
    if (model.columnLower(j) != 0.0 || model.columnUpper(j) != 1.0) continue;
    bool canBeOne = true, canBeZero = true;
    for (const lp::ColumnEntry& e : model.column(j)) {
      const std::size_t r = static_cast<std::size_t>(e.row);
      const double cmin = std::min(0.0, e.value);
      const double cmax = std::max(0.0, e.value);
      // Achievable activity range of the row with x_j pinned.
      if (lo[r] - cmin + e.value > model.rowUpper(e.row) + kTolerance ||
          hi[r] - cmax + e.value < model.rowLower(e.row) - kTolerance) {
        canBeOne = false;
      }
      if (lo[r] - cmin > model.rowUpper(e.row) + kTolerance ||
          hi[r] - cmax < model.rowLower(e.row) - kTolerance) {
        canBeZero = false;
      }
    }
    if (!canBeOne) {
      effUb[static_cast<std::size_t>(j)] = 0.0;
      lint.add(LintSeverity::Info, LintKind::ForcedColumn, -1, j,
               colLabel(model, j) + " can never take value 1");
    } else if (!canBeZero) {
      effLb[static_cast<std::size_t>(j)] = 1.0;
      lint.add(LintSeverity::Info, LintKind::ForcedColumn, -1, j,
               colLabel(model, j) + " is forced to value 1");
    }
  }
  accumulate(effLb, effUb);
  for (int r = 0; r < m; ++r) {
    if (rowEntries[static_cast<std::size_t>(r)].empty()) {
      if (model.rowLower(r) > kTolerance || model.rowUpper(r) < -kTolerance) {
        lint.add(LintSeverity::Warn, LintKind::RowNeverSatisfiable, r, -1,
                 rowLabel(model, r) + " cannot be satisfied (empty row)");
      }
      continue;
    }
    if (lo[static_cast<std::size_t>(r)] > model.rowUpper(r) + kTolerance ||
        hi[static_cast<std::size_t>(r)] < model.rowLower(r) - kTolerance) {
      lint.add(LintSeverity::Warn, LintKind::RowNeverSatisfiable, r, -1,
               rowLabel(model, r) +
                   " cannot be satisfied by any point within bounds");
    }
  }

  // Numerical smells.
  if (stats.minAbsCoefficient > 0 &&
      stats.maxAbsCoefficient / stats.minAbsCoefficient >
          kConditioningRatio) {
    std::ostringstream os;
    os << "coefficient range [" << stats.minAbsCoefficient << ", "
       << stats.maxAbsCoefficient << "] spans more than "
       << kConditioningRatio << "; expect conditioning trouble";
    lint.add(LintSeverity::Warn, LintKind::CoefficientRange, -1, -1, os.str());
  }
  if (stats.maxAbsObjective > kExactIntegerLimit) {
    std::ostringstream os;
    os << "objective coefficient magnitude " << stats.maxAbsObjective
       << " exceeds the exact-integer double range; integral-objective "
          "bound rounding would be unsound";
    lint.add(LintSeverity::Warn, LintKind::ObjectiveOverflowRisk, -1, -1,
             os.str());
  }
}

void lintMip(const mip::MipModel& model, Linter& lint, LintModelStats& stats) {
  lintLp(model.lp, lint, stats);
  if (model.integer.size() !=
      static_cast<std::size_t>(model.lp.numVariables())) {
    lint.add(LintSeverity::Error, LintKind::MappingInconsistency, -1, -1,
             "integrality mask covers " + std::to_string(model.integer.size()) +
                 " of " + std::to_string(model.lp.numVariables()) +
                 " columns");
    return;
  }
  for (int j = 0; j < model.lp.numVariables(); ++j) {
    if (!model.integer[static_cast<std::size_t>(j)]) continue;
    for (const double bound :
         {model.lp.columnLower(j), model.lp.columnUpper(j)}) {
      if (std::fabs(bound) < lp::kInf && isFinite(bound) &&
          bound != std::floor(bound)) {
        lint.add(LintSeverity::Warn, LintKind::IntegerBoundsNotIntegral, -1, j,
                 colLabel(model.lp, j) + " is integer with fractional bound " +
                     std::to_string(bound));
        break;
      }
    }
  }
}

}  // namespace

const char* lintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::Info: return "info";
    case LintSeverity::Warn: return "warn";
    case LintSeverity::Error: return "error";
  }
  return "?";
}

const char* lintKindName(LintKind kind) {
  switch (kind) {
    case LintKind::InvalidBounds: return "invalid-bounds";
    case LintKind::NonFiniteCoefficient: return "non-finite-coefficient";
    case LintKind::EmptyRow: return "empty-row";
    case LintKind::EmptyColumn: return "empty-column";
    case LintKind::DuplicateRow: return "duplicate-row";
    case LintKind::DuplicateColumn: return "duplicate-column";
    case LintKind::ForcedColumn: return "forced-column";
    case LintKind::RowNeverSatisfiable: return "row-never-satisfiable";
    case LintKind::CoefficientRange: return "coefficient-range";
    case LintKind::ObjectiveOverflowRisk: return "objective-overflow-risk";
    case LintKind::IntegerBoundsNotIntegral:
      return "integer-bounds-not-integral";
    case LintKind::MappingInconsistency: return "mapping-inconsistency";
    case LintKind::HorizonMismatch: return "horizon-mismatch";
    case LintKind::CapacityOutOfRange: return "capacity-out-of-range";
    case LintKind::CapacityRowMismatch: return "capacity-row-mismatch";
    case LintKind::AssignmentRowMismatch: return "assignment-row-mismatch";
    case LintKind::NoFeasibleStart: return "no-feasible-start";
    case LintKind::InfeasibleStartSlot: return "infeasible-start-slot";
    case LintKind::InstanceInvalid: return "instance-invalid";
  }
  return "?";
}

bool LintReport::hasErrors() const {
  return std::any_of(findings.begin(), findings.end(), [](const auto& f) {
    return f.severity == LintSeverity::Error;
  });
}

std::size_t LintReport::count(LintKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [kind](const auto& f) { return f.kind == kind; }));
}

std::size_t LintReport::countSeverity(LintSeverity severity) const {
  return static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(),
      [severity](const auto& f) { return f.severity == severity; }));
}

std::string LintReport::summary() const {
  std::ostringstream os;
  os << stats.rows << " rows, " << stats.columns << " columns, "
     << stats.nonZeros << " nonzeros; " << countSeverity(LintSeverity::Error)
     << " errors, " << countSeverity(LintSeverity::Warn) << " warnings, "
     << countSeverity(LintSeverity::Info) << " infos";
  if (suppressedFindings > 0) os << " (+" << suppressedFindings << " capped)";
  for (const LintFinding& f : findings) {
    os << "\n  [" << lintSeverityName(f.severity) << "/" << lintKindName(f.kind)
       << "]";
    if (f.row >= 0) os << " row " << f.row;
    if (f.col >= 0) os << " col " << f.col;
    os << ": " << f.message;
  }
  return os.str();
}

LintReport lintModel(const lp::LpModel& model) {
  LintReport report;
  Linter lint(report);
  lintLp(model, lint, report.stats);
  return report;
}

LintReport lintModel(const mip::MipModel& model) {
  LintReport report;
  Linter lint(report);
  lintMip(model, lint, report.stats);
  return report;
}

LintReport lintModel(const TipModelView& view) {
  LintReport report;
  Linter lint(report);
  if (view.model == nullptr || view.colJob == nullptr ||
      view.colSlot == nullptr || view.jobColumns == nullptr) {
    lint.add(LintSeverity::Error, LintKind::MappingInconsistency, -1, -1,
             "time-indexed view is missing the model or its column maps");
    return report;
  }
  lintMip(*view.model, lint, report.stats);
  const lp::LpModel& model = view.model->lp;
  const int n = model.numVariables();

  // Layout: rows are [assignment per job | capacity per slot]; columns carry
  // a (job, slot) pair each.
  bool layoutOk = true;
  const auto layoutError = [&](const std::string& message) {
    lint.add(LintSeverity::Error, LintKind::MappingInconsistency, -1, -1,
             message);
    layoutOk = false;
  };
  if (view.numJobs <= 0) layoutError("view has no jobs");
  if (view.numSlots <= 0) layoutError("view has no slots");
  if (model.numRows() != view.numJobs + view.numSlots) {
    layoutError("model has " + std::to_string(model.numRows()) +
                " rows; expected " + std::to_string(view.numJobs) +
                " assignment + " + std::to_string(view.numSlots) +
                " capacity rows");
  }
  if (static_cast<int>(view.colJob->size()) != n ||
      static_cast<int>(view.colSlot->size()) != n) {
    layoutError("column maps cover " + std::to_string(view.colJob->size()) +
                "/" + std::to_string(view.colSlot->size()) + " of " +
                std::to_string(n) + " columns");
  }
  if (static_cast<int>(view.jobColumns->size()) != view.numJobs ||
      static_cast<int>(view.slotDuration.size()) != view.numJobs ||
      static_cast<int>(view.jobWidth.size()) != view.numJobs ||
      static_cast<int>(view.slotCapacity.size()) != view.numSlots) {
    layoutError("per-job/per-slot arrays do not match the view dimensions");
  }
  if (!layoutOk) return report;

  // Grid against instance: Eq. 6 scale and the policy-makespan horizon.
  if (view.timeScale <= 0) {
    lint.add(LintSeverity::Error, LintKind::HorizonMismatch, -1, -1,
             "time scale " + std::to_string(view.timeScale) +
                 " is not positive");
  } else if (view.horizon <= view.now) {
    lint.add(LintSeverity::Error, LintKind::HorizonMismatch, -1, -1,
             "horizon " + std::to_string(view.horizon) +
                 " does not exceed now " + std::to_string(view.now));
  } else {
    const Time needed =
        (view.horizon - view.now + view.timeScale - 1) / view.timeScale;
    if (static_cast<Time>(view.numSlots) < needed) {
      lint.add(LintSeverity::Error, LintKind::HorizonMismatch, -1, -1,
               "grid has " + std::to_string(view.numSlots) +
                   " slots but the policy-makespan horizon needs " +
                   std::to_string(needed));
    }
  }
  if (view.machineSize <= 0) {
    lint.add(LintSeverity::Error, LintKind::InstanceInvalid, -1, -1,
             "machine size " + std::to_string(view.machineSize) +
                 " is not positive");
    return report;
  }
  for (int k = 0; k < view.numSlots; ++k) {
    const NodeCount cap = view.slotCapacity[static_cast<std::size_t>(k)];
    if (cap < 0 || cap > view.machineSize) {
      lint.add(LintSeverity::Error, LintKind::CapacityOutOfRange,
               view.numJobs + k, -1,
               "slot " + std::to_string(k) + " capacity " +
                   std::to_string(cap) + " outside [0, " +
                   std::to_string(view.machineSize) + "]");
    }
  }

  // Rows: Eq. 3 exactly-one per job, Eq. 4 capacity bound per slot.
  for (int i = 0; i < view.numJobs; ++i) {
    if (model.rowLower(i) != 1.0 || model.rowUpper(i) != 1.0) {
      lint.add(LintSeverity::Error, LintKind::AssignmentRowMismatch, i, -1,
               rowLabel(model, i) + " bounds [" +
                   std::to_string(model.rowLower(i)) + ", " +
                   std::to_string(model.rowUpper(i)) +
                   "] are not the Eq. 3 exactly-one bounds [1, 1]");
    }
  }
  for (int k = 0; k < view.numSlots; ++k) {
    const int r = view.numJobs + k;
    const double cap =
        static_cast<double>(view.slotCapacity[static_cast<std::size_t>(k)]);
    if (model.rowUpper(r) != cap || model.rowLower(r) > 0.0) {
      lint.add(LintSeverity::Error, LintKind::CapacityRowMismatch, r, -1,
               rowLabel(model, r) + " bound " +
                   std::to_string(model.rowUpper(r)) +
                   " disagrees with grid capacity " + std::to_string(cap) +
                   " of slot " + std::to_string(k));
    }
  }

  // Per-job duration/width sanity and per-column structure + feasibility.
  for (int i = 0; i < view.numJobs; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    if (view.slotDuration[si] < 1) {
      lint.add(LintSeverity::Error, LintKind::InstanceInvalid, -1, -1,
               "job " + std::to_string(i) + " has slot duration " +
                   std::to_string(view.slotDuration[si]));
    }
    if (view.jobWidth[si] <= 0 || view.jobWidth[si] > view.machineSize) {
      lint.add(LintSeverity::Error, LintKind::InstanceInvalid, -1, -1,
               "job " + std::to_string(i) + " width " +
                   std::to_string(view.jobWidth[si]) + " outside (0, " +
                   std::to_string(view.machineSize) + "]");
    }
  }
  std::vector<bool> jobHasFeasibleStart(static_cast<std::size_t>(view.numJobs),
                                        false);
  for (int c = 0; c < n; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    const int i = (*view.colJob)[sc];
    const int k = (*view.colSlot)[sc];
    if (i < 0 || i >= view.numJobs || k < 0) {
      lint.add(LintSeverity::Error, LintKind::MappingInconsistency, -1, c,
               colLabel(model, c) + " maps to job " + std::to_string(i) +
                   ", slot " + std::to_string(k));
      continue;
    }
    const int dur = view.slotDuration[static_cast<std::size_t>(i)];
    const NodeCount width = view.jobWidth[static_cast<std::size_t>(i)];
    if (k + dur > view.numSlots) {
      lint.add(LintSeverity::Error, LintKind::MappingInconsistency, -1, c,
               colLabel(model, c) + " runs past the grid (start " +
                   std::to_string(k) + " + " + std::to_string(dur) +
                   " slots > " + std::to_string(view.numSlots) + ")");
      continue;
    }
    // Expected support: 1.0 in the assignment row, width in each covered
    // capacity row — anything else is a silently malformed Eq. 3/4 column.
    bool entriesOk =
        model.column(c).size() == static_cast<std::size_t>(dur) + 1;
    if (entriesOk) {
      for (const lp::ColumnEntry& e : model.column(c)) {
        if (e.row == i) {
          entriesOk = entriesOk && e.value == 1.0;
        } else if (e.row >= view.numJobs + k &&
                   e.row < view.numJobs + k + dur) {
          entriesOk = entriesOk && e.value == static_cast<double>(width);
        } else {
          entriesOk = false;
        }
      }
    }
    if (!entriesOk) {
      lint.add(LintSeverity::Error, LintKind::MappingInconsistency, -1, c,
               colLabel(model, c) +
                   " support disagrees with its (job, slot) mapping");
    }
    // Start-snapping feasibility against the free-capacity profile.
    bool fits = true;
    for (int kk = k; kk < k + dur; ++kk) {
      if (view.slotCapacity[static_cast<std::size_t>(kk)] < width) {
        fits = false;
        break;
      }
    }
    if (fits) {
      jobHasFeasibleStart[static_cast<std::size_t>(i)] = true;
    } else {
      lint.add(LintSeverity::Info, LintKind::InfeasibleStartSlot, -1, c,
               colLabel(model, c) + " start slot " + std::to_string(k) +
                   " can never fit the free-capacity profile");
    }
  }
  for (int i = 0; i < view.numJobs; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    const std::size_t expected =
        view.slotDuration[si] >= 1 &&
                view.numSlots - view.slotDuration[si] >= 0
            ? static_cast<std::size_t>(view.numSlots - view.slotDuration[si] +
                                       1)
            : 0;
    if ((*view.jobColumns)[si].size() != expected) {
      lint.add(LintSeverity::Error, LintKind::MappingInconsistency, -1, -1,
               "job " + std::to_string(i) + " has " +
                   std::to_string((*view.jobColumns)[si].size()) +
                   " start columns; the grid admits " +
                   std::to_string(expected));
    }
    if (!jobHasFeasibleStart[si]) {
      lint.add(LintSeverity::Error, LintKind::NoFeasibleStart, i, -1,
               "job " + std::to_string(i) +
                   " has no capacity-feasible start slot (makeGrid "
                   "guarantees one; the model was corrupted)");
    }
  }
  return report;
}

void enforceLint(const char* site, const LintReport& report) {
  gModelsLinted.fetch_add(1, std::memory_order_relaxed);
  gFindings.fetch_add(report.findings.size(), std::memory_order_relaxed);
  if (report.hasErrors()) {
    gFailed.fetch_add(1, std::memory_order_relaxed);
    if (auditEnabled()) {
      throw AuditError(std::string("model lint failed at ") + site + ": " +
                       report.summary());
    }
    DYNSCHED_LOG(Warn) << "model lint at " << site << ": " << report.summary();
    return;
  }
  if (!report.findings.empty()) {
    DYNSCHED_LOG(Debug) << "model lint at " << site << ": "
                        << report.summary();
  }
}

ModelLintStats modelLintStats() {
  return ModelLintStats{gModelsLinted.load(), gFindings.load(),
                        gFailed.load()};
}

void resetModelLintStats() {
  gModelsLinted.store(0);
  gFindings.store(0);
  gFailed.store(0);
}

}  // namespace dynsched::analysis
