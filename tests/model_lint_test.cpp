// Model-lint tests: one unit test per finding kind, enforcement semantics
// under the audit gate, and a regression sweep asserting that every model
// the tip/mip fixtures produce lints clean of errors.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "dynsched/analysis/audit.hpp"
#include "dynsched/analysis/model_lint.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/request_adapter.hpp"
#include "dynsched/tip/supervised.hpp"
#include "dynsched/tip/tim_model.hpp"
#include "dynsched/util/budget.hpp"
#include "dynsched/util/rng.hpp"

namespace dynsched::analysis {
namespace {

class ScopedAudit {
 public:
  explicit ScopedAudit(bool enabled) : previous_(auditEnabled()) {
    setAuditEnabled(enabled);
  }
  ~ScopedAudit() { setAuditEnabled(previous_); }
  ScopedAudit(const ScopedAudit&) = delete;
  ScopedAudit& operator=(const ScopedAudit&) = delete;

 private:
  bool previous_;
};

core::Job makeJob(JobId id, Time submit, NodeCount width, Time estimate) {
  core::Job j;
  j.id = id;
  j.submit = submit;
  j.width = width;
  j.estimate = estimate;
  j.actualRuntime = estimate;
  return j;
}

/// A hand-built single-job two-slot time-indexed model plus its view, so
/// individual fields can be corrupted to trigger exactly one finding.
struct TinyTip {
  mip::MipModel mip;
  std::vector<int> colJob;
  std::vector<int> colSlot;
  std::vector<std::vector<int>> jobColumns;
  TipModelView view;

  explicit TinyTip(NodeCount capacity = 2, double assignLb = 1.0,
                   double assignUb = 1.0) {
    mip.lp.addRow(assignLb, assignUb, "assign_0");
    mip.lp.addRow(-lp::kInf, static_cast<double>(capacity), "cap_0");
    mip.lp.addRow(-lp::kInf, static_cast<double>(capacity), "cap_1");
    for (int k = 0; k < 2; ++k) {
      const int col = mip.addIntegerVariable(
          0.0, 1.0, 10.0 * (k + 1), "x_0_" + std::to_string(k));
      colJob.push_back(0);
      colSlot.push_back(k);
      mip.lp.addEntry(0, col, 1.0);
      mip.lp.addEntry(1 + k, col, 1.0);  // width 1
    }
    jobColumns = {{0, 1}};
    view.model = &mip;
    view.numJobs = 1;
    view.numSlots = 2;
    view.now = 0;
    view.horizon = 20;
    view.timeScale = 10;
    view.machineSize = 2;
    view.slotCapacity = {capacity, capacity};
    view.slotDuration = {1};
    view.jobWidth = {1};
    view.colJob = &colJob;
    view.colSlot = &colSlot;
    view.jobColumns = &jobColumns;
  }
};

// ---------------------------------------------------------------------------
// Generic LP/MIP findings.
// ---------------------------------------------------------------------------

TEST(ModelLint, CleanModelHasNoFindings) {
  lp::LpModel m;
  const int x = m.addVariable(0, 1, 1.0, "x");
  const int y = m.addVariable(0, 2, -1.0, "y");
  m.addRow(-lp::kInf, 2.0, {{x, 1.0}, {y, 2.0}}, "cap");
  const LintReport report = lintModel(m);
  EXPECT_TRUE(report.findings.empty()) << report.summary();
  EXPECT_EQ(report.stats.rows, 1);
  EXPECT_EQ(report.stats.columns, 2);
  EXPECT_EQ(report.stats.nonZeros, 2u);
}

TEST(ModelLint, DuplicateRowDetected) {
  lp::LpModel m;
  const int x = m.addVariable(0, 1, 1.0, "x");
  m.addRow(-lp::kInf, 3.0, {{x, 2.0}}, "cap_a");
  m.addRow(-lp::kInf, 3.0, {{x, 2.0}}, "cap_b");
  const LintReport report = lintModel(m);
  ASSERT_EQ(report.count(LintKind::DuplicateRow), 1u) << report.summary();
  EXPECT_FALSE(report.hasErrors());  // duplicates are a warning by default
}

TEST(ModelLint, DuplicateColumnDetected) {
  lp::LpModel m;
  const int x = m.addVariable(0, 1, 1.0, "x");
  const int y = m.addVariable(0, 1, 2.0, "y");  // same support, costlier
  m.addRow(-lp::kInf, 3.0, {{x, 1.0}, {y, 1.0}}, "cap");
  const LintReport report = lintModel(m);
  ASSERT_EQ(report.count(LintKind::DuplicateColumn), 1u) << report.summary();
  EXPECT_EQ(report.findings[0].col, y);  // the dominated (costlier) twin
}

TEST(ModelLint, InfeasibleBinaryColumnForcedOff) {
  lp::LpModel m;
  const int x = m.addVariable(0, 1, 1.0, "x");
  m.addRow(-lp::kInf, 3.0, {{x, 5.0}}, "cap");  // x = 1 needs 5 > 3
  const LintReport report = lintModel(m);
  EXPECT_EQ(report.count(LintKind::ForcedColumn), 1u) << report.summary();
}

TEST(ModelLint, RowNeverSatisfiableAfterPropagation) {
  lp::LpModel m;
  const int x = m.addVariable(0, 1, 1.0, "x");
  m.addRow(-lp::kInf, 3.0, {{x, 5.0}}, "cap");
  m.addRow(1.0, 1.0, {{x, 1.0}}, "assign");  // needs the forced-off column
  const LintReport report = lintModel(m);
  EXPECT_GE(report.count(LintKind::RowNeverSatisfiable), 1u)
      << report.summary();
  EXPECT_FALSE(report.hasErrors());  // infeasibility is the solver's verdict
}

TEST(ModelLint, EmptyRowAndColumnReported) {
  lp::LpModel m;
  m.addVariable(0, 1, 1.0, "unused");
  m.addRow(0.0, 1.0, "hollow");
  const LintReport report = lintModel(m);
  EXPECT_EQ(report.count(LintKind::EmptyRow), 1u);
  EXPECT_EQ(report.count(LintKind::EmptyColumn), 1u);
}

TEST(ModelLint, ConditioningWarning) {
  lp::LpModel m;
  const int x = m.addVariable(0, 1, 1.0, "x");
  const int y = m.addVariable(0, 1, 1.0, "y");
  m.addRow(-lp::kInf, 1.0, {{x, 1e-6}, {y, 1e6}}, "wide");
  const LintReport report = lintModel(m);
  EXPECT_EQ(report.count(LintKind::CoefficientRange), 1u) << report.summary();
  EXPECT_DOUBLE_EQ(report.stats.minAbsCoefficient, 1e-6);
  EXPECT_DOUBLE_EQ(report.stats.maxAbsCoefficient, 1e6);
}

TEST(ModelLint, ObjectiveOverflowRiskWarning) {
  lp::LpModel m;
  const int x = m.addVariable(0, 1, 1e17, "x");  // beyond 2^53
  m.addRow(-lp::kInf, 1.0, {{x, 1.0}}, "cap");
  const LintReport report = lintModel(m);
  EXPECT_EQ(report.count(LintKind::ObjectiveOverflowRisk), 1u)
      << report.summary();
}

TEST(ModelLint, NonFiniteCoefficientIsError) {
  lp::LpModel m;
  const int x =
      m.addVariable(0, 1, std::numeric_limits<double>::quiet_NaN(), "x");
  m.addRow(-lp::kInf, 1.0, {{x, 1.0}}, "cap");
  const LintReport report = lintModel(m);
  EXPECT_EQ(report.count(LintKind::NonFiniteCoefficient), 1u);
  EXPECT_TRUE(report.hasErrors());
}

TEST(ModelLint, IntegerBoundsNotIntegralWarning) {
  mip::MipModel m;
  const int x = m.addIntegerVariable(0, 2.5, 1.0, "x");
  m.lp.addRow(-lp::kInf, 2.0, {{x, 1.0}}, "cap");
  const LintReport report = lintModel(m);
  EXPECT_EQ(report.count(LintKind::IntegerBoundsNotIntegral), 1u)
      << report.summary();
}

TEST(ModelLint, FindingsPerKindAreCapped) {
  lp::LpModel m;
  for (int j = 0; j < 26; ++j) {
    std::string name = "u";
    name += std::to_string(j);
    m.addVariable(0, 1, 0.0, std::move(name));
  }
  const LintReport report = lintModel(m);
  EXPECT_EQ(report.count(LintKind::EmptyColumn), 16u);
  EXPECT_EQ(report.suppressedFindings, 10u);
}

// ---------------------------------------------------------------------------
// Time-indexed view findings (corrupting one field at a time).
// ---------------------------------------------------------------------------

TEST(ModelLint, TinyTipBaselineLintsClean) {
  const TinyTip tip;
  const LintReport report = lintModel(tip.view);
  EXPECT_FALSE(report.hasErrors()) << report.summary();
}

TEST(ModelLint, HorizonMismatchDetected) {
  TinyTip tip;
  tip.view.horizon = 1000;  // needs 100 slots at scale 10, grid has 2
  const LintReport report = lintModel(tip.view);
  EXPECT_EQ(report.count(LintKind::HorizonMismatch), 1u) << report.summary();
  EXPECT_TRUE(report.hasErrors());
}

TEST(ModelLint, NonPositiveTimeScaleIsHorizonMismatch) {
  TinyTip tip;
  tip.view.timeScale = 0;
  const LintReport report = lintModel(tip.view);
  EXPECT_EQ(report.count(LintKind::HorizonMismatch), 1u) << report.summary();
}

TEST(ModelLint, CapacityOutOfRangeDetected) {
  TinyTip tip;
  tip.view.slotCapacity[0] = 7;  // machine has 2 nodes
  const LintReport report = lintModel(tip.view);
  EXPECT_EQ(report.count(LintKind::CapacityOutOfRange), 1u)
      << report.summary();
  EXPECT_TRUE(report.hasErrors());
}

TEST(ModelLint, CapacityRowMismatchDetected) {
  TinyTip tip;
  tip.view.slotCapacity[1] = 1;  // row still says 2
  const LintReport report = lintModel(tip.view);
  EXPECT_EQ(report.count(LintKind::CapacityRowMismatch), 1u)
      << report.summary();
}

TEST(ModelLint, AssignmentRowMismatchDetected) {
  const TinyTip tip(/*capacity=*/2, /*assignLb=*/0.0, /*assignUb=*/1.0);
  const LintReport report = lintModel(tip.view);
  EXPECT_EQ(report.count(LintKind::AssignmentRowMismatch), 1u)
      << report.summary();
}

TEST(ModelLint, NoFeasibleStartDetected) {
  const TinyTip tip(/*capacity=*/0);  // width-1 job, zero free capacity
  const LintReport report = lintModel(tip.view);
  EXPECT_EQ(report.count(LintKind::InfeasibleStartSlot), 2u)
      << report.summary();
  EXPECT_EQ(report.count(LintKind::NoFeasibleStart), 1u);
  EXPECT_TRUE(report.hasErrors());
}

TEST(ModelLint, ColumnMappingInconsistencyDetected) {
  TinyTip tip;
  tip.colSlot[1] = 5;  // column claims a start slot past the grid
  const LintReport report = lintModel(tip.view);
  EXPECT_GE(report.count(LintKind::MappingInconsistency), 1u)
      << report.summary();
  EXPECT_TRUE(report.hasErrors());
}

// ---------------------------------------------------------------------------
// Enforcement.
// ---------------------------------------------------------------------------

TEST(ModelLint, EnforceThrowsOnErrorsWhileAudited) {
  ScopedAudit audit(true);
  resetModelLintStats();
  TinyTip tip;
  tip.view.slotCapacity[0] = 7;
  EXPECT_THROW(enforceLint("test.site", lintModel(tip.view)), AuditError);
  EXPECT_EQ(modelLintStats().failed, 1u);
  EXPECT_EQ(modelLintStats().modelsLinted, 1u);
}

TEST(ModelLint, EnforceOnlyLogsWhileUnaudited) {
  ScopedAudit audit(false);
  resetModelLintStats();
  TinyTip tip;
  tip.view.slotCapacity[0] = 7;
  enforceLint("test.site", lintModel(tip.view));  // must not throw
  EXPECT_EQ(modelLintStats().failed, 1u);
}

#if defined(DYNSCHED_AUDIT_ENABLED) && DYNSCHED_AUDIT_ENABLED

tip::TipInstance makeInstance(NodeCount machine, std::vector<core::Job> jobs,
                              Time now, Time horizon, Time scale) {
  tip::TipInstance inst;
  inst.history = core::MachineHistory::empty(core::Machine{machine}, now);
  inst.jobs = std::move(jobs);
  inst.now = now;
  inst.horizon = horizon;
  inst.timeScale = scale;
  return inst;
}

TEST(ModelLintWiring, BuildModelLintsEveryTipModel) {
  ScopedAudit audit(true);
  resetModelLintStats();
  const tip::TipInstance inst = makeInstance(
      8, {makeJob(1, 0, 4, 100), makeJob(2, 10, 8, 50)}, 20, 400, 60);
  const tip::Grid grid = tip::makeGrid(inst);
  (void)tip::buildModel(inst, grid);
  EXPECT_GE(modelLintStats().modelsLinted, 1u);
  EXPECT_EQ(modelLintStats().failed, 0u);
}

// buildModel lints each attempt's model; the solver must not lint it again.
TEST(ModelLintWiring, SupervisedSolveLintsEachModelOnce) {
  ScopedAudit audit(true);
  const auto solve = [](const util::FaultPlan& faults) {
    const sim::StepSnapshot snapshot = tip::makeRequestSnapshot(
        core::MachineHistory::fromRunningJobs(core::Machine{32}, 0,
                                              {core::RunningJob{99, 16, 900}}),
        {makeJob(1, 0, 16, 600), makeJob(2, 0, 32, 300),
         makeJob(3, 0, 8, 1200), makeJob(4, 0, 24, 450)},
        0, core::MetricKind::SldWA);
    tip::SupervisedOptions options;
    options.forcedTimeScale = 60;
    options.faults = faults;
    resetModelLintStats();
    return tip::supervisedBestSchedule(snapshot, options);
  };

  const tip::SupervisedResult clean = solve(util::FaultPlan{});
  EXPECT_EQ(clean.rung, tip::SolveRung::Optimal) << clean.provenance;
  EXPECT_EQ(modelLintStats().modelsLinted, 1u);

  const tip::SupervisedResult retried =
      solve(util::FaultPlan::parse("lp-numerical-failure=1"));
  EXPECT_EQ(retried.rung, tip::SolveRung::CoarsenedRetry)
      << retried.provenance;
  EXPECT_EQ(modelLintStats().modelsLinted, 2u);
  EXPECT_EQ(modelLintStats().failed, 0u);
}

// With the runtime audit off a finding could only be logged, so buildModel
// skips the pass.
TEST(ModelLintWiring, SupervisedSolveWithAuditOffLintsNothing) {
  ScopedAudit audit(false);
  const sim::StepSnapshot snapshot = tip::makeRequestSnapshot(
      core::MachineHistory::fromRunningJobs(core::Machine{32}, 0,
                                            {core::RunningJob{99, 16, 900}}),
      {makeJob(1, 0, 16, 600), makeJob(2, 0, 32, 300), makeJob(3, 0, 8, 1200),
       makeJob(4, 0, 24, 450)},
      0, core::MetricKind::SldWA);
  tip::SupervisedOptions options;
  options.forcedTimeScale = 60;
  options.faults = util::FaultPlan{};
  resetModelLintStats();
  const tip::SupervisedResult solved =
      tip::supervisedBestSchedule(snapshot, options);
  EXPECT_EQ(solved.rung, tip::SolveRung::Optimal) << solved.provenance;
  EXPECT_EQ(modelLintStats().modelsLinted, 0u);
}

#endif  // DYNSCHED_AUDIT_ENABLED

// ---------------------------------------------------------------------------
// Regression: fixture models lint clean.
// ---------------------------------------------------------------------------

TEST(ModelLintRegression, TipFixturesLintWithoutErrors) {
  util::Rng rng(42);
  for (int round = 0; round < 12; ++round) {
    const NodeCount machine = static_cast<NodeCount>(rng.uniformInt(4, 16));
    tip::TipInstance inst;
    inst.history = core::MachineHistory::empty(core::Machine{machine}, 0);
    const int jobs = static_cast<int>(rng.uniformInt(1, 6));
    Time serialized = 0;
    for (int i = 0; i < jobs; ++i) {
      const NodeCount w = static_cast<NodeCount>(rng.uniformInt(1, machine));
      const Time d = rng.uniformInt(1, 40);
      inst.jobs.push_back(makeJob(i + 1, 0, w, d));
      serialized += d;
    }
    inst.now = 0;
    inst.timeScale = rng.bernoulli(0.5) ? 1 : 7;
    inst.horizon = serialized + 1;
    const tip::Grid grid = tip::makeGrid(inst);
    const tip::TipModel model = tip::buildModel(inst, grid);
    const LintReport report = lintModel(model.mip);
    EXPECT_FALSE(report.hasErrors())
        << "round " << round << ": " << report.summary();
  }
}

TEST(ModelLintRegression, MipFixturesLintWithoutErrors) {
  // The knapsack and assignment shapes mip_test solves.
  mip::MipModel knapsack;
  {
    std::vector<std::pair<int, double>> entries;
    const double values[] = {10, 13, 7, 11};
    const double weights[] = {5, 6, 4, 5};
    for (int i = 0; i < 4; ++i) {
      entries.emplace_back(knapsack.addIntegerVariable(0, 1, -values[i]),
                           weights[i]);
    }
    knapsack.lp.addRow(-lp::kInf, 10.0, entries);
  }
  EXPECT_FALSE(lintModel(knapsack).hasErrors());

  mip::MipModel assignment;
  {
    const int n = 3;
    std::vector<std::vector<int>> x(n, std::vector<int>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        x[i][j] = assignment.addIntegerVariable(0, 1, i + 2 * j + 1);
      }
    }
    for (int i = 0; i < n; ++i) {
      std::vector<std::pair<int, double>> row, col;
      for (int j = 0; j < n; ++j) {
        row.emplace_back(x[i][j], 1.0);
        col.emplace_back(x[j][i], 1.0);
      }
      assignment.lp.addRow(1, 1, row);
      assignment.lp.addRow(1, 1, col);
    }
  }
  const LintReport report = lintModel(assignment);
  EXPECT_FALSE(report.hasErrors()) << report.summary();
}

}  // namespace
}  // namespace dynsched::analysis
