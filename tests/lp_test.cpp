// Simplex solver tests: hand-checked instances, degenerate/edge cases,
// randomized property tests that certify optimality through the returned
// duals (feasible point + dual feasibility + complementary slackness on
// bounds is a full optimality certificate for an LP), and a differential
// suite for the dual re-solve from a parent's basis, with and without the
// parent's basis inverse, against cold solves.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "dynsched/lp/model.hpp"
#include "dynsched/lp/simplex.hpp"
#include "dynsched/tip/tim_model.hpp"
#include "dynsched/util/budget.hpp"
#include "dynsched/util/rng.hpp"
#include "dynsched/util/signals.hpp"

namespace dynsched::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(LpModel, BuildsAndEvaluates) {
  LpModel m;
  const int x = m.addVariable(0, 10, 1.0, "x");
  const int y = m.addVariable(0, 10, 2.0, "y");
  m.addRow(-kInf, 8.0, {{x, 1.0}, {y, 1.0}}, "sum");
  EXPECT_EQ(m.numVariables(), 2);
  EXPECT_EQ(m.numRows(), 1);
  EXPECT_EQ(m.numNonZeros(), 2u);
  const std::vector<double> point{3.0, 4.0};
  EXPECT_DOUBLE_EQ(m.objectiveValue(point), 11.0);
  EXPECT_DOUBLE_EQ(m.rowActivity(point)[0], 7.0);
  EXPECT_TRUE(m.isFeasible(point));
  EXPECT_FALSE(m.isFeasible({5.0, 4.0}));
}

TEST(LpModel, DuplicateEntriesAccumulate) {
  LpModel m;
  const int x = m.addVariable(0, 1, 0.0);
  const int r = m.addRow(0, 1);
  m.addEntry(r, x, 0.5);
  m.addEntry(r, x, 0.25);
  EXPECT_EQ(m.numNonZeros(), 1u);
  EXPECT_DOUBLE_EQ(m.rowActivity({1.0})[0], 0.75);
}

TEST(Simplex, TrivialBoundsOnly) {
  // No rows: minimum sits at the cheap bound of each variable.
  LpModel m;
  m.addVariable(2, 5, 3.0);    // min at lb
  m.addVariable(-4, -1, -2.0); // min at ub
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.x[0], 2.0, kTol);
  EXPECT_NEAR(s.x[1], -1.0, kTol);
  EXPECT_NEAR(s.objective, 2 * 3.0 + (-1) * -2.0, kTol);
}

TEST(Simplex, TextbookTwoVariable) {
  // max 3a + 5b s.t. a<=4, 2b<=12, 3a+2b<=18  (classic Dantzig example)
  // -> a=2, b=6, optimum 36. We minimize the negation.
  LpModel m;
  const int a = m.addVariable(0, kInf, -3.0);
  const int b = m.addVariable(0, kInf, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 12.0, {{b, 2.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, -36.0, kTol);
  EXPECT_NEAR(s.x[0], 2.0, kTol);
  EXPECT_NEAR(s.x[1], 6.0, kTol);
}

TEST(Simplex, EqualityConstraint) {
  // min x+y s.t. x+y = 5, 0<=x,y<=10 — any split, objective 5.
  LpModel m;
  const int x = m.addVariable(0, 10, 1.0);
  const int y = m.addVariable(0, 10, 1.0);
  m.addRow(5.0, 5.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 5.0, kTol);
  EXPECT_NEAR(s.x[0] + s.x[1], 5.0, kTol);
}

TEST(Simplex, RangeRow) {
  // min x s.t. 3 <= x + y <= 7, y <= 1 -> x = 2 at y = 1.
  LpModel m;
  const int x = m.addVariable(0, kInf, 1.0);
  const int y = m.addVariable(0, 1, 0.0);
  m.addRow(3.0, 7.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, 2.0, kTol);
}

TEST(Simplex, DetectsInfeasible) {
  LpModel m;
  const int x = m.addVariable(0, 1, 1.0);
  m.addRow(5.0, kInf, {{x, 1.0}});  // x >= 5 with x <= 1
  const LpSolution s = solveLp(m);
  EXPECT_EQ(s.status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsInfeasibleSystem) {
  // x + y >= 6 and x + y <= 2.
  LpModel m;
  const int x = m.addVariable(0, 10, 1.0);
  const int y = m.addVariable(0, 10, 1.0);
  m.addRow(6.0, kInf, {{x, 1.0}, {y, 1.0}});
  m.addRow(-kInf, 2.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(solveLp(m).status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpModel m;
  const int x = m.addVariable(0, kInf, -1.0);  // minimize -x, x unbounded
  m.addRow(0.0, kInf, {{x, 1.0}});
  EXPECT_EQ(solveLp(m).status, LpStatus::Unbounded);
}

TEST(Simplex, FixedVariablesDoNotCycle) {
  LpModel m;
  const int x = m.addVariable(3, 3, -10.0);  // fixed, attractive cost
  const int y = m.addVariable(0, 5, 1.0);
  m.addRow(4.0, kInf, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.x[0], 3.0, kTol);
  EXPECT_NEAR(s.x[1], 1.0, kTol);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y, x in [-5, 5], y in [-2, 8], x + y >= -4.
  LpModel m;
  const int x = m.addVariable(-5, 5, 1.0);
  const int y = m.addVariable(-2, 8, 1.0);
  m.addRow(-4.0, kInf, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, -4.0, kTol);
}

TEST(Simplex, FreeVariable) {
  // min x s.t. x >= y - 3, y = 2, x free  ->  x = -1.
  LpModel m;
  const int x = m.addVariable(-kInf, kInf, 1.0);
  const int y = m.addVariable(2, 2, 0.0);
  m.addRow(-3.0, kInf, {{x, 1.0}, {y, -1.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, -1.0, kTol);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Many redundant constraints through one vertex; Bland fallback must
  // terminate and find the optimum.
  LpModel m;
  const int x = m.addVariable(0, kInf, -1.0);
  const int y = m.addVariable(0, kInf, -1.0);
  for (int i = 0; i < 8; ++i) {
    m.addRow(-kInf, 4.0,
             {{x, 1.0 + 0.0 * i}, {y, 1.0}});  // identical rows
  }
  m.addRow(-kInf, 4.0, {{x, 2.0}, {y, 1.0}});
  m.addRow(-kInf, 4.0, {{x, 1.0}, {y, 2.0}});
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal);
  EXPECT_NEAR(s.objective, -(4.0 / 3.0 + 4.0 / 3.0), 1e-5);
}

// ---------------------------------------------------------------------------
// Property test: on random instances with a known feasible point, the solver
// must return Optimal and its (x, duals) must pass the optimality
// certificate: primal feasibility, dual sign feasibility on row activities,
// and correct reduced-cost signs at the variable bounds.
// ---------------------------------------------------------------------------

/// The optimality certificate from the duals of an Optimal solution `s`.
void expectOptimalityCertificate(const LpModel& m, const LpSolution& s,
                                 const std::string& label) {
  ASSERT_EQ(static_cast<int>(s.duals.size()), m.numRows());
  const std::vector<double> activity = m.rowActivity(s.x);
  for (int r = 0; r < m.numRows(); ++r) {
    const double y = s.duals[static_cast<std::size_t>(r)];
    const bool atLower =
        activity[static_cast<std::size_t>(r)] <= m.rowLower(r) + 1e-5;
    const bool atUpper =
        activity[static_cast<std::size_t>(r)] >= m.rowUpper(r) - 1e-5;
    // Minimization with A x = s convention: y > 0 requires the activity at
    // its lower row bound, y < 0 at its upper (complementary slackness).
    if (y > 1e-5) {
      EXPECT_TRUE(atLower) << "row " << r << " " << label;
    }
    if (y < -1e-5) {
      EXPECT_TRUE(atUpper) << "row " << r << " " << label;
    }
  }
  for (int j = 0; j < m.numVariables(); ++j) {
    double rc = m.objectiveCoef(j);
    for (const ColumnEntry& e : m.column(j)) {
      rc -= s.duals[static_cast<std::size_t>(e.row)] * e.value;
    }
    const double v = s.x[static_cast<std::size_t>(j)];
    const bool atLower = v <= m.columnLower(j) + 1e-5;
    const bool atUpper = v >= m.columnUpper(j) - 1e-5;
    if (rc > 1e-5) {
      EXPECT_TRUE(atLower) << "var " << j << " rc " << rc << " " << label;
    } else if (rc < -1e-5) {
      EXPECT_TRUE(atUpper) << "var " << j << " rc " << rc << " " << label;
    }
  }
}

struct RandomLpCase {
  std::uint64_t seed;
  int vars;
  int rows;
};

class SimplexRandomTest : public ::testing::TestWithParam<RandomLpCase> {};

TEST_P(SimplexRandomTest, OptimalWithValidCertificate) {
  const RandomLpCase param = GetParam();
  util::Rng rng(param.seed);
  LpModel m;
  // Random bounded variables and a random interior point that we make
  // feasible by construction (rows are built around its activities).
  std::vector<double> point;
  for (int j = 0; j < param.vars; ++j) {
    const double lb = rng.uniform(-5, 0);
    const double ub = lb + rng.uniform(0.5, 8);
    m.addVariable(lb, ub, rng.uniform(-3, 3));
    point.push_back(rng.uniform(lb, ub));
  }
  for (int r = 0; r < param.rows; ++r) {
    std::vector<std::pair<int, double>> entries;
    double activity = 0;
    for (int j = 0; j < param.vars; ++j) {
      if (!rng.bernoulli(0.6)) continue;
      const double coef = rng.uniform(-2, 2);
      entries.emplace_back(j, coef);
      activity += coef * point[static_cast<std::size_t>(j)];
    }
    if (entries.empty()) continue;
    switch (rng.uniformInt(0, 2)) {
      case 0:  // <= with slack
        m.addRow(-kInf, activity + rng.uniform(0, 2), entries);
        break;
      case 1:  // >= with slack
        m.addRow(activity - rng.uniform(0, 2), kInf, entries);
        break;
      default:  // range containing the point
        m.addRow(activity - rng.uniform(0, 1), activity + rng.uniform(0, 1),
                 entries);
        break;
    }
  }

  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal) << "seed " << param.seed;
  ASSERT_TRUE(m.isFeasible(s.x, 1e-5));
  EXPECT_LE(s.objective, m.objectiveValue(point) + 1e-6);
  expectOptimalityCertificate(m, s, "seed " + std::to_string(param.seed));
}

// Equality-heavy instances (assignment-like rows) anchored at a feasible
// point — the shape of the time-indexed models' Eq. 3 rows.
class SimplexEqualityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexEqualityTest, SolvesEqualityHeavySystems) {
  util::Rng rng(GetParam());
  LpModel m;
  const int vars = static_cast<int>(rng.uniformInt(4, 20));
  std::vector<double> point;
  for (int j = 0; j < vars; ++j) {
    const double lb = 0.0, ub = rng.uniform(1, 4);
    m.addVariable(lb, ub, rng.uniform(-2, 2));
    point.push_back(rng.uniform(lb, ub));
  }
  const int eqRows = static_cast<int>(rng.uniformInt(1, vars / 2 + 1));
  for (int r = 0; r < eqRows; ++r) {
    std::vector<std::pair<int, double>> entries;
    double activity = 0;
    for (int j = 0; j < vars; ++j) {
      if (!rng.bernoulli(0.5)) continue;
      const double coef = rng.uniform(0.2, 2);  // positive, like Eq. 3/4
      entries.emplace_back(j, coef);
      activity += coef * point[static_cast<std::size_t>(j)];
    }
    if (entries.empty()) continue;
    m.addRow(activity, activity, entries);  // equality through the point
  }
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, LpStatus::Optimal) << "seed " << GetParam();
  EXPECT_TRUE(m.isFeasible(s.x, 1e-5));
  EXPECT_LE(s.objective, m.objectiveValue(point) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SimplexEqualityTest,
                         ::testing::Range<std::uint64_t>(3000, 3030));

std::vector<RandomLpCase> randomLpCases() {
  std::vector<RandomLpCase> cases;
  std::uint64_t seed = 1000;
  for (const int vars : {2, 3, 5, 8, 12, 20}) {
    for (const int rows : {1, 3, 6, 12}) {
      for (int rep = 0; rep < 3; ++rep) {
        cases.push_back(RandomLpCase{seed++, vars, rows});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SimplexRandomTest,
                         ::testing::ValuesIn(randomLpCases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_v" + std::to_string(info.param.vars) +
                                  "_r" + std::to_string(info.param.rows);
                         });


TEST(Simplex, CancelDeadlineNowStopsBeforeFirstPivot) {
  // The deadline is polled at the head of every iteration, so an already
  // expired deadline is honored with zero pivots — the guaranteed overshoot
  // bound of one iteration.
  LpModel m;
  const int a = m.addVariable(0, kInf, -3.0);
  const int b = m.addVariable(0, kInf, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 12.0, {{b, 2.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  util::FaultPlan faults;
  faults.deadlineNow = true;
  util::CancelToken token({}, faults);
  const LpSolution s = solveLp(m, &token);
  EXPECT_EQ(s.status, LpStatus::Cancelled);
  EXPECT_EQ(s.iterations, 0);
  EXPECT_EQ(token.reason(), util::CancelReason::Deadline);
}

TEST(Simplex, CancelIterationBudgetBoundsPivots) {
  // A shared one-iteration budget stops the solve after at most one pivot
  // even though the instance needs several — the mechanism that keeps a
  // degenerate node LP inside branch & bound from overrunning a step.
  LpModel m;
  const int a = m.addVariable(0, kInf, -3.0);
  const int b = m.addVariable(0, kInf, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 12.0, {{b, 2.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  util::SolveBudget budget;
  budget.maxLpIterations = 1;
  util::CancelToken token(budget);
  const LpSolution s = solveLp(m, &token);
  EXPECT_EQ(s.status, LpStatus::Cancelled);
  EXPECT_LE(s.iterations, 1);
  EXPECT_EQ(token.reason(), util::CancelReason::LpIterationLimit);
}

TEST(Simplex, ProcessInterruptCancelsWithInterruptedReason) {
  // The SIGINT/SIGTERM flag rides on every token poll: a solve in flight
  // when the user hits Ctrl-C stops as Cancelled/Interrupted, which the
  // journaled study uses to discard the half-done row before flushing.
  LpModel m;
  const int a = m.addVariable(0, kInf, -3.0);
  const int b = m.addVariable(0, kInf, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 12.0, {{b, 2.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  util::requestInterrupt();
  util::CancelToken token;
  const LpSolution s = solveLp(m, &token);
  util::clearInterrupt();
  EXPECT_EQ(s.status, LpStatus::Cancelled);
  EXPECT_EQ(token.reason(), util::CancelReason::Interrupted);
}

TEST(Simplex, RequestCancelStopsTheSolve) {
  LpModel m;
  const int a = m.addVariable(0, kInf, -3.0);
  const int b = m.addVariable(0, kInf, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  util::CancelToken token;
  token.requestCancel(util::CancelReason::Interrupted);
  const LpSolution s = solveLp(m, &token);
  EXPECT_EQ(s.status, LpStatus::Cancelled);
  EXPECT_EQ(token.reason(), util::CancelReason::Interrupted);
}

TEST(Simplex, InjectedNumericalFailureConsumesOneFault) {
  LpModel m;
  m.addVariable(2, 5, 3.0);
  util::FaultPlan faults;
  faults.lpFailures = 1;
  util::CancelToken token({}, faults);
  EXPECT_EQ(solveLp(m, &token).status, LpStatus::NumericalFailure);
  // The fault is consumed; the same token lets the next solve through.
  EXPECT_EQ(solveLp(m, &token).status, LpStatus::Optimal);
}

// ---------------------------------------------------------------------------
// Basis reuse: a child LP as branch & bound makes it (bound fixings, appended
// cut rows) solved from its parent's optimal basis by the dual simplex must
// give the cold solve's answer.
// ---------------------------------------------------------------------------

/// A random LP with finite bounds, feasible by construction, whose columns
/// fall into contiguous groups (the stand-in for SOS1 branch groups).
LpModel randomBoundedLp(util::Rng& rng, std::vector<std::vector<int>>& groups) {
  LpModel m;
  const int vars = static_cast<int>(rng.uniformInt(4, 24));
  std::vector<double> point;
  for (int j = 0; j < vars; ++j) {
    const double lb = rng.uniform(-5, 0);
    const double ub = lb + rng.uniform(0.5, 8);
    m.addVariable(lb, ub, rng.uniform(-3, 3));
    point.push_back(rng.uniform(lb, ub));
  }
  const int rows = static_cast<int>(rng.uniformInt(1, 14));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> entries;
    double activity = 0;
    for (int j = 0; j < vars; ++j) {
      if (!rng.bernoulli(0.6)) continue;
      const double coef = rng.uniform(-2, 2);
      entries.emplace_back(j, coef);
      activity += coef * point[static_cast<std::size_t>(j)];
    }
    if (entries.empty()) continue;
    if (rng.bernoulli(0.5)) {
      m.addRow(-kInf, activity + rng.uniform(0, 2), entries);
    } else {
      m.addRow(activity - rng.uniform(0, 1), activity + rng.uniform(0, 1),
               entries);
    }
  }
  for (int first = 0; first < vars;) {
    const int size = static_cast<int>(rng.uniformInt(2, 6));
    groups.emplace_back();
    for (int j = first; j < std::min(vars, first + size); ++j) {
      groups.back().push_back(j);
    }
    first += size;
  }
  return m;
}

/// A small time-indexed model (paper Eq. 1-5) of 2-4 jobs at scale 1; its
/// per-job start columns are the branch groups.
LpModel smallTimeIndexedLp(util::Rng& rng,
                           std::vector<std::vector<int>>& groups) {
  tip::TipInstance inst;
  const NodeCount machine = static_cast<NodeCount>(rng.uniformInt(4, 12));
  inst.history = core::MachineHistory::empty(core::Machine{machine}, 0);
  Time total = 0;
  const int jobs = static_cast<int>(rng.uniformInt(2, 4));
  for (int i = 0; i < jobs; ++i) {
    core::Job job;
    job.id = i + 1;
    job.width = static_cast<NodeCount>(rng.uniformInt(1, machine));
    job.estimate = rng.uniformInt(1, 12);
    job.actualRuntime = job.estimate;
    total += job.estimate;
    inst.jobs.push_back(job);
  }
  inst.horizon = total;
  inst.timeScale = 1;
  tip::TipModel model = tip::buildModel(inst, tip::makeGrid(inst));
  groups = model.jobColumns;
  return model.mip.lp;
}

/// Branches `model` once: a block at one end of a random group is fixed at
/// its lower bound (the SOS1 dichotomy of mip::solveMip), and half the time
/// a `<=` row the parent optimum `x` violates is appended, as a cut.
void branch(LpModel& model, const std::vector<std::vector<int>>& groups,
            const std::vector<double>& x, util::Rng& rng) {
  const auto& group = groups[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<long>(groups.size()) - 1))];
  const std::size_t split = static_cast<std::size_t>(
      rng.uniformInt(1, static_cast<long>(group.size())));
  const bool head = rng.bernoulli(0.5);
  for (std::size_t k = 0; k < group.size(); ++k) {
    if ((k < split) != head) continue;
    const int col = group[k];
    model.setColumnBounds(col, model.columnLower(col), model.columnLower(col));
  }
  if (!rng.bernoulli(0.5)) return;
  std::vector<std::pair<int, double>> entries;
  double activity = 0;
  for (int j = 0; j < model.numVariables(); ++j) {
    if (!rng.bernoulli(0.5)) continue;
    const double coef = rng.uniform(0.1, 2);
    entries.emplace_back(j, coef);
    activity += coef * x[static_cast<std::size_t>(j)];
  }
  if (entries.empty()) return;
  model.addRow(-kInf, activity - rng.uniform(0.05, 1), entries);
}

/// Solves `model` three ways: from `start` with the inverse its solve
/// carried (adopted while the rows still match), from the same basis
/// stripped of it (refactorized), and cold. All three must agree. Returns
/// the first, whose basis and inverse seed the next level.
LpSolution expectSameThreeWays(const LpModel& model, const LpBasis& start,
                               const std::string& label) {
  const LpSolution cold = solveLp(model);
  LpBasis stripped = start;
  stripped.inverse.clear();
  const LpSolution refactored = solveLp(model, nullptr, &stripped);
  LpSolution carried = solveLp(model, nullptr, &start);
  using Way = std::pair<const LpSolution*, const char*>;
  for (const auto& [warm, how] : {Way{&carried, " (inverse carried)"},
                                  Way{&refactored, " (refactorized)"}}) {
    const std::string where = label + how;
    EXPECT_FALSE(warm->coldFallback) << where;
    EXPECT_EQ(warm->status, cold.status) << where;
    if (!cold.optimal() || !warm->optimal()) continue;
    EXPECT_NEAR(warm->objective, cold.objective,
                1e-9 * std::max(1.0, std::fabs(cold.objective)))
        << where;
    EXPECT_TRUE(model.isFeasible(warm->x, 1e-7)) << where;
    expectOptimalityCertificate(model, *warm, where);
  }
  return carried;
}

/// Three levels of branching below a cold root; every level re-solves from
/// its parent's basis, with and without the parent's inverse.
void checkBranchChain(const LpModel& root,
                      const std::vector<std::vector<int>>& groups,
                      util::Rng& rng, const std::string& label) {
  LpSolution parent = solveLp(root);
  ASSERT_TRUE(parent.optimal()) << label;
  LpModel model = root;
  for (int depth = 1; depth <= 3; ++depth) {
    if (parent.basis.basic.empty()) return;  // an artificial stayed basic
    branch(model, groups, parent.x, rng);
    parent = expectSameThreeWays(model, parent.basis,
                                 label + " depth " + std::to_string(depth));
    if (!parent.optimal()) return;
  }
}

class DualResolveRandomTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DualResolveRandomTest, RandomLpChildrenMatchColdSolves) {
  util::Rng rng(GetParam());
  std::vector<std::vector<int>> groups;
  const LpModel root = randomBoundedLp(rng, groups);
  for (int child = 0; child < 4; ++child) {
    checkBranchChain(root, groups, rng,
                     "seed " + std::to_string(GetParam()) + " child " +
                         std::to_string(child));
  }
}

TEST_P(DualResolveRandomTest, TimeIndexedChildrenMatchColdSolves) {
  util::Rng rng(GetParam());
  std::vector<std::vector<int>> groups;
  const LpModel root = smallTimeIndexedLp(rng, groups);
  for (int child = 0; child < 4; ++child) {
    checkBranchChain(root, groups, rng,
                     "seed " + std::to_string(GetParam()) + " child " +
                         std::to_string(child));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DualResolveRandomTest,
                         ::testing::Range<std::uint64_t>(7000, 7060));

/// max 3a + 5b s.t. a <= 4, 2b <= 12, 3a + 2b <= 18 (as a minimization).
LpModel textbookLp() {
  LpModel m;
  const int a = m.addVariable(0, 10, -3.0);
  const int b = m.addVariable(0, 10, -5.0);
  m.addRow(-kInf, 4.0, {{a, 1.0}});
  m.addRow(-kInf, 12.0, {{b, 2.0}});
  m.addRow(-kInf, 18.0, {{a, 3.0}, {b, 2.0}});
  return m;
}

void expectColdAnswer(const LpModel& m, const LpBasis& start) {
  const LpSolution cold = solveLp(m);
  const LpSolution s = solveLp(m, nullptr, &start);
  EXPECT_TRUE(s.coldFallback);
  ASSERT_EQ(s.status, cold.status);
  EXPECT_DOUBLE_EQ(s.objective, cold.objective);
  EXPECT_EQ(s.x, cold.x);
}

TEST(DualResolve, OptimalStartNeedsNoPivot) {
  const LpModel m = textbookLp();
  const LpSolution cold = solveLp(m);
  ASSERT_TRUE(cold.optimal());
  ASSERT_EQ(cold.basis.basic.size(), 3u);
  ASSERT_EQ(cold.basis.columns(), 2);
  ASSERT_EQ(cold.basis.inverse.size(), 9u);  // the inverse comes along
  const LpSolution again = solveLp(m, nullptr, &cold.basis);
  EXPECT_FALSE(again.coldFallback);
  EXPECT_EQ(again.iterations, 0);
  EXPECT_EQ(again.refactorizations, 0);  // the carried inverse is adopted
  EXPECT_NEAR(again.objective, -36.0, kTol);
}

TEST(DualResolve, StartWithoutInverseRefactorizesOnce) {
  const LpModel m = textbookLp();
  LpBasis start = solveLp(m).basis;
  start.inverse.clear();
  const LpSolution s = solveLp(m, nullptr, &start);
  EXPECT_FALSE(s.coldFallback);
  EXPECT_EQ(s.iterations, 0);
  EXPECT_EQ(s.refactorizations, 1);
  EXPECT_NEAR(s.objective, -36.0, kTol);
}

TEST(DualResolve, MovedStartHandsItsInverseOver) {
  // A child that needs pivots, solved from a start no one else needs: the
  // solve takes the inverse without a copy and hands back its own.
  LpModel m = textbookLp();
  LpBasis start = solveLp(m).basis;
  m.setColumnBounds(1, 0, 1);  // b <= 1 cuts the optimum b = 6 off
  const LpSolution cold = solveLp(m);
  const LpSolution s = solveLp(m, nullptr, std::move(start));
  EXPECT_TRUE(start.inverse.empty());  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(s.optimal());
  EXPECT_FALSE(s.coldFallback);
  EXPECT_GT(s.iterations, 0);
  EXPECT_EQ(s.refactorizations, 0);
  EXPECT_EQ(s.basis.updates, s.iterations);  // one update per dual pivot
  EXPECT_EQ(s.basis.inverse.size(), 9u);
  EXPECT_NEAR(s.objective, cold.objective, kTol);
}

TEST(DualResolve, StartTakenBeforeAnAppendedRowRefactorizes) {
  // The parent's inverse covers three rows; the child has a fourth (a cut
  // the parent optimum a = 2, b = 6 violates), so it cannot be adopted.
  LpModel m = textbookLp();
  const LpBasis start = solveLp(m).basis;
  ASSERT_EQ(start.inverse.size(), 9u);
  m.addRow(-kInf, 7.0, {{0, 1.0}, {1, 1.0}});
  const LpSolution cold = solveLp(m);
  const LpSolution s = solveLp(m, nullptr, &start);
  ASSERT_TRUE(s.optimal());
  EXPECT_FALSE(s.coldFallback);
  EXPECT_EQ(s.refactorizations, 1);
  EXPECT_EQ(s.basis.inverse.size(), 16u);
  EXPECT_NEAR(s.objective, cold.objective, kTol);
}

TEST(DualResolve, InverseIsRefreshedAfter120Updates) {
  // A carried inverse already due for its periodic refresh is refactorized
  // on install instead of adopted.
  const LpModel m = textbookLp();
  LpBasis start = solveLp(m).basis;
  start.updates = 120;
  const LpSolution s = solveLp(m, nullptr, &start);
  EXPECT_FALSE(s.coldFallback);
  EXPECT_EQ(s.refactorizations, 1);
  EXPECT_EQ(s.basis.updates, 0);
  start.updates = 119;
  EXPECT_EQ(solveLp(m, nullptr, &start).refactorizations, 0);
}

TEST(DualResolve, WrongSizeStartSolvesCold) {
  const LpModel m = textbookLp();
  LpBasis start = solveLp(m).basis;
  LpBasis moreColumns = start;
  moreColumns.status.insert(moreColumns.status.begin(), VarStatus::AtLower);
  expectColdAnswer(m, moreColumns);
  LpBasis moreRows = start;
  moreRows.basic.push_back(5);
  moreRows.status.push_back(VarStatus::Basic);
  expectColdAnswer(m, moreRows);
}

TEST(DualResolve, SingularStartSolvesCold) {
  // Columns a and c are parallel, so a basis holding both is singular.
  LpModel m;
  const int a = m.addVariable(0, 10, -1.0);
  const int b = m.addVariable(0, 10, -1.0);
  const int c = m.addVariable(0, 10, 1.0);
  m.addRow(-kInf, 8.0, {{a, 1.0}, {b, 1.0}, {c, 2.0}});
  m.addRow(-kInf, 9.0, {{a, 2.0}, {b, 1.0}, {c, 4.0}});
  LpBasis start;
  start.basic = {a, c};
  start.status = {VarStatus::Basic, VarStatus::AtLower, VarStatus::Basic,
                  VarStatus::AtUpper, VarStatus::AtUpper};
  expectColdAnswer(m, start);
}

TEST(DualResolve, DualInfeasibleStartSolvesCold) {
  // The optimal basis of one objective is not dual feasible for the
  // opposite one.
  LpModel m = textbookLp();
  const LpBasis start = solveLp(m).basis;
  m.setObjectiveCoef(0, 3.0);
  m.setObjectiveCoef(1, 5.0);
  expectColdAnswer(m, start);
}

TEST(DualResolve, InjectedFailureIsConsultedOncePerSolve) {
  // lp-numerical-failure consumes one solve whichever path it would take.
  const LpModel m = textbookLp();
  const LpBasis start = solveLp(m).basis;
  util::FaultPlan faults;
  faults.lpFailures = 1;
  util::CancelToken token({}, faults);
  EXPECT_EQ(solveLp(m, &token, &start).status, LpStatus::NumericalFailure);
  const LpSolution s = solveLp(m, &token, &start);
  EXPECT_EQ(s.status, LpStatus::Optimal);
  EXPECT_FALSE(s.coldFallback);
}

TEST(DualResolve, DualPivotsCountTowardTheIterationBudget) {
  // A child whose re-solve needs pivots stops at a one-pivot budget.
  LpModel m = textbookLp();
  const LpBasis start = solveLp(m).basis;
  m.setColumnBounds(1, 0, 1);  // b <= 1 cuts the optimum b = 6 off
  util::SolveBudget budget;
  budget.maxLpIterations = 1;
  util::CancelToken token(budget);
  const LpSolution s = solveLp(m, &token, &start);
  EXPECT_EQ(s.status, LpStatus::Cancelled);
  EXPECT_LE(s.iterations, 1);
  EXPECT_EQ(token.reason(), util::CancelReason::LpIterationLimit);
}

}  // namespace
}  // namespace dynsched::lp
