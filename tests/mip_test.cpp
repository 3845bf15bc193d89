// Branch & bound tests: knapsacks and assignment problems with known
// optima, warm starts, limits, randomized cross-checks against exhaustive
// enumeration over the integer grid, and the basis inverses children take
// over from their parents (reproducible, bounded per solve).
#include <cmath>
#include <functional>
#include <thread>

#include <gtest/gtest.h>

#include "dynsched/mip/mip.hpp"
#include "dynsched/util/rng.hpp"
#include "dynsched/util/signals.hpp"

namespace dynsched::mip {
namespace {

constexpr double kTol = 1e-6;

MipModel knapsack(const std::vector<double>& values,
                  const std::vector<double>& weights, double capacity) {
  // max Σ v x  ->  min Σ (−v) x,  Σ w x <= capacity, x binary.
  MipModel m;
  std::vector<std::pair<int, double>> entries;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const int col = m.addIntegerVariable(0, 1, -values[i]);
    entries.emplace_back(col, weights[i]);
  }
  m.lp.addRow(-lp::kInf, capacity, entries);
  return m;
}

TEST(Mip, SmallKnapsackOptimal) {
  // values 10,13,7,11; weights 5,6,4,5; cap 10 -> best {10,11} = 21.
  const MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  const MipResult r = solveMip(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, -21.0, kTol);
  EXPECT_NEAR(r.bestBound, r.objective, 1e-4);
  EXPECT_NEAR(r.gap(), 0.0, 1e-6);
}

TEST(Mip, PureLpIntegralSolvesAtRoot) {
  // Totally unimodular assignment: LP relaxation is already integral.
  MipModel m;
  const int n = 3;
  std::vector<std::vector<int>> x(n, std::vector<int>(n));
  const double cost[3][3] = {{4, 2, 8}, {4, 3, 7}, {3, 1, 6}};
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      x[i][j] = m.addIntegerVariable(0, 1, cost[i][j]);
    }
  }
  for (int i = 0; i < n; ++i) {
    std::vector<std::pair<int, double>> row, col;
    for (int j = 0; j < n; ++j) {
      row.emplace_back(x[i][j], 1.0);
      col.emplace_back(x[j][i], 1.0);
    }
    m.lp.addRow(1, 1, row);
    m.lp.addRow(1, 1, col);
  }
  const MipResult r = solveMip(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  // Optimal assignment: (0,1)=2, (1,2)=7... enumerate: best is 2+7+3=12 via
  // i0->j1, i1->j2, i2->j0; check alternatives: 4+3+6=13, 8+4+1=13, ...
  EXPECT_NEAR(r.objective, 12.0, kTol);
}

TEST(Mip, InfeasibleIntegerModel) {
  // 2x = 1 with x integer in [0, 3]: LP feasible, no integer point.
  MipModel m;
  const int x = m.addIntegerVariable(0, 3, 1.0);
  m.lp.addRow(1.0, 1.0, {{x, 2.0}});
  const MipResult r = solveMip(m);
  EXPECT_EQ(r.status, MipStatus::Infeasible);
  EXPECT_FALSE(r.hasSolution());
}

TEST(Mip, WarmStartAccepted) {
  MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  MipOptions options;
  options.warmStart = std::vector<double>{1, 0, 1, 0};  // value 17, feasible
  const MipResult r = solveMip(m, options);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, -21.0, kTol);  // improves past the warm start
}

TEST(Mip, InfeasibleWarmStartIgnored) {
  MipModel m = knapsack({10, 13}, {5, 6}, 10);
  MipOptions options;
  options.warmStart = std::vector<double>{1, 1};  // weight 11 > 10
  const MipResult r = solveMip(m, options);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, -13.0, kTol);
}

TEST(Mip, NodeLimitReportsGap) {
  // A hard-ish knapsack with a tiny node limit: must stop with an
  // incumbent (root heuristics/warm plunge) or no-solution, never Optimal
  // with a wrong value.
  util::Rng rng(7);
  std::vector<double> values, weights;
  for (int i = 0; i < 18; ++i) {
    values.push_back(rng.uniform(5, 50));
    weights.push_back(rng.uniform(4, 30));
  }
  const MipModel m = knapsack(values, weights, 60);
  MipOptions options;
  options.maxNodes = 3;
  const MipResult limited = solveMip(m, options);
  const MipResult full = solveMip(m);
  ASSERT_EQ(full.status, MipStatus::Optimal);
  if (limited.hasSolution()) {
    EXPECT_GE(limited.objective, full.objective - kTol);
    EXPECT_LE(limited.bestBound, full.objective + kTol);
  }
}

TEST(Mip, ObjectiveIntegralTighteningStillCorrect) {
  const MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  MipOptions options;
  options.objectiveIsIntegral = true;
  const MipResult r = solveMip(m, options);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, -21.0, kTol);
}

TEST(Mip, RoundingHeuristicFindsIncumbents) {
  const MipModel m = knapsack({10, 13, 7, 11, 9, 6}, {5, 6, 4, 5, 3, 2}, 12);
  MipOptions options;
  long calls = 0;
  options.roundingHeuristic =
      [&calls](const std::vector<double>& x)
      -> std::optional<std::vector<double>> {
    ++calls;
    std::vector<double> rounded(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      rounded[i] = x[i] > 0.9 ? 1.0 : 0.0;  // keep only near-certain items
    return rounded;
  };
  const MipResult r = solveMip(m, options);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_GT(calls, 0);
}

TEST(Mip, CoverCutsTightenKnapsackRoot) {
  // Three items of weight 2 into capacity 3: LP packs 1.5 items, the cover
  // cut x1+x2+x3 <= 1 closes the gap. With cuts the search needs fewer
  // nodes than without, and both find the optimum.
  const MipModel m = knapsack({10, 9, 8}, {2, 2, 2}, 3);
  MipOptions without;
  without.coverCutRounds = 0;
  MipOptions with;
  with.coverCutRounds = 2;
  const MipResult a = solveMip(m, without);
  const MipResult b = solveMip(m, with);
  ASSERT_EQ(a.status, MipStatus::Optimal);
  ASSERT_EQ(b.status, MipStatus::Optimal);
  EXPECT_NEAR(a.objective, -10.0, kTol);
  EXPECT_NEAR(b.objective, -10.0, kTol);
  EXPECT_LE(b.nodes, a.nodes);
}

TEST(Mip, CoverCutsSkipIneligibleRows) {
  // Negative coefficients and non-binary columns must not produce cuts
  // (they would be invalid); the solve must stay correct.
  MipModel m;
  const int x = m.addIntegerVariable(0, 3, -2.0);   // non-binary
  const int y = m.addIntegerVariable(0, 1, -5.0);
  m.lp.addRow(-lp::kInf, 2.0, {{x, 1.0}, {y, -1.0}});  // negative coef
  MipOptions options;
  options.coverCutRounds = 3;
  const MipResult r = solveMip(m, options);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  // x <= 2 + y; best: y=1, x=3 -> -11.
  EXPECT_NEAR(r.objective, -11.0, kTol);
}

// ---------------------------------------------------------------------------
// Randomized cross-check against brute-force enumeration.
// ---------------------------------------------------------------------------

struct RandomMipCase {
  std::uint64_t seed;
  int vars;   ///< binary variables (enumeration is 2^vars)
  int rows;
};

class MipRandomTest : public ::testing::TestWithParam<RandomMipCase> {};

TEST_P(MipRandomTest, MatchesBruteForce) {
  const RandomMipCase param = GetParam();
  util::Rng rng(param.seed);
  MipModel m;
  for (int j = 0; j < param.vars; ++j) {
    m.addIntegerVariable(0, 1, rng.uniform(-10, 10));
  }
  for (int r = 0; r < param.rows; ++r) {
    std::vector<std::pair<int, double>> entries;
    for (int j = 0; j < param.vars; ++j) {
      if (rng.bernoulli(0.7)) entries.emplace_back(j, rng.uniform(-4, 4));
    }
    if (entries.empty()) continue;
    // Right-hand side wide enough that all-zeros stays feasible.
    m.lp.addRow(-lp::kInf, rng.uniform(0, 6), entries);
  }

  // Brute force over all 0/1 points.
  double bestObjective = 0;
  bool haveBest = false;
  std::vector<double> x(static_cast<std::size_t>(param.vars), 0.0);
  for (unsigned mask = 0; mask < (1u << param.vars); ++mask) {
    for (int j = 0; j < param.vars; ++j) {
      x[static_cast<std::size_t>(j)] = (mask >> j) & 1u ? 1.0 : 0.0;
    }
    if (!m.lp.isFeasible(x, 1e-9)) continue;
    const double obj = m.lp.objectiveValue(x);
    if (!haveBest || obj < bestObjective) {
      bestObjective = obj;
      haveBest = true;
    }
  }
  ASSERT_TRUE(haveBest);  // all-zeros is feasible by construction

  const MipResult r = solveMip(m);
  ASSERT_EQ(r.status, MipStatus::Optimal) << "seed " << param.seed;
  EXPECT_NEAR(r.objective, bestObjective, 1e-5) << "seed " << param.seed;
  EXPECT_TRUE(m.lp.isFeasible(r.x, 1e-5));
}

std::vector<RandomMipCase> randomMipCases() {
  std::vector<RandomMipCase> cases;
  std::uint64_t seed = 4200;
  for (const int vars : {3, 5, 8, 11, 14}) {
    for (const int rows : {1, 3, 7}) {
      for (int rep = 0; rep < 3; ++rep) {
        cases.push_back(RandomMipCase{seed++, vars, rows});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MipRandomTest,
                         ::testing::ValuesIn(randomMipCases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_v" + std::to_string(info.param.vars) +
                                  "_r" + std::to_string(info.param.rows);
                         });


// ---------------------------------------------------------------------------
// Basis inverses handed from parents to children.
// ---------------------------------------------------------------------------

/// A knapsack over `items` binaries with three capacity rows (items of
/// similar value density, so the tree branches), plus `looseRows` rows
/// x_j + x_{j+1} <= 3 that no point within the bounds can violate: they
/// leave the optimum and the tree alone and only make the basis bigger.
MipModel multiKnapsack(std::uint64_t seed, int items, int looseRows) {
  util::Rng rng(seed);
  MipModel m;
  std::vector<std::vector<std::pair<int, double>>> rows(3);
  for (int j = 0; j < items; ++j) {
    const int col = m.addIntegerVariable(0, 1, -rng.uniform(10, 12));
    for (auto& row : rows) row.emplace_back(col, rng.uniform(4, 8));
  }
  for (const auto& row : rows) {
    m.lp.addRow(-lp::kInf, 3.0 * static_cast<double>(items), row);
  }
  for (int r = 0; r < looseRows; ++r) {
    const int j = r % items;
    m.lp.addRow(-lp::kInf, 3.0, {{j, 1.0}, {(j + 1) % items, 1.0}});
  }
  return m;
}

TEST(Mip, ChildrenAdoptTheirParentsInverse) {
  const MipModel m = multiKnapsack(31, 24, 0);
  const MipResult r = solveMip(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  ASSERT_GT(r.nodes, 20);
  // Without the inverse every node LP would factorize at least once.
  EXPECT_LT(r.refactorizations, r.nodes / 2);
}

TEST(Mip, RepeatedAndConcurrentSolvesAgree) {
  // Whether a child adopts its parent's inverse depends on the solve's own
  // parked budget alone, so neither a second run nor a concurrent one may
  // change a pivot. The loose rows make the inverses big enough to fill
  // the budget (see the next test).
  const MipModel m = multiKnapsack(57, 8, 800);
  const MipResult first = solveMip(m);
  ASSERT_EQ(first.status, MipStatus::Optimal);
  MipResult again = solveMip(m);
  MipResult left, right;
  std::thread a([&] { left = solveMip(m); });
  std::thread b([&] { right = solveMip(m); });
  a.join();
  b.join();
  for (const MipResult* r : {&again, &left, &right}) {
    EXPECT_EQ(r->status, first.status);
    EXPECT_EQ(r->x, first.x);
    EXPECT_EQ(r->nodes, first.nodes);
    EXPECT_EQ(r->lpIterations, first.lpIterations);
    EXPECT_EQ(r->refactorizations, first.refactorizations);
  }
}

TEST(Mip, OverflowingTheParkedInverseBudgetKeepsTheOptimum) {
  // 800 loose rows make each inverse about 5 MB, so only a few fit the
  // per-solve budget and the other children refactorize.
  const MipModel compact = multiKnapsack(57, 8, 0);
  const MipModel padded = multiKnapsack(57, 8, 800);
  const MipResult small = solveMip(compact);
  const MipResult big = solveMip(padded);
  ASSERT_EQ(small.status, MipStatus::Optimal);
  ASSERT_EQ(big.status, MipStatus::Optimal);
  EXPECT_NEAR(big.objective, small.objective, kTol);
  EXPECT_TRUE(padded.lp.isFeasible(big.x, 1e-6));
  EXPECT_GT(big.refactorizations, small.refactorizations);
}

TEST(Mip, CancelDeadlineNowWithoutIncumbentIsNoSolutionLimit) {
  const MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  util::FaultPlan faults;
  faults.deadlineNow = true;
  util::CancelToken token({}, faults);
  MipOptions options;
  options.cancel = &token;
  const MipResult r = solveMip(m, options);
  EXPECT_EQ(r.status, MipStatus::NoSolutionLimit);
  EXPECT_EQ(r.stopReason, util::CancelReason::Deadline);
  EXPECT_NE(r.message.find("budget cancelled (deadline)"),
            std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find("before any incumbent was found"),
            std::string::npos)
      << r.message;
}

TEST(Mip, CancelDeadlineNowKeepsWarmStartIncumbent) {
  const MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  util::FaultPlan faults;
  faults.deadlineNow = true;
  util::CancelToken token({}, faults);
  MipOptions options;
  options.cancel = &token;
  options.warmStart = std::vector<double>{1, 0, 1, 0};  // value 17, feasible
  const MipResult r = solveMip(m, options);
  EXPECT_EQ(r.status, MipStatus::FeasibleLimit);
  EXPECT_EQ(r.stopReason, util::CancelReason::Deadline);
  EXPECT_NEAR(r.objective, -17.0, kTol);
  EXPECT_GT(r.gap(), 0.0);
}

TEST(Mip, InjectedNodeFailureIsErrorWithDiagnosis) {
  // Error must stay distinct from NoSolutionLimit: the message names the
  // failing node so callers can report *why* the solver died, not just that
  // no schedule came back.
  const MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  util::FaultPlan faults;
  faults.failAtNode = 1;
  util::CancelToken token({}, faults);
  MipOptions options;
  options.cancel = &token;
  const MipResult r = solveMip(m, options);
  EXPECT_EQ(r.status, MipStatus::Error);
  EXPECT_FALSE(r.hasSolution());
  EXPECT_NE(r.message.find("injected LP failure at node 1"),
            std::string::npos)
      << r.message;
}

TEST(Mip, RootLpNumericalFailureIsErrorNamingTheNode) {
  const MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  util::FaultPlan faults;
  faults.lpFailures = util::FaultPlan::kAllSolves;
  util::CancelToken token({}, faults);
  MipOptions options;
  options.cancel = &token;
  const MipResult r = solveMip(m, options);
  EXPECT_EQ(r.status, MipStatus::Error);
  EXPECT_NE(r.message.find("numerical-failure"), std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find("node 1"), std::string::npos) << r.message;
}

TEST(Mip, SharedIterationBudgetStopsInsideNodeLp) {
  // Regression for the degenerate-node-LP hole: before the CancelToken the
  // per-node simplex ran to ITS OWN iteration limit regardless of the step
  // budget. A one-iteration shared budget must now stop the solve inside
  // the first node relaxation.
  const MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  util::SolveBudget budget;
  budget.maxLpIterations = 1;
  util::CancelToken token(budget);
  MipOptions options;
  options.cancel = &token;
  const MipResult r = solveMip(m, options);
  EXPECT_EQ(r.status, MipStatus::NoSolutionLimit);
  EXPECT_EQ(r.stopReason, util::CancelReason::LpIterationLimit);
  EXPECT_LE(r.lpIterations, 1);
  EXPECT_NE(r.message.find("inside the LP of node"), std::string::npos)
      << r.message;
}

TEST(Mip, NodeBudgetStopsTheSearch) {
  const MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  util::SolveBudget budget;
  budget.maxNodes = 1;
  util::CancelToken token(budget);
  MipOptions options;
  options.cancel = &token;
  options.coverCutRounds = 0;
  const MipResult r = solveMip(m, options);
  EXPECT_EQ(r.stopReason, util::CancelReason::NodeLimit);
  EXPECT_FALSE(r.message.empty());
}

TEST(Mip, ProcessInterruptStopsWithInterruptedReason) {
  // MipResult.stopReason must carry Interrupted end to end so a journaled
  // study can tell a Ctrl-C'd row from a genuine budget hit.
  const MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  util::requestInterrupt();
  util::CancelToken token;
  MipOptions options;
  options.cancel = &token;
  const MipResult r = solveMip(m, options);
  util::clearInterrupt();
  EXPECT_EQ(r.stopReason, util::CancelReason::Interrupted);
  EXPECT_TRUE(r.status == MipStatus::NoSolutionLimit ||
              r.status == MipStatus::FeasibleLimit)
      << mipStatusName(r.status);
  EXPECT_FALSE(r.message.empty());
}

TEST(Mip, MipStatusIndexRoundTrips) {
  for (int i = 0; i < kMipStatuses; ++i) {
    MipStatus status;
    ASSERT_TRUE(mipStatusFromIndex(static_cast<std::uint8_t>(i), status));
    EXPECT_EQ(static_cast<int>(status), i);
  }
  MipStatus status;
  EXPECT_FALSE(mipStatusFromIndex(kMipStatuses, status));
}

TEST(Mip, CleanSolveLeavesNoMessage) {
  const MipModel m = knapsack({10, 13, 7, 11}, {5, 6, 4, 5}, 10);
  const MipResult r = solveMip(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_TRUE(r.message.empty()) << r.message;
  EXPECT_EQ(r.stopReason, util::CancelReason::None);
}

}  // namespace
}  // namespace dynsched::mip
