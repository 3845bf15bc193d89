// Order-based branch & bound tests: agreement with exhaustive enumeration
// and with the time-indexed MIP at scale 1, plus limit behaviour and
// mid-size instances that enumeration cannot reach.
#include <gtest/gtest.h>

#include "dynsched/tip/tim_model.hpp"
#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/core/planner.hpp"
#include "dynsched/tip/order_bnb.hpp"
#include "dynsched/tip/study.hpp"
#include "dynsched/util/rng.hpp"
#include "support/exact_oracle.hpp"

namespace dynsched::tip {
namespace {

core::Job makeJob(JobId id, Time submit, NodeCount width, Time estimate) {
  core::Job j;
  j.id = id;
  j.submit = submit;
  j.width = width;
  j.estimate = estimate;
  j.actualRuntime = estimate;
  return j;
}

TipInstance randomInstance(std::uint64_t seed, int jobs, Time maxDuration) {
  util::Rng rng(seed);
  TipInstance inst;
  const NodeCount machine = static_cast<NodeCount>(rng.uniformInt(4, 24));
  std::vector<core::RunningJob> running;
  if (rng.bernoulli(0.5)) {
    running.push_back(core::RunningJob{
        99, static_cast<NodeCount>(rng.uniformInt(1, machine / 2 + 1)),
        rng.uniformInt(5, maxDuration)});
  }
  inst.history = core::MachineHistory::fromRunningJobs(
      core::Machine{machine}, 0, running);
  for (int i = 0; i < jobs; ++i) {
    inst.jobs.push_back(makeJob(i + 1, 0,
                                static_cast<NodeCount>(
                                    rng.uniformInt(1, machine)),
                                rng.uniformInt(1, maxDuration)));
  }
  inst.now = 0;
  inst.horizon = 1;   // unused by the order B&B
  inst.timeScale = 1;
  return inst;
}

TEST(OrderBnb, TrivialTwoJobInstance) {
  TipInstance inst;
  inst.history = core::MachineHistory::empty(core::Machine{8}, 0);
  inst.jobs = {makeJob(1, 0, 8, 1000), makeJob(2, 0, 8, 10)};
  inst.now = 0;
  const OrderBnbResult r = solveByOrderBnb(inst);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.schedule.find(2)->start, 0);
  EXPECT_EQ(r.schedule.find(1)->start, 10);
  // Objective: job2 10·8 + job1 1010·8.
  EXPECT_DOUBLE_EQ(r.objective, 10.0 * 8 + 1010.0 * 8);
}

TEST(OrderBnb, IncumbentNeverWorseThanPolicies) {
  const TipInstance inst = randomInstance(501, 12, 200);
  double bestPolicy = 0;
  for (const core::PolicyKind policy : core::kAllPolicies) {
    const double v = core::MetricEvaluator::totalWeightedResponse(
        core::planSchedule(inst.history, inst.jobs, policy, 0));
    bestPolicy = bestPolicy == 0 ? v : std::min(bestPolicy, v);
  }
  OrderBnbOptions options;
  options.maxNodes = 200;  // tiny search: incumbent still valid
  const OrderBnbResult r = solveByOrderBnb(inst, options);
  EXPECT_LE(r.objective, bestPolicy + 1e-9);
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(r.schedule, inst.history, inst.history.startTime())
                  .ok());
}

TEST(OrderBnb, NodeLimitClearsOptimalFlag) {
  const TipInstance inst = randomInstance(502, 14, 500);
  OrderBnbOptions options;
  options.maxNodes = 50;
  const OrderBnbResult r = solveByOrderBnb(inst, options);
  EXPECT_FALSE(r.optimal);
  EXPECT_FALSE(r.schedule.empty());
}

TEST(OrderBnb, SolvesMidSizeInstances) {
  // 14 jobs: 14! ≈ 8.7e10 orders — enumeration is impossible, the pruned
  // search must finish and prove optimality.
  const TipInstance inst = randomInstance(503, 14, 120);
  OrderBnbOptions options;
  options.timeLimitSeconds = 60;
  const OrderBnbResult r = solveByOrderBnb(inst, options);
  EXPECT_TRUE(r.optimal);
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(r.schedule, inst.history, inst.history.startTime())
                  .ok());
}

TEST(OrderBnb, AgreesWithTimeIndexedMipAtScaleOne) {
  // Two independent exact solvers must agree on a 7-job instance with a
  // second-precision grid small enough for the time-indexed MIP to prove
  // optimality.
  TipInstance inst = randomInstance(601, 7, 20);
  Time serialized = inst.history.fullyFreeFrom();
  for (const auto& j : inst.jobs) serialized += j.estimate;
  inst.horizon = serialized;
  inst.timeScale = 1;

  const OrderBnbResult order = solveByOrderBnb(inst);
  ASSERT_TRUE(order.optimal);

  const Grid grid = makeGrid(inst);
  const TipModel model = buildModel(inst, grid);
  const core::Schedule fcfs =
      core::planSchedule(inst.history, inst.jobs, core::PolicyKind::Fcfs, 0);
  mip::MipOptions base;
  base.timeLimitSeconds = 120;
  const mip::MipOptions options =
      makeMipOptions(model, inst, grid, base, &fcfs);
  const mip::MipResult solved = mip::solveMip(model.mip, options);
  ASSERT_EQ(solved.status, mip::MipStatus::Optimal);
  EXPECT_NEAR(solved.objective, order.objective, 1e-6);
}

class OrderBnbOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderBnbOracleTest, MatchesExhaustiveEnumeration) {
  util::Rng rng(GetParam());
  const int jobs = static_cast<int>(rng.uniformInt(2, 7));
  const TipInstance inst = randomInstance(GetParam() * 131, jobs, 60);
  const ExactResult oracle = exactBestSchedule(inst, core::MetricKind::ArtWW);
  const double oracleObjective =
      core::MetricEvaluator::totalWeightedResponse(oracle.schedule);
  const OrderBnbResult r = solveByOrderBnb(inst);
  ASSERT_TRUE(r.optimal) << "seed " << GetParam();
  EXPECT_NEAR(r.objective, oracleObjective, 1e-6) << "seed " << GetParam();
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(r.schedule, inst.history, inst.history.startTime())
                  .ok());
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, OrderBnbOracleTest,
                         ::testing::Range<std::uint64_t>(700, 724));


TEST(OrderBnb, CancelTokenStopsSearchWithFeasibleIncumbent) {
  // Even a zero-budget search returns the policy-schedule incumbent: the
  // cancel hook bounds the DFS, never the feasibility guarantee.
  const TipInstance inst = randomInstance(4242, 10, 60);
  util::FaultPlan faults;
  faults.deadlineNow = true;
  util::CancelToken token({}, faults);
  OrderBnbOptions options;
  options.cancel = &token;
  const OrderBnbResult r = solveByOrderBnb(inst, options);
  EXPECT_FALSE(r.optimal);
  EXPECT_LE(r.nodes, 1);
  EXPECT_FALSE(r.schedule.empty());
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(r.schedule, inst.history, inst.history.startTime())
                  .ok());
  EXPECT_EQ(token.reason(), util::CancelReason::Deadline);
}

TEST(OrderBnb, NodeBudgetMatchesLocalNodeLimit) {
  const TipInstance inst = randomInstance(4243, 9, 60);
  util::SolveBudget budget;
  budget.maxNodes = 50;
  util::CancelToken token(budget);
  OrderBnbOptions options;
  options.cancel = &token;
  const OrderBnbResult r = solveByOrderBnb(inst, options);
  EXPECT_FALSE(r.optimal);
  EXPECT_LE(r.nodes, 52);  // cap + the node that observed the cancel
  EXPECT_EQ(token.reason(), util::CancelReason::NodeLimit);
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(r.schedule, inst.history, inst.history.startTime())
                  .ok());
}

}  // namespace
}  // namespace dynsched::tip
