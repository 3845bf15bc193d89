// Policies, planner (implicit backfilling), schedule validation and metric
// tests.
#include <gtest/gtest.h>

#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/core/metrics.hpp"
#include "dynsched/core/planner.hpp"
#include "dynsched/core/policies.hpp"
#include "dynsched/core/schedule.hpp"
#include "dynsched/util/rng.hpp"

namespace dynsched::core {
namespace {

Job makeJob(JobId id, Time submit, NodeCount width, Time estimate,
            Time actual = 0) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.width = width;
  j.estimate = estimate;
  j.actualRuntime = actual > 0 ? actual : estimate;
  return j;
}

TEST(Policies, NamesAndParsing) {
  EXPECT_STREQ(policyName(PolicyKind::Fcfs), "FCFS");
  EXPECT_STREQ(policyName(PolicyKind::Sjf), "SJF");
  EXPECT_STREQ(policyName(PolicyKind::Ljf), "LJF");
}

TEST(Policies, SortOrders) {
  const std::vector<Job> jobs = {
      makeJob(1, 10, 4, 500), makeJob(2, 20, 2, 100), makeJob(3, 30, 8, 900)};
  const auto fcfs = sortByPolicy(PolicyKind::Fcfs, jobs);
  EXPECT_EQ(fcfs[0].id, 1);
  EXPECT_EQ(fcfs[1].id, 2);
  EXPECT_EQ(fcfs[2].id, 3);
  const auto sjf = sortByPolicy(PolicyKind::Sjf, jobs);
  EXPECT_EQ(sjf[0].id, 2);
  EXPECT_EQ(sjf[1].id, 1);
  EXPECT_EQ(sjf[2].id, 3);
  const auto ljf = sortByPolicy(PolicyKind::Ljf, jobs);
  EXPECT_EQ(ljf[0].id, 3);
  EXPECT_EQ(ljf[1].id, 1);
  EXPECT_EQ(ljf[2].id, 2);
}

TEST(Policies, AreaOrderedPoliciesSortByArea) {
  // Areas: job1 = 4*500 = 2000, job2 = 8*100 = 800, job3 = 1*900 = 900.
  const std::vector<Job> jobs = {
      makeJob(1, 10, 4, 500), makeJob(2, 20, 8, 100), makeJob(3, 30, 1, 900)};
  const auto saf = sortByPolicy(PolicyKind::Saf, jobs);
  EXPECT_EQ(saf[0].id, 2);
  EXPECT_EQ(saf[1].id, 3);
  EXPECT_EQ(saf[2].id, 1);
  const auto laf = sortByPolicy(PolicyKind::Laf, jobs);
  EXPECT_EQ(laf[0].id, 1);
  EXPECT_EQ(laf[1].id, 3);
  EXPECT_EQ(laf[2].id, 2);
}

TEST(Policies, TiesBreakBySubmitThenId) {
  const std::vector<Job> jobs = {makeJob(5, 100, 1, 300),
                                 makeJob(2, 100, 1, 300),
                                 makeJob(9, 50, 1, 300)};
  const auto sjf = sortByPolicy(PolicyKind::Sjf, jobs);
  EXPECT_EQ(sjf[0].id, 9);  // earlier submit
  EXPECT_EQ(sjf[1].id, 2);  // same submit: lower id
  EXPECT_EQ(sjf[2].id, 5);
}

TEST(Planner, SequentialWhenMachineFull) {
  // Two full-machine jobs: must run back to back in policy order.
  const auto history = MachineHistory::empty(Machine{64}, 0);
  const std::vector<Job> jobs = {makeJob(1, 0, 64, 100),
                                 makeJob(2, 0, 64, 50)};
  const Schedule fcfs = planSchedule(history, jobs, PolicyKind::Fcfs, 0);
  EXPECT_EQ(fcfs.find(1)->start, 0);
  EXPECT_EQ(fcfs.find(2)->start, 100);
  const Schedule sjf = planSchedule(history, jobs, PolicyKind::Sjf, 0);
  EXPECT_EQ(sjf.find(2)->start, 0);
  EXPECT_EQ(sjf.find(1)->start, 50);
}

TEST(Planner, ImplicitBackfilling) {
  // 60 of 100 nodes busy until t=1000. FCFS order: wide job (70) must wait
  // until 1000; the next, narrow job (30, 500 s) slots in *now* without
  // delaying the wide one — planning-based implicit backfilling.
  const auto history =
      MachineHistory::fromRunningJobs(Machine{100}, 0, {{99, 60, 1000}});
  const std::vector<Job> jobs = {makeJob(1, 0, 70, 800),
                                 makeJob(2, 0, 30, 500)};
  const Schedule s = planSchedule(history, jobs, PolicyKind::Fcfs, 0);
  EXPECT_EQ(s.find(1)->start, 1000);
  EXPECT_EQ(s.find(2)->start, 0);
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(s, history, history.startTime())
                  .ok());
}

TEST(Planner, BackfillDoesNotDelayEarlierJobs) {
  // The backfill candidate is too long to fit the hole: it must go behind,
  // not push the wide job back.
  const auto history =
      MachineHistory::fromRunningJobs(Machine{100}, 0, {{99, 60, 1000}});
  const std::vector<Job> jobs = {makeJob(1, 0, 70, 800),
                                 makeJob(2, 0, 50, 500)};
  const Schedule s = planSchedule(history, jobs, PolicyKind::Fcfs, 0);
  EXPECT_EQ(s.find(1)->start, 1000);
  // Job 2 (50 wide) cannot run beside the running job (40 free) nor beside
  // job 1 (30 free): it starts when job 1 ends.
  EXPECT_EQ(s.find(2)->start, 1800);
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(s, history, history.startTime())
                  .ok());
}

TEST(Planner, RespectsSubmitTimes) {
  const auto history = MachineHistory::empty(Machine{10}, 100);
  const std::vector<Job> jobs = {makeJob(1, 500, 1, 100)};
  const Schedule s = planSchedule(history, jobs, PolicyKind::Fcfs, 100);
  EXPECT_EQ(s.find(1)->start, 500);
}

TEST(Planner, PlanInOrderKeepsCallerOrder) {
  const auto history = MachineHistory::empty(Machine{4}, 0);
  const std::vector<Job> ordered = {makeJob(2, 0, 4, 50),
                                    makeJob(1, 0, 4, 100)};
  const Schedule s = planInOrder(history, ordered, 0);
  EXPECT_EQ(s.find(2)->start, 0);
  EXPECT_EQ(s.find(1)->start, 50);
}

TEST(Planner, EasyBackfillHoldsHeadReservation) {
  const auto history =
      MachineHistory::fromRunningJobs(Machine{100}, 0, {{99, 60, 1000}});
  const std::vector<Job> jobs = {makeJob(1, 0, 70, 800),
                                 makeJob(2, 1, 30, 500),
                                 makeJob(3, 2, 40, 100)};
  const Schedule s = planEasyBackfill(history, jobs, 0);
  EXPECT_EQ(s.find(1)->start, 1000);  // head reservation
  EXPECT_EQ(s.find(2)->start, 1);     // immediate backfill (30 <= 40 free)
  // Job 3 (40 wide) does not fit now (only 10 free beside job 2); once job
  // 2 finishes at 501 there are again 40 free nodes, so its own reservation
  // lands there without delaying the head.
  EXPECT_EQ(s.find(3)->start, 501);
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(s, history, history.startTime())
                  .ok());
}

TEST(Schedule, MakespanAndLookup) {
  Schedule s;
  s.add(makeJob(1, 0, 1, 100), 0);
  s.add(makeJob(2, 0, 1, 50), 200);
  EXPECT_EQ(s.makespan(), 250);
  EXPECT_NE(s.find(2), nullptr);
  EXPECT_EQ(s.find(42), nullptr);
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

class MetricsFixture : public ::testing::Test {
 protected:
  MetricsFixture() {
    // Job 1: submit 0, start 0, d=100, w=2 -> resp 100, wait 0, sld 1.
    // Job 2: submit 0, start 100, d=50, w=4 -> resp 150, wait 100, sld 3.
    schedule_.add(makeJob(1, 0, 2, 100), 0);
    schedule_.add(makeJob(2, 0, 4, 50), 100);
  }
  Schedule schedule_;
  MetricEvaluator evaluator_{0, 8};
};

TEST_F(MetricsFixture, AvgResponseTime) {
  EXPECT_DOUBLE_EQ(evaluator_.evaluate(schedule_, MetricKind::AvgResponseTime),
                   (100.0 + 150.0) / 2);
}

TEST_F(MetricsFixture, ArtWW) {
  EXPECT_DOUBLE_EQ(evaluator_.evaluate(schedule_, MetricKind::ArtWW),
                   (100.0 * 2 + 150.0 * 4) / 6.0);
}

TEST_F(MetricsFixture, TotalWeightedResponseMatchesIlpObjective) {
  EXPECT_DOUBLE_EQ(MetricEvaluator::totalWeightedResponse(schedule_),
                   100.0 * 2 + 150.0 * 4);
}

TEST_F(MetricsFixture, AvgWait) {
  EXPECT_DOUBLE_EQ(evaluator_.evaluate(schedule_, MetricKind::AvgWaitTime),
                   50.0);
}

TEST_F(MetricsFixture, Slowdowns) {
  EXPECT_DOUBLE_EQ(evaluator_.evaluate(schedule_, MetricKind::AvgSlowdown),
                   (1.0 + 3.0) / 2);
  // SLDwA: areas 200 and 200 -> (1*200 + 3*200)/400 = 2.
  EXPECT_DOUBLE_EQ(evaluator_.evaluate(schedule_, MetricKind::SldWA), 2.0);
}

TEST_F(MetricsFixture, MakespanAndUtilization) {
  EXPECT_DOUBLE_EQ(evaluator_.evaluate(schedule_, MetricKind::Makespan),
                   150.0);
  // Area 2*100 + 4*50 = 400 over 8 nodes * 150 s = 1200.
  EXPECT_DOUBLE_EQ(evaluator_.evaluate(schedule_, MetricKind::Utilization),
                   400.0 / 1200.0);
}

TEST(Metrics, BoundedSlowdownClampsShortJobs) {
  Schedule s;
  s.add(makeJob(1, 0, 1, 2), 0);  // 2-second job, resp 2: raw sld 1
  s.add(makeJob(2, 0, 1, 2), 2);  // resp 4: raw sld 2, bounded 4/10 -> 1
  const MetricEvaluator e(0, 4);
  EXPECT_DOUBLE_EQ(e.evaluate(s, MetricKind::BoundedSlowdown), 1.0);
}

TEST(Metrics, DirectionAndNames) {
  EXPECT_TRUE(lowerIsBetter(MetricKind::SldWA));
  EXPECT_TRUE(lowerIsBetter(MetricKind::ArtWW));
  EXPECT_FALSE(lowerIsBetter(MetricKind::Utilization));
}

TEST(Metrics, EmptySchedule) {
  const MetricEvaluator e(0, 4);
  EXPECT_DOUBLE_EQ(e.evaluate(Schedule{}, MetricKind::SldWA), 0.0);
  EXPECT_DOUBLE_EQ(e.evaluate(Schedule{}, MetricKind::Utilization), 1.0);
}

// Metric identities on random schedules.
class MetricPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricPropertyTest, IdentitiesHoldOnRandomSchedules) {
  util::Rng rng(GetParam());
  const NodeCount machine = static_cast<NodeCount>(rng.uniformInt(2, 64));
  const auto history = MachineHistory::empty(Machine{machine}, 0);
  std::vector<Job> jobs;
  const int n = static_cast<int>(rng.uniformInt(1, 15));
  for (int i = 0; i < n; ++i) {
    jobs.push_back(makeJob(i + 1, rng.uniformInt(0, 100) * 0,
                           static_cast<NodeCount>(rng.uniformInt(1, machine)),
                           rng.uniformInt(1, 500)));
  }
  const Schedule s = planSchedule(history, jobs, PolicyKind::Fcfs, 0);
  const MetricEvaluator e(0, machine);
  // ARTwW equals the ILP objective divided by the total width.
  double totalWidth = 0;
  for (const Job& j : jobs) totalWidth += static_cast<double>(j.width);
  EXPECT_NEAR(e.evaluate(s, MetricKind::ArtWW),
              MetricEvaluator::totalWeightedResponse(s) / totalWidth, 1e-9);
  // Slowdowns are >= 1 (response >= duration when start >= submit).
  EXPECT_GE(e.evaluate(s, MetricKind::AvgSlowdown), 1.0 - 1e-12);
  EXPECT_GE(e.evaluate(s, MetricKind::SldWA), 1.0 - 1e-12);
  EXPECT_GE(e.evaluate(s, MetricKind::BoundedSlowdown), 1.0 - 1e-12);
  // Utilization within (0, 1]; makespan >= longest job duration.
  const double util = e.evaluate(s, MetricKind::Utilization);
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0 + 1e-12);
  Time longest = 0;
  for (const Job& j : jobs) longest = std::max(longest, j.estimate);
  EXPECT_GE(e.evaluate(s, MetricKind::Makespan),
            static_cast<double>(longest));
  // Response = wait + duration pointwise implies ART = AWT + mean duration.
  double meanDuration = 0;
  for (const Job& j : jobs) meanDuration += static_cast<double>(j.estimate);
  meanDuration /= static_cast<double>(jobs.size());
  EXPECT_NEAR(e.evaluate(s, MetricKind::AvgResponseTime),
              e.evaluate(s, MetricKind::AvgWaitTime) + meanDuration, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MetricPropertyTest,
                         ::testing::Range<std::uint64_t>(2100, 2120));

// ---------------------------------------------------------------------------
// Property: every policy schedule on random instances validates against its
// machine history, and SJF never has a worse total response time than LJF on
// unit-width jobs with an empty history (classic SPT optimality).
// ---------------------------------------------------------------------------

class PlannerRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerRandomTest, SchedulesAlwaysValid) {
  util::Rng rng(GetParam());
  const NodeCount machineSize =
      static_cast<NodeCount>(rng.uniformInt(4, 128));
  std::vector<RunningJob> running;
  NodeCount busy = 0;
  while (rng.bernoulli(0.6)) {
    const NodeCount w =
        static_cast<NodeCount>(rng.uniformInt(1, machineSize / 2 + 1));
    if (busy + w > machineSize) break;
    running.push_back(RunningJob{static_cast<JobId>(100 + running.size()), w,
                                 rng.uniformInt(1, 500)});
    busy += w;
  }
  const auto history =
      MachineHistory::fromRunningJobs(Machine{machineSize}, 0, running);
  std::vector<Job> jobs;
  const int n = static_cast<int>(rng.uniformInt(1, 20));
  for (int i = 0; i < n; ++i) {
    jobs.push_back(makeJob(i + 1, rng.uniformInt(0, 50) * 0,
                           static_cast<NodeCount>(
                               rng.uniformInt(1, machineSize)),
                           rng.uniformInt(1, 900)));
  }
  for (const PolicyKind policy : kAllPolicies) {
    const Schedule s = planSchedule(history, jobs, policy, 0);
    EXPECT_EQ(s.size(), jobs.size());
    const analysis::ValidationReport report =
        analysis::ScheduleValidator().validate(s, history, history.startTime());
    EXPECT_TRUE(report.ok()) << policyName(policy) << ": " << report.toString();
  }
  const Schedule easy = planEasyBackfill(history, jobs, 0);
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(easy, history, history.startTime())
                  .ok());
}

TEST_P(PlannerRandomTest, SjfOptimalForUnitWidthTotalResponse) {
  util::Rng rng(GetParam());
  // Single processor, unit widths, all submitted at 0: SJF (SPT rule)
  // minimizes total completion/response time.
  const auto history = MachineHistory::empty(Machine{1}, 0);
  std::vector<Job> jobs;
  const int n = static_cast<int>(rng.uniformInt(2, 8));
  for (int i = 0; i < n; ++i) {
    jobs.push_back(makeJob(i + 1, 0, 1, rng.uniformInt(1, 500)));
  }
  const MetricEvaluator e(0, 1);
  const double sjf = e.evaluate(planSchedule(history, jobs, PolicyKind::Sjf, 0),
                                MetricKind::AvgResponseTime);
  for (const PolicyKind policy : {PolicyKind::Fcfs, PolicyKind::Ljf}) {
    const double other = e.evaluate(planSchedule(history, jobs, policy, 0),
                                    MetricKind::AvgResponseTime);
    EXPECT_LE(sjf, other + 1e-9) << policyName(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PlannerRandomTest,
                         ::testing::Range<std::uint64_t>(2000, 2024));

}  // namespace
}  // namespace dynsched::core
