// Schedule-invariant audit layer: validator rejections, metric
// recomputation, the runtime gate, and end-to-end wiring through planner,
// dynP self-tuning, simulator, and the exact solver.
#include <gtest/gtest.h>

#include "dynsched/tip/tim_model.hpp"
#include "dynsched/analysis/audit.hpp"
#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/core/audit_hook.hpp"
#include "dynsched/core/dynp.hpp"
#include "dynsched/core/planner.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/util/alloc_tracker.hpp"
#include "support/exact_oracle.hpp"

namespace dynsched::analysis {
namespace {

core::Job makeJob(JobId id, Time submit, NodeCount width, Time estimate,
                  Time actual = 0) {
  core::Job j;
  j.id = id;
  j.submit = submit;
  j.width = width;
  j.estimate = estimate;
  j.actualRuntime = actual > 0 ? actual : estimate;
  return j;
}

/// Enables audits for one test and restores the previous state after.
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

bool hasViolation(const ValidationReport& report,
                  const std::string& invariant) {
  for (const Violation& v : report.violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

TEST(ScheduleValidator, AcceptsPlannerSchedule) {
  const auto history = core::MachineHistory::empty(core::Machine{8}, 0);
  const std::vector<core::Job> jobs = {makeJob(1, 0, 4, 100),
                                       makeJob(2, 5, 8, 50),
                                       makeJob(3, 10, 2, 200)};
  const core::Schedule schedule =
      core::planSchedule(history, jobs, core::PolicyKind::Fcfs, 0);
  const ValidationReport report =
      ScheduleValidator().validate(schedule, history, 0);
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(ScheduleValidator, RejectsOverCapacity) {
  const auto history = core::MachineHistory::empty(core::Machine{8}, 0);
  core::Schedule schedule;
  schedule.add(makeJob(1, 0, 6, 100), 0);
  schedule.add(makeJob(2, 0, 6, 100), 10);  // 12 > 8 nodes in [10, 100)
  const ValidationReport report =
      ScheduleValidator().validate(schedule, history, 0);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(hasViolation(report, "capacity")) << report.toString();
}

TEST(ScheduleValidator, RejectsCapacityHeldByRunningJobs) {
  // Machine of 8 with 6 nodes held until t=100: a width-4 job at t=50 fits
  // the machine size but not the free capacity M_t.
  const auto history = core::MachineHistory::fromRunningJobs(
      core::Machine{8}, 0, {core::RunningJob{99, 6, 100}});
  core::Schedule schedule;
  schedule.add(makeJob(1, 0, 4, 100), 50);
  const ValidationReport report =
      ScheduleValidator().validate(schedule, history, 0);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(hasViolation(report, "capacity")) << report.toString();
}

TEST(ScheduleValidator, RejectsDoubleStart) {
  const auto history = core::MachineHistory::empty(core::Machine{8}, 0);
  core::Schedule schedule;
  schedule.add(makeJob(1, 0, 2, 100), 0);
  schedule.add(makeJob(1, 0, 2, 100), 200);
  const ValidationReport report =
      ScheduleValidator().validate(schedule, history, 0);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(hasViolation(report, "single-start")) << report.toString();
}

TEST(ScheduleValidator, RejectsPreSubmitStart) {
  const auto history = core::MachineHistory::empty(core::Machine{8}, 0);
  core::Schedule schedule;
  schedule.add(makeJob(1, 500, 2, 100), 400);
  const ValidationReport report =
      ScheduleValidator().validate(schedule, history, 0);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(hasViolation(report, "start-time")) << report.toString();
}

TEST(ScheduleValidator, RejectsStartBeforeHistory) {
  const auto history = core::MachineHistory::empty(core::Machine{8}, 1000);
  core::Schedule schedule;
  schedule.add(makeJob(1, 0, 2, 100), 500);
  const ValidationReport report =
      ScheduleValidator().validate(schedule, history, 1000);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(hasViolation(report, "start-time")) << report.toString();
}

TEST(ScheduleValidator, RejectsWidthBeyondMachine) {
  const auto history = core::MachineHistory::empty(core::Machine{8}, 0);
  core::Schedule schedule;
  schedule.add(makeJob(1, 0, 16, 100), 0);
  const ValidationReport report =
      ScheduleValidator().validate(schedule, history, 0);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(hasViolation(report, "width")) << report.toString();
}

TEST(ScheduleValidator, RejectsReservationOverlap) {
  const Time now = 0;
  const auto history = core::MachineHistory::empty(core::Machine{8}, now);
  core::ReservationBook book;
  ASSERT_TRUE(
      book.admit(history, core::Reservation{7, 100, 100, 6}, now));
  // Width 4 across [50, 150) is fine against the bare machine but collides
  // with the 6-node reservation in [100, 150).
  core::Schedule schedule;
  schedule.add(makeJob(1, 0, 4, 100), 50);
  const ValidationReport report =
      ScheduleValidator().validate(schedule, history, now, &book);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(hasViolation(report, "reservation-overlap"))
      << report.toString();
}

TEST(ScheduleValidator, FlagsMetricDisagreement) {
  const auto history = core::MachineHistory::empty(core::Machine{8}, 0);
  const std::vector<core::Job> jobs = {makeJob(1, 0, 4, 100)};
  const core::Schedule schedule =
      core::planSchedule(history, jobs, core::PolicyKind::Fcfs, 0);
  const core::MetricEvaluator evaluator(0, 8);
  const double truth =
      evaluator.evaluate(schedule, core::MetricKind::AvgResponseTime);

  const core::MetricExpectation right{core::MetricKind::AvgResponseTime,
                                      truth};
  const ValidationReport good =
      ScheduleValidator().validate(schedule, history, 0, nullptr, &right);
  EXPECT_TRUE(good.ok()) << good.toString();

  const core::MetricExpectation wrong{core::MetricKind::AvgResponseTime,
                                      truth + 1.0};
  const ValidationReport bad =
      ScheduleValidator().validate(schedule, history, 0, nullptr, &wrong);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(hasViolation(bad, "metric")) << bad.toString();
}

TEST(AuditGate, DisabledAuditIsSilent) {
  ScopedAudit audit(false);
  resetAuditStats();
  const auto history = core::MachineHistory::empty(core::Machine{8}, 0);
  core::Schedule broken;
  broken.add(makeJob(1, 500, 2, 100), 0);  // pre-submit start
  EXPECT_NO_THROW(auditSchedule("test.site", broken, history, 0));
  EXPECT_EQ(auditStats().audited, 0u);
}

TEST(AuditGate, DisabledHookWithExpectationDoesNotAllocate) {
  if (!util::allocTrackingEnabled()) {
    GTEST_SKIP() << "needs a DYNSCHED_ALLOC_TRACK=ON build";
  }
  ScopedAudit audit(false);
  const auto history = core::MachineHistory::empty(core::Machine{8}, 0);
  const std::vector<core::Job> jobs = {makeJob(1, 0, 4, 100)};
  const core::Schedule schedule =
      core::planSchedule(history, jobs, core::PolicyKind::Fcfs, 0);
  // The call dynP's self-tuning step makes for every candidate schedule.
  const core::MetricExpectation expected{core::MetricKind::SldWA, 1.0};
  util::resetAllocStats();
  core::auditScheduleHook("test.site", schedule, history, 0, nullptr,
                          &expected);
  EXPECT_EQ(util::allocStats().allocCount, 0u);
}

TEST(AuditGate, EnabledAuditThrowsWithSiteAndCounts) {
  ScopedAudit audit(true);
  resetAuditStats();
  const auto history = core::MachineHistory::empty(core::Machine{8}, 0);
  core::Schedule broken;
  broken.add(makeJob(1, 500, 2, 100), 0);
  try {
    auditSchedule("test.site", broken, history, 0);
    FAIL() << "expected AuditError";
  } catch (const AuditError& e) {
    EXPECT_NE(std::string(e.what()).find("test.site"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("start-time"), std::string::npos);
  }
  EXPECT_EQ(auditStats().audited, 1u);
  EXPECT_EQ(auditStats().failed, 1u);
}

#if defined(DYNSCHED_AUDIT_ENABLED) && DYNSCHED_AUDIT_ENABLED

TEST(AuditWiring, PlannerPathsAreAudited) {
  ScopedAudit audit(true);
  resetAuditStats();
  const auto history = core::MachineHistory::empty(core::Machine{8}, 0);
  const std::vector<core::Job> jobs = {makeJob(1, 0, 4, 100),
                                       makeJob(2, 0, 8, 50)};
  (void)core::planSchedule(history, jobs, core::PolicyKind::Sjf, 0);
  (void)core::planEasyBackfill(history, jobs, 0);
  EXPECT_EQ(auditStats().audited, 2u);
  EXPECT_EQ(auditStats().failed, 0u);
}

TEST(AuditWiring, SelfTuningStepAuditsEveryCandidate) {
  ScopedAudit audit(true);
  resetAuditStats();
  core::DynPScheduler dynp(core::Machine{16}, core::DynPConfig{});
  const auto history = core::MachineHistory::empty(core::Machine{16}, 0);
  const std::vector<core::Job> jobs = {makeJob(1, 0, 4, 100),
                                       makeJob(2, 0, 8, 50),
                                       makeJob(3, 0, 16, 10)};
  const auto result = dynp.selfTuningStep(history, jobs, 0);
  EXPECT_EQ(result.schedules.size(), dynp.policies().size());
  // planSchedule audits each candidate once, selfTuningStep audits it again
  // with the metric expectation attached.
  EXPECT_EQ(auditStats().audited, 2 * dynp.policies().size());
  EXPECT_EQ(auditStats().failed, 0u);
}

TEST(AuditWiring, SimulatorRunsFullyAudited) {
  ScopedAudit audit(true);
  resetAuditStats();
  sim::SimOptions options;
  options.kind = sim::SchedulerKind::DynP;
  sim::RmsSimulator sim(core::Machine{16}, options);
  const auto report = sim.run({makeJob(1, 0, 8, 100), makeJob(2, 10, 16, 50),
                               makeJob(3, 20, 4, 200, 80)});
  EXPECT_EQ(report.completed.size(), 3u);
  EXPECT_GT(auditStats().audited, 0u);
  EXPECT_EQ(auditStats().failed, 0u);
}

TEST(AuditWiring, ExactSolverAuditsItsOptimum) {
  ScopedAudit audit(true);
  resetAuditStats();
  tip::TipInstance instance;
  instance.history = core::MachineHistory::empty(core::Machine{8}, 0);
  instance.jobs = {makeJob(1, 0, 4, 100), makeJob(2, 0, 8, 50),
                   makeJob(3, 0, 2, 150)};
  const auto result =
      tip::exactBestSchedule(instance, core::MetricKind::ArtWW);
  EXPECT_EQ(result.schedule.size(), 3u);
  EXPECT_EQ(auditStats().audited, 1u);
  EXPECT_EQ(auditStats().failed, 0u);
}

#endif  // DYNSCHED_AUDIT_ENABLED

}  // namespace
}  // namespace dynsched::analysis
