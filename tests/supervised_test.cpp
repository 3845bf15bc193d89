// Supervision-layer tests: FaultPlan parsing, CancelToken budget semantics,
// each rung of the tip::supervisedBestSchedule degradation ladder driven by
// deterministic fault injection, no-fault bit-equivalence with the direct
// solve pipeline, and a full study that survives a fault on every step.
//
// The FaultMatrix suite reads DYNSCHED_FAULTS from the environment; the
// check.sh / CI fault matrix loops every fault kind through it.
#include <gtest/gtest.h>

#include "dynsched/tip/tim_model.hpp"
#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/study.hpp"
#include "dynsched/tip/supervised.hpp"
#include "dynsched/trace/synthetic.hpp"
#include "dynsched/util/budget.hpp"
#include "dynsched/util/error.hpp"

namespace dynsched::tip {
namespace {

/// Simulates a small CTC-like trace and returns captured snapshots.
std::vector<sim::StepSnapshot> captureSnapshots(std::size_t traceJobs,
                                                std::size_t maxSnapshots,
                                                std::uint64_t seed) {
  const auto trace = trace::ctcModel().generate(traceJobs, seed);
  sim::SimOptions options;
  options.kind = sim::SchedulerKind::DynP;
  options.snapshots.enabled = true;
  options.snapshots.minWaiting = 3;
  options.snapshots.maxWaiting = 10;
  options.snapshots.maxCount = maxSnapshots;
  sim::RmsSimulator simulator(core::Machine{430}, options);
  return simulator.run(core::fromSwf(trace)).snapshots;
}

StudyOptions fastOptions() {
  StudyOptions options;
  options.mip.maxNodes = 4000;
  options.mip.timeLimitSeconds = 20;
  options.scaling.totalMemoryBytes = 64ULL << 20;
  return options;
}

void expectFeasible(const core::Schedule& schedule,
                    const sim::StepSnapshot& snap, const char* what) {
  const analysis::ValidationReport report =
      analysis::ScheduleValidator().validate(schedule, snap.history,
                                             snap.time);
  EXPECT_TRUE(report.ok()) << what << ": " << report.toString();
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParsesEveryKind) {
  const util::FaultPlan plan = util::FaultPlan::parse(
      "deadline-now, oom-at-estimate, lp-numerical-failure=3, "
      "fail-at-node=7, fail-at-step=2");
  EXPECT_TRUE(plan.deadlineNow);
  EXPECT_TRUE(plan.oomAtEstimate);
  EXPECT_EQ(plan.lpFailures, 3);
  EXPECT_EQ(plan.failAtNode, 7);
  EXPECT_EQ(plan.failAtStep, 2);
  EXPECT_TRUE(plan.any());
}

TEST(FaultPlan, BareLpFailureMeansAllSolves) {
  const util::FaultPlan plan = util::FaultPlan::parse("lp-numerical-failure");
  EXPECT_EQ(plan.lpFailures, util::FaultPlan::kAllSolves);
}

TEST(FaultPlan, FailAtStepAll) {
  const util::FaultPlan plan = util::FaultPlan::parse("fail-at-step=all");
  EXPECT_EQ(plan.failAtStep, util::FaultPlan::kEveryStep);
  EXPECT_TRUE(plan.failsStep(0));
  EXPECT_TRUE(plan.failsStep(12345));
  const util::FaultPlan one = util::FaultPlan::parse("fail-at-step=1");
  EXPECT_FALSE(one.failsStep(0));
  EXPECT_TRUE(one.failsStep(1));
}

TEST(FaultPlan, EmptySpecIsNoFaults) {
  const util::FaultPlan plan = util::FaultPlan::parse("");
  EXPECT_FALSE(plan.any());
  EXPECT_EQ(plan.describe(), "");
}

TEST(FaultPlan, RejectsUnknownKindAndBadValues) {
  EXPECT_THROW(util::FaultPlan::parse("frobnicate"), CheckError);
  EXPECT_THROW(util::FaultPlan::parse("fail-at-node"), CheckError);
  EXPECT_THROW(util::FaultPlan::parse("fail-at-node=xyz"), CheckError);
  EXPECT_THROW(util::FaultPlan::parse("deadline-now=1"), CheckError);
  EXPECT_THROW(util::FaultPlan::parse("fail-at-step=-3"), CheckError);
}

TEST(FaultPlan, DescribeRoundTrips) {
  const std::string spec =
      "deadline-now,lp-numerical-failure=2,fail-at-node=5,fail-at-step=all";
  const util::FaultPlan plan = util::FaultPlan::parse(spec);
  const util::FaultPlan again = util::FaultPlan::parse(plan.describe());
  EXPECT_EQ(again.describe(), plan.describe());
  EXPECT_EQ(plan.describe(), spec);
}

// -------------------------------------------------------------- CancelToken

TEST(CancelToken, DefaultTokenNeverFires) {
  util::CancelToken token;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(token.onLpIteration());
    EXPECT_FALSE(token.onNode());
  }
  EXPECT_FALSE(token.poll());
  EXPECT_EQ(token.reason(), util::CancelReason::None);
}

TEST(CancelToken, LpIterationBudgetFires) {
  util::SolveBudget budget;
  budget.maxLpIterations = 5;
  util::CancelToken token(budget);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(token.onLpIteration());
  EXPECT_TRUE(token.onLpIteration());
  EXPECT_EQ(token.reason(), util::CancelReason::LpIterationLimit);
  // Once cancelled, every hook reports it.
  EXPECT_TRUE(token.onNode());
  EXPECT_TRUE(token.poll());
}

TEST(CancelToken, NodeBudgetFires) {
  util::SolveBudget budget;
  budget.maxNodes = 3;
  util::CancelToken token(budget);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(token.onNode());
  EXPECT_TRUE(token.onNode());
  EXPECT_EQ(token.reason(), util::CancelReason::NodeLimit);
}

TEST(CancelToken, DeadlineNowFiresImmediately) {
  util::FaultPlan faults;
  faults.deadlineNow = true;
  util::CancelToken token({}, faults);
  EXPECT_TRUE(token.hasDeadline());
  EXPECT_TRUE(token.poll());
  EXPECT_EQ(token.reason(), util::CancelReason::Deadline);
}

TEST(CancelToken, FirstCancelReasonWins) {
  util::CancelToken token;
  token.cancel(util::CancelReason::External);
  token.cancel(util::CancelReason::Deadline);
  EXPECT_EQ(token.reason(), util::CancelReason::External);
}

TEST(CancelToken, LpFailureInjectionCountsDown) {
  util::FaultPlan faults;
  faults.lpFailures = 2;
  util::CancelToken token({}, faults);
  EXPECT_TRUE(token.injectLpFailure());
  EXPECT_TRUE(token.injectLpFailure());
  EXPECT_FALSE(token.injectLpFailure());
  // The injection never cancels the token — the ladder retries.
  EXPECT_FALSE(token.cancelled());

  util::FaultPlan all;
  all.lpFailures = util::FaultPlan::kAllSolves;
  util::CancelToken every({}, all);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(every.injectLpFailure());
}

TEST(CancelToken, OverMemoryFaultFiresOnceThenCapApplies) {
  util::SolveBudget budget;
  budget.maxEstimatedBytes = 1000;
  util::FaultPlan faults;
  faults.oomAtEstimate = true;
  util::CancelToken token(budget, faults);
  EXPECT_TRUE(token.overMemory(10));    // armed fault, under the real cap
  EXPECT_FALSE(token.overMemory(10));   // fault consumed
  EXPECT_TRUE(token.overMemory(2000));  // genuine cap violation
  EXPECT_FALSE(token.cancelled());      // memory checks never cancel
}

// ------------------------------------------------------- degradation ladder

TEST(Supervised, CleanSolveIsRungOneOptimal) {
  const auto snapshots = captureSnapshots(200, 2, 91);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  options.faults = util::FaultPlan{};  // explicit: ignore the environment
  const SupervisedResult result =
      supervisedBestSchedule(snapshots[0], options);
  EXPECT_EQ(result.rung, SolveRung::Optimal);
  EXPECT_FALSE(result.degraded());
  EXPECT_EQ(result.mipStatus, mip::MipStatus::Optimal);
  EXPECT_EQ(result.provenance, "proven optimal");
  EXPECT_EQ(result.stopReason, util::CancelReason::None);
  EXPECT_NEAR(result.gap, 0.0, 1e-9);
  expectFeasible(result.schedule, snapshots[0], "rung-1 schedule");
}

TEST(Supervised, TinyIterationBudgetKeepsWarmStartIncumbent) {
  const auto snapshots = captureSnapshots(200, 2, 92);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  options.faults = util::FaultPlan{};
  options.warmStart = true;
  options.budget.maxLpIterations = 1;  // root LP dies after one pivot
  const SupervisedResult result =
      supervisedBestSchedule(snapshots[0], options);
  EXPECT_EQ(result.rung, SolveRung::IncumbentGap);
  EXPECT_TRUE(result.degraded());
  EXPECT_EQ(result.mipStatus, mip::MipStatus::FeasibleLimit);
  EXPECT_EQ(result.stopReason, util::CancelReason::LpIterationLimit);
  EXPECT_GT(result.gap, 0.0);
  EXPECT_NE(result.provenance.find("budget hit"), std::string::npos);
  expectFeasible(result.schedule, snapshots[0], "rung-2 schedule");
}

TEST(Supervised, DeadlineNowWithWarmStartIsRungTwo) {
  const auto snapshots = captureSnapshots(200, 2, 93);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  util::FaultPlan faults;
  faults.deadlineNow = true;
  options.faults = faults;
  options.warmStart = true;
  const SupervisedResult result =
      supervisedBestSchedule(snapshots[0], options);
  EXPECT_EQ(result.rung, SolveRung::IncumbentGap);
  EXPECT_EQ(result.stopReason, util::CancelReason::Deadline);
  expectFeasible(result.schedule, snapshots[0], "deadline-now schedule");
}

TEST(Supervised, DeadlineNowWithoutWarmStartFallsThrough) {
  // No incumbent and no budget left for a retry: straight to rung 4.
  const auto snapshots = captureSnapshots(200, 2, 94);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  util::FaultPlan faults;
  faults.deadlineNow = true;
  options.faults = faults;
  options.warmStart = false;
  const SupervisedResult result =
      supervisedBestSchedule(snapshots[0], options);
  EXPECT_EQ(result.rung, SolveRung::PolicyFallback);
  EXPECT_FALSE(result.coarsened);
  EXPECT_NE(result.provenance.find("no budget left"), std::string::npos);
  expectFeasible(result.schedule, snapshots[0], "fallback schedule");
}

TEST(Supervised, OneLpFailureRecoversOnCoarsenedRetry) {
  const auto snapshots = captureSnapshots(200, 2, 95);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  util::FaultPlan faults;
  faults.lpFailures = 1;  // the first LP solve fails, the rest succeed
  options.faults = faults;
  const SupervisedResult result =
      supervisedBestSchedule(snapshots[0], options);
  EXPECT_EQ(result.rung, SolveRung::CoarsenedRetry);
  EXPECT_TRUE(result.coarsened);
  const Time eq6 = makeInstance(snapshots[0], options).timeScale;
  EXPECT_EQ(result.timeScale, eq6 * 2);
  EXPECT_NE(result.provenance.find("primary solve failed"),
            std::string::npos);
  expectFeasible(result.schedule, snapshots[0], "rung-3 schedule");
}

TEST(Supervised, OomEstimateCoarsensWithoutSolving) {
  const auto snapshots = captureSnapshots(200, 2, 96);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  util::FaultPlan faults;
  faults.oomAtEstimate = true;
  options.faults = faults;
  const SupervisedResult result =
      supervisedBestSchedule(snapshots[0], options);
  EXPECT_EQ(result.rung, SolveRung::CoarsenedRetry);
  EXPECT_TRUE(result.coarsened);
  EXPECT_NE(result.provenance.find("memory estimate"), std::string::npos);
  expectFeasible(result.schedule, snapshots[0], "post-OOM schedule");
}

TEST(Supervised, PersistentLpFailureLandsOnPolicyFallback) {
  const auto snapshots = captureSnapshots(200, 2, 97);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  util::FaultPlan faults;
  faults.lpFailures = util::FaultPlan::kAllSolves;
  options.faults = faults;
  const SupervisedResult result =
      supervisedBestSchedule(snapshots[0], options);
  EXPECT_EQ(result.rung, SolveRung::PolicyFallback);
  EXPECT_TRUE(result.coarsened);  // the retry was attempted and failed too
  EXPECT_EQ(result.mipStatus, mip::MipStatus::Error);
  EXPECT_NE(result.provenance.find("fell back to best policy schedule"),
            std::string::npos);
  expectFeasible(result.schedule, snapshots[0], "rung-4 schedule");
  // The fallback is exactly the snapshot's best policy schedule.
  ASSERT_EQ(result.schedule.size(), snapshots[0].bestSchedule.size());
  for (const core::ScheduledJob& entry :
       snapshots[0].bestSchedule.entries()) {
    const core::ScheduledJob* got = result.schedule.find(entry.job.id);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->start, entry.start);
  }
}

TEST(Supervised, FailAtStepTargetsOnlyThatStep) {
  const auto snapshots = captureSnapshots(200, 2, 98);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  util::FaultPlan faults;
  faults.failAtStep = 1;
  options.faults = faults;
  const SupervisedResult hit =
      supervisedBestSchedule(snapshots[0], options, /*stepIndex=*/1);
  EXPECT_EQ(hit.rung, SolveRung::PolicyFallback);
  EXPECT_NE(hit.provenance.find("injected step fault"), std::string::npos);
  const SupervisedResult miss =
      supervisedBestSchedule(snapshots[0], options, /*stepIndex=*/0);
  EXPECT_EQ(miss.rung, SolveRung::Optimal);
}

TEST(Supervised, NoFaultResultMatchesDirectPipeline) {
  // With no faults and an unlimited budget the supervised solve must be
  // bit-identical to the raw makeGrid/buildModel/solveMip/compact pipeline.
  const auto snapshots = captureSnapshots(250, 3, 99);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  options.faults = util::FaultPlan{};
  for (const auto& snap : snapshots) {
    const SupervisedResult supervised =
        supervisedBestSchedule(snap, options);

    const TipInstance instance = makeInstance(snap, options);
    const Grid grid = makeGrid(instance);
    TipModel model = buildModel(instance, grid);
    const mip::MipOptions mipOptions = makeMipOptions(
        model, instance, grid, options.mip, &snap.bestSchedule);
    const mip::MipResult direct = mip::solveMip(model.mip, mipOptions);
    ASSERT_TRUE(direct.hasSolution());
    const core::Schedule directSchedule =
        compactFromSlots(instance, model.startSlots(direct.x));

    EXPECT_EQ(supervised.mipStatus, direct.status);
    ASSERT_EQ(supervised.schedule.size(), directSchedule.size());
    for (const core::ScheduledJob& entry : directSchedule.entries()) {
      const core::ScheduledJob* got =
          supervised.schedule.find(entry.job.id);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->start, entry.start) << "job " << entry.job.id;
    }
  }
}

// ------------------------------------------------------------------- study

TEST(Supervised, StudySurvivesFaultOnEveryStep) {
  // The acceptance scenario: a fault plan failing *every* step still lets a
  // full study complete, with one rung-4 fallback per step and a feasible
  // schedule everywhere.
  const auto snapshots = captureSnapshots(250, 4, 100);
  ASSERT_GE(snapshots.size(), 2u);
  StudyOptions options = fastOptions();
  util::FaultPlan faults;
  faults.failAtStep = util::FaultPlan::kEveryStep;
  options.faults = faults;
  const std::vector<StudyRow> rows = runStudy(snapshots, options);
  ASSERT_EQ(rows.size(), snapshots.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].rung, SolveRung::PolicyFallback);
    // Rung 4 hands back the best policy schedule, so Eq. 7 degenerates.
    EXPECT_DOUBLE_EQ(rows[i].quality, 1.0);
    EXPECT_GT(rows[i].policyValue, 0.0);
  }
  const StudyAverages avg = averageRows(rows);
  EXPECT_EQ(avg.rungCounts[solveRungIndex(SolveRung::PolicyFallback)],
            rows.size());
  EXPECT_EQ(avg.rungCounts[solveRungIndex(SolveRung::Optimal)], 0u);
  EXPECT_EQ(avg.budgetHits, 0u);  // faults are not budget hits
  // No row has an ILP answer to average.
  EXPECT_EQ(avg.quality, 0.0);
  EXPECT_EQ(avg.perfLossPct, 0.0);
}

TEST(Supervised, AveragesLeaveOutPolicyFallbackRows) {
  // Step 0 fails and returns its policy schedule, whose quality of 1 says
  // nothing about the ILP: quality and loss average rows 1..n only.
  const auto snapshots = captureSnapshots(250, 4, 100);
  ASSERT_GE(snapshots.size(), 2u);
  StudyOptions options = fastOptions();
  util::FaultPlan faults;
  faults.failAtStep = 0;
  options.faults = faults;
  const std::vector<StudyRow> rows = runStudy(snapshots, options);
  ASSERT_EQ(rows.size(), snapshots.size());
  ASSERT_EQ(rows[0].rung, SolveRung::PolicyFallback);
  double quality = 0, loss = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    ASSERT_NE(rows[i].rung, SolveRung::PolicyFallback) << "row " << i;
    quality += rows[i].quality;
    loss += rows[i].perfLossPct;
  }
  const double answered = static_cast<double>(rows.size() - 1);
  const StudyAverages avg = averageRows(rows);
  EXPECT_EQ(avg.rows, rows.size());
  EXPECT_EQ(avg.rungCounts[solveRungIndex(SolveRung::PolicyFallback)], 1u);
  EXPECT_DOUBLE_EQ(avg.quality, quality / answered);
  EXPECT_DOUBLE_EQ(avg.perfLossPct, loss / answered);
}

TEST(Supervised, StudyCountsRungsAndBudgetHits) {
  const auto snapshots = captureSnapshots(250, 4, 101);
  ASSERT_GE(snapshots.size(), 2u);
  StudyOptions options = fastOptions();
  options.faults = util::FaultPlan{};
  options.budget.maxLpIterations = 1;  // every step degrades
  const std::vector<StudyRow> rows = runStudy(snapshots, options);
  const StudyAverages avg = averageRows(rows);
  // Every step is a budget hit. Steps whose warm start encodes onto the
  // grid keep the incumbent (rung 2); the rest have nothing and fall back
  // (rung 4) — but nobody finishes on rung 1.
  EXPECT_EQ(avg.rungCounts[solveRungIndex(SolveRung::IncumbentGap)] +
                avg.rungCounts[solveRungIndex(SolveRung::PolicyFallback)],
            rows.size());
  EXPECT_GT(avg.rungCounts[solveRungIndex(SolveRung::IncumbentGap)], 0u);
  EXPECT_EQ(avg.rungCounts[solveRungIndex(SolveRung::Optimal)], 0u);
  EXPECT_EQ(avg.budgetHits, rows.size());
  for (const StudyRow& row : rows) {
    EXPECT_EQ(row.stopReason, util::CancelReason::LpIterationLimit);
    EXPECT_FALSE(row.provenance.empty());
  }
}

// ------------------------------------------------------------- fault matrix
//
// These tests read DYNSCHED_FAULTS from the environment on purpose: the
// check.sh fault-matrix section and the CI faults-smoke step run this suite
// once per fault kind. With no environment faults they still pass (the
// ladder finishes on rung 1).

TEST(FaultMatrix, StudyCompletesUnderEnvFaults) {
  const auto snapshots = captureSnapshots(250, 3, 102);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  ASSERT_FALSE(options.faults.has_value());  // supervised reads the env
  const std::vector<StudyRow> rows = runStudy(snapshots, options);
  ASSERT_EQ(rows.size(), snapshots.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expectFeasible(
        // Re-derive the schedule the row evaluated: rung 4 rows must match
        // the policy value exactly, every other rung re-validates inside
        // supervisedBestSchedule. Here we assert row coherence instead.
        snapshots[i].bestSchedule, snapshots[i], "policy schedule");
    EXPECT_GT(rows[i].policyValue, 0.0);
    EXPECT_GT(rows[i].ilpValue, 0.0);
    EXPECT_FALSE(rows[i].provenance.empty());
  }
  const StudyAverages avg = averageRows(rows);
  std::size_t total = 0;
  for (const std::size_t c : avg.rungCounts) total += c;
  EXPECT_EQ(total, rows.size());
}

TEST(FaultMatrix, SupervisedStepAlwaysFeasibleUnderEnvFaults) {
  const auto snapshots = captureSnapshots(200, 2, 103);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  for (long step = 0; step < static_cast<long>(snapshots.size()); ++step) {
    const SupervisedResult result = supervisedBestSchedule(
        snapshots[static_cast<std::size_t>(step)], options, step);
    expectFeasible(result.schedule,
                   snapshots[static_cast<std::size_t>(step)],
                   "supervised schedule");
    EXPECT_FALSE(result.schedule.empty());
  }
}

}  // namespace
}  // namespace dynsched::tip
