// Time-indexed model tests: Eq. 6 time scaling, grid construction and
// placement, model building, encode/decode, compaction, exact oracle, and
// MIP-vs-oracle optimality at scale 1.
#include <cmath>

#include <gtest/gtest.h>

#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/core/planner.hpp"
#include "dynsched/tip/compaction.hpp"
#include "dynsched/tip/study.hpp"
#include "dynsched/tip/tim_model.hpp"
#include "dynsched/tip/time_scaling.hpp"
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

TipInstance makeInstance(NodeCount machine, std::vector<core::Job> jobs,
                         Time now, Time horizon, Time scale) {
  TipInstance inst;
  inst.history = core::MachineHistory::empty(core::Machine{machine}, now);
  inst.jobs = std::move(jobs);
  inst.now = now;
  inst.horizon = horizon;
  inst.timeScale = scale;
  return inst;
}

// ---------------------------------------------------------------------------
// Time scaling (Eq. 6).
// ---------------------------------------------------------------------------

/// Eq. 6's closed form, rounded up to a full minute.
Time closedFormScale(Time makespan, Time acc, std::size_t jobs,
                     const TimeScalingParams& params) {
  const double budget =
      static_cast<double>(params.totalMemoryBytes) / kSolverOverheadFactor;
  const double raw = std::sqrt(static_cast<double>(makespan) *
                               static_cast<double>(jobs) *
                               static_cast<double>(acc) * kBytesPerEntry /
                               budget);
  return static_cast<Time>(std::ceil(raw / 60.0)) * 60;
}

TEST(TimeScaling, MatchesClosedForm) {
  const TimeScalingParams params;
  const Time makespan = 172800, acc = 1000000;
  const std::size_t jobs = 20;
  EXPECT_EQ(computeTimeScale(makespan, acc, jobs, params),
            closedFormScale(makespan, acc, jobs, params));
}

TEST(TimeScaling, RoundsUpToFullMinutes) {
  const Time scale = computeTimeScale(172800, 1000000, 20);
  EXPECT_EQ(scale % 60, 0);
  EXPECT_GT(scale, 0);
}

TEST(TimeScaling, MonotoneInProblemSize) {
  TimeScalingParams params;
  const Time base = computeTimeScale(172800, 1000000, 20, params);
  EXPECT_LE(computeTimeScale(86400, 1000000, 20, params), base);
  EXPECT_LE(computeTimeScale(172800, 500000, 20, params), base);
  EXPECT_LE(computeTimeScale(172800, 1000000, 10, params), base);
  EXPECT_GE(computeTimeScale(345600, 2000000, 40, params), base);
}

TEST(TimeScaling, MoreMemoryMeansFinerScale) {
  TimeScalingParams small, large;
  small.totalMemoryBytes = 1ULL << 30;
  large.totalMemoryBytes = 64ULL << 30;
  EXPECT_GE(computeTimeScale(172800, 1000000, 20, small),
            computeTimeScale(172800, 1000000, 20, large));
}

TEST(TimeScaling, TinyProblemsStaySecondPrecise) {
  // A few short jobs: Eq. 6 yields < 1 s; the scale floors at kMinScale.
  EXPECT_EQ(computeTimeScale(600, 900, 3), kMinScale);
}

TEST(TimeScaling, MemoryEstimateInvertsEquation) {
  const TimeScalingParams params;
  const Time makespan = 100000, acc = 800000;
  const std::size_t jobs = 15;
  const Time scale = computeTimeScale(makespan, acc, jobs, params);
  EXPECT_EQ(scale, closedFormScale(makespan, acc, jobs, params));
  // The chosen scale is the finest full minute whose estimate fits the
  // budget.
  const double budget =
      static_cast<double>(params.totalMemoryBytes) / kSolverOverheadFactor;
  EXPECT_LE(estimateProblemBytes(makespan, acc, jobs, scale), budget);
  EXPECT_GT(estimateProblemBytes(makespan, acc, jobs, scale - 60), budget);
}

// ---------------------------------------------------------------------------
// Grid and model construction.
// ---------------------------------------------------------------------------

TEST(Grid, CapacityFollowsHistory) {
  TipInstance inst;
  inst.history = core::MachineHistory::fromRunningJobs(
      core::Machine{100}, 0, {{99, 60, 250}});
  inst.jobs = {makeJob(1, 0, 10, 100)};
  inst.now = 0;
  inst.horizon = 500;
  inst.timeScale = 100;
  const Grid grid = makeGrid(inst);
  EXPECT_GE(grid.slots(), 5);
  EXPECT_EQ(grid.capacity(0), 40);
  EXPECT_EQ(grid.capacity(1), 40);   // release at 250 is inside slot 2
  EXPECT_EQ(grid.capacity(2), 40);   // slot [200,300) starts before release
  EXPECT_EQ(grid.capacity(3), 100);
  EXPECT_EQ(grid.slotDuration(0), 1);
}

TEST(Grid, SlotDurationRoundsUp) {
  TipInstance inst = makeInstance(10, {makeJob(1, 0, 1, 101)}, 0, 300, 100);
  const Grid grid = makeGrid(inst);
  EXPECT_EQ(grid.slotDuration(0), 2);  // 101 s -> 2 slots of 100 s
}

TEST(Grid, PlacementRespectsCapacityAndOrder) {
  // Machine 10; two jobs of width 6 cannot overlap.
  TipInstance inst = makeInstance(
      10, {makeJob(1, 0, 6, 100), makeJob(2, 0, 6, 100)}, 0, 400, 100);
  const Grid grid = makeGrid(inst);
  const Grid::Placement p = grid.placeInOrder({0, 1});
  EXPECT_EQ(p.startSlot[0], 0);
  EXPECT_EQ(p.startSlot[1], 1);
  EXPECT_EQ(p.usedSlots, 2);
}

TEST(Grid, PlacementBackfillsNarrowJobs) {
  TipInstance inst = makeInstance(
      10,
      {makeJob(1, 0, 10, 100), makeJob(2, 0, 10, 100), makeJob(3, 0, 4, 100)},
      0, 600, 100);
  const Grid grid = makeGrid(inst);
  // Order: job1, job3, job2 — job3 fits beside nothing (job1 is full
  // machine), so it lands in slot 1 next to... nothing; then job2 full
  // machine must go to slot 2.
  const Grid::Placement p = grid.placeInOrder({0, 2, 1});
  EXPECT_EQ(p.startSlot[0], 0);
  EXPECT_EQ(p.startSlot[2], 1);
  EXPECT_EQ(p.startSlot[1], 2);
}

TEST(Grid, PlacementGrowsBeyondStoredSlots) {
  TipInstance inst = makeInstance(4, {makeJob(1, 0, 4, 1000)}, 0, 100, 50);
  Grid grid(inst, 1);  // deliberately tiny
  const Grid::Placement p = grid.placeInOrder({0});
  EXPECT_EQ(p.startSlot[0], 0);
  EXPECT_EQ(p.usedSlots, 20);  // 1000/50
}

TEST(TipModel, StructureMatchesPaperFormulation) {
  TipInstance inst = makeInstance(
      10, {makeJob(1, 0, 6, 100), makeJob(2, 0, 6, 200)}, 0, 400, 100);
  const Grid grid = makeGrid(inst);
  const TipModel model = buildModel(inst, grid);
  const int slots = grid.slots();
  // One assignment row per job + one capacity row per slot (Eq. 3, 4).
  EXPECT_EQ(model.mip.lp.numRows(), 2 + slots);
  // Job 1 can start in slots 0..slots-1; job 2 in 0..slots-2.
  EXPECT_EQ(model.mip.lp.numVariables(), slots + (slots - 1));
  // All variables binary (Eq. 5).
  for (int j = 0; j < model.mip.lp.numVariables(); ++j) {
    EXPECT_TRUE(model.mip.integer[static_cast<std::size_t>(j)]);
    EXPECT_EQ(model.mip.lp.columnLower(j), 0.0);
    EXPECT_EQ(model.mip.lp.columnUpper(j), 1.0);
  }
  // Objective of x_{job0, slot k} = (k·scale − 0 + 100) · 6 (Eq. 2).
  for (std::size_t col = 0; col < model.colJob.size(); ++col) {
    if (model.colJob[col] == 0) {
      const double expected =
          (static_cast<double>(model.colSlot[col]) * 100.0 + 100.0) * 6.0;
      EXPECT_DOUBLE_EQ(model.mip.lp.objectiveCoef(static_cast<int>(col)),
                       expected);
    }
  }
}

TEST(TipModel, EncodeDecodeRoundTrip) {
  TipInstance inst = makeInstance(
      10, {makeJob(1, 0, 6, 100), makeJob(2, 0, 6, 100)}, 0, 400, 100);
  const Grid grid = makeGrid(inst);
  const TipModel model = buildModel(inst, grid);
  const std::vector<int> slots = {2, 0};
  const auto x = model.encode(slots);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(model.startSlots(*x), slots);
  // A slot outside the horizon cannot be encoded.
  EXPECT_FALSE(model.encode({grid.slots(), 0}).has_value());
}

TEST(TipModel, WarmStartFromGridPlacementIsFeasible) {
  TipInstance inst = makeInstance(
      10,
      {makeJob(1, 0, 6, 150), makeJob(2, 0, 6, 100), makeJob(3, 0, 4, 50)},
      0, 600, 100);
  const Grid grid = makeGrid(inst);
  const TipModel model = buildModel(inst, grid);
  const Grid::Placement p = grid.placeInOrder({0, 1, 2});
  const auto x = model.encode(p.startSlot);
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(model.mip.lp.isFeasible(*x, 1e-9));
}

// ---------------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------------

TEST(Compaction, RemovesTimeScalingSlack) {
  // One 90 s job on a 100 s grid: scaled schedule wastes 10 s per slot;
  // compaction packs jobs back to back at second precision.
  TipInstance inst = makeInstance(
      4, {makeJob(1, 0, 4, 90), makeJob(2, 0, 4, 90)}, 0, 400, 100);
  const core::Schedule s = compactFromSlots(inst, {0, 1});
  EXPECT_EQ(s.find(1)->start, 0);
  EXPECT_EQ(s.find(2)->start, 90);  // not 100
}

TEST(Compaction, PreservesStartingOrderTiesDeterministically) {
  TipInstance inst = makeInstance(
      4, {makeJob(7, 5, 4, 50), makeJob(3, 2, 4, 50)}, 10, 400, 100);
  // Both in slot 0: order by submit time -> job 3 first.
  const auto order = startingOrder(inst, {0, 0});
  EXPECT_EQ(order[0], 1u);  // index of job 3
  const core::Schedule s = compactSchedule(inst, order);
  EXPECT_LT(s.find(3)->start, s.find(7)->start);
}

TEST(Compaction, ValidatesAgainstHistory) {
  TipInstance inst;
  inst.history = core::MachineHistory::fromRunningJobs(
      core::Machine{100}, 50, {{99, 60, 300}});
  inst.jobs = {makeJob(1, 0, 70, 100), makeJob(2, 10, 30, 100)};
  inst.now = 50;
  inst.horizon = 800;
  inst.timeScale = 60;
  const core::Schedule s = compactFromSlots(inst, {3, 0});
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(s, inst.history, inst.history.startTime())
                  .ok());
  // Order: job2 (slot 0) then job1; job2 starts immediately at 50.
  EXPECT_EQ(s.find(2)->start, 50);
  EXPECT_EQ(s.find(1)->start, 300);
}

// ---------------------------------------------------------------------------
// Exact oracle and solver optimality at scale 1.
// ---------------------------------------------------------------------------

TEST(Exact, FindsObviousOptimum) {
  // Two full-machine jobs: ARTwW-optimal order runs the short one first.
  TipInstance inst = makeInstance(
      8, {makeJob(1, 0, 8, 1000), makeJob(2, 0, 8, 10)}, 0, 2000, 1);
  const ExactResult r = exactBestSchedule(inst, core::MetricKind::ArtWW);
  EXPECT_EQ(r.ordersTried, 2u);
  EXPECT_EQ(r.schedule.find(2)->start, 0);
  EXPECT_EQ(r.schedule.find(1)->start, 10);
}

TEST(Exact, RejectsOversizedInstances) {
  std::vector<core::Job> jobs;
  for (int i = 0; i < 11; ++i) jobs.push_back(makeJob(i + 1, 0, 1, 10));
  TipInstance inst = makeInstance(4, std::move(jobs), 0, 1000, 1);
  EXPECT_THROW(exactBestSchedule(inst, core::MetricKind::ArtWW), CheckError);
}

struct ScaleOneCase {
  std::uint64_t seed;
  int jobs;
};

class ScaleOneOptimalityTest : public ::testing::TestWithParam<ScaleOneCase> {
};

TEST_P(ScaleOneOptimalityTest, MipMatchesExhaustiveOracle) {
  const ScaleOneCase param = GetParam();
  util::Rng rng(param.seed);
  const NodeCount machine = static_cast<NodeCount>(rng.uniformInt(4, 16));
  TipInstance inst;
  std::vector<core::RunningJob> running;
  if (rng.bernoulli(0.5)) {
    const NodeCount w =
        static_cast<NodeCount>(rng.uniformInt(1, machine / 2 + 1));
    running.push_back(core::RunningJob{99, w, rng.uniformInt(5, 40)});
  }
  inst.history = core::MachineHistory::fromRunningJobs(
      core::Machine{machine}, 0, running);
  Time serialized = inst.history.fullyFreeFrom();
  for (int i = 0; i < param.jobs; ++i) {
    const NodeCount w = static_cast<NodeCount>(rng.uniformInt(1, machine));
    const Time d = rng.uniformInt(1, 30);
    inst.jobs.push_back(makeJob(i + 1, 0, w, d));
    serialized += d;
  }
  inst.now = 0;
  inst.timeScale = 1;
  // Generous horizon: the serialized makespan dominates every order's
  // earliest-fit schedule, so the grid contains the true optimum.
  inst.horizon = serialized;

  const ExactResult oracle =
      exactBestSchedule(inst, core::MetricKind::ArtWW);
  const double oracleObjective =
      core::MetricEvaluator::totalWeightedResponse(oracle.schedule);

  const Grid grid = makeGrid(inst);
  const TipModel model = buildModel(inst, grid);
  mip::MipOptions options;
  options.branchGroups = model.jobColumns;
  const mip::MipResult solved = mip::solveMip(model.mip, options);
  ASSERT_EQ(solved.status, mip::MipStatus::Optimal) << "seed " << param.seed;
  EXPECT_NEAR(solved.objective, oracleObjective, 1e-6)
      << "seed " << param.seed << " machine " << machine;

  // The compacted schedule achieves the ILP objective (scale 1 = no slack).
  const core::Schedule compacted =
      compactFromSlots(inst, model.startSlots(solved.x));
  EXPECT_TRUE(analysis::ScheduleValidator()
                  .validate(compacted, inst.history, inst.history.startTime())
                  .ok());
  EXPECT_NEAR(core::MetricEvaluator::totalWeightedResponse(compacted),
              oracleObjective, 1e-6)
      << "seed " << param.seed;
}

std::vector<ScaleOneCase> scaleOneCases() {
  std::vector<ScaleOneCase> cases;
  std::uint64_t seed = 6100;
  for (const int jobs : {2, 3, 4, 5}) {
    for (int rep = 0; rep < 4; ++rep) cases.push_back({seed++, jobs});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ScaleOneOptimalityTest,
                         ::testing::ValuesIn(scaleOneCases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_j" + std::to_string(info.param.jobs);
                         });

// Compaction never yields a worse metric value than the raw scaled
// schedule it came from.
class CompactionPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CompactionPropertyTest, CompactionNeverHurts) {
  util::Rng rng(GetParam());
  const NodeCount machine = static_cast<NodeCount>(rng.uniformInt(4, 32));
  TipInstance inst;
  inst.history = core::MachineHistory::empty(core::Machine{machine}, 0);
  const int n = static_cast<int>(rng.uniformInt(2, 7));
  for (int i = 0; i < n; ++i) {
    inst.jobs.push_back(makeJob(i + 1, 0,
                                static_cast<NodeCount>(
                                    rng.uniformInt(1, machine)),
                                rng.uniformInt(10, 500)));
  }
  inst.now = 0;
  inst.horizon = 5000;
  inst.timeScale = 60;
  const Grid grid = makeGrid(inst);
  std::vector<std::size_t> order(inst.jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Random order.
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.uniformInt(
                  0, static_cast<std::int64_t>(i) - 1))]);
  }
  const Grid::Placement p = grid.placeInOrder(order);

  // Scaled schedule: jobs start at slot boundaries.
  core::Schedule scaled;
  for (std::size_t i = 0; i < inst.jobs.size(); ++i) {
    scaled.add(inst.jobs[i], grid.slotStart(p.startSlot[i]));
  }
  const core::Schedule compacted = compactFromSlots(inst, p.startSlot);
  const core::MetricEvaluator evaluator(0, machine);
  for (const auto metric :
       {core::MetricKind::ArtWW, core::MetricKind::SldWA,
        core::MetricKind::AvgResponseTime}) {
    EXPECT_LE(evaluator.evaluate(compacted, metric),
              evaluator.evaluate(scaled, metric) + 1e-9)
        << core::metricName(metric) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CompactionPropertyTest,
                         ::testing::Range<std::uint64_t>(6500, 6516));


TEST(Exact, CancelTokenMakesEnumerationAnytime) {
  std::vector<core::Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(makeJob(i + 1, 0, 1 + (i % 3), 50 + 10 * i));
  }
  TipInstance inst = makeInstance(6, std::move(jobs), 0, 5000, 1);
  util::FaultPlan faults;
  faults.deadlineNow = true;
  util::CancelToken token({}, faults);
  const ExactResult r =
      exactBestSchedule(inst, core::MetricKind::ArtWW, &token);
  EXPECT_FALSE(r.complete);
  EXPECT_LT(r.ordersTried, 40320u);  // 8! — stopped well short
  // Without a token the oracle completes and reports so.
  const ExactResult full = exactBestSchedule(inst, core::MetricKind::ArtWW);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.ordersTried, 40320u);
}

}  // namespace
}  // namespace dynsched::tip
