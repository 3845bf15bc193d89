// Discrete-event RMS simulator tests: conservation, timing semantics,
// early-completion replanning, policy switching, snapshot capture.
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/trace/filters.hpp"
#include "dynsched/trace/synthetic.hpp"
#include "dynsched/util/journal.hpp"
#include "dynsched/util/rng.hpp"

namespace dynsched::sim {
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

SimOptions fixedPolicy(core::PolicyKind policy) {
  SimOptions o;
  o.kind = SchedulerKind::FixedPolicy;
  o.fixedPolicy = policy;
  return o;
}

TEST(Simulator, SingleJobRunsImmediately) {
  RmsSimulator sim(core::Machine{16}, fixedPolicy(core::PolicyKind::Fcfs));
  const auto report = sim.run({makeJob(1, 100, 8, 50)});
  ASSERT_EQ(report.completed.size(), 1u);
  EXPECT_EQ(report.completed[0].start, 100);
  EXPECT_EQ(report.completed[0].end, 150);
  EXPECT_EQ(report.completed[0].waitTime(), 0);
}

TEST(Simulator, FullMachineJobsSerialize) {
  RmsSimulator sim(core::Machine{8}, fixedPolicy(core::PolicyKind::Fcfs));
  const auto report = sim.run(
      {makeJob(1, 0, 8, 100), makeJob(2, 0, 8, 100), makeJob(3, 0, 8, 100)});
  ASSERT_EQ(report.completed.size(), 3u);
  std::vector<Time> starts;
  for (const auto& c : report.completed) starts.push_back(c.start);
  std::sort(starts.begin(), starts.end());
  EXPECT_EQ(starts, (std::vector<Time>{0, 100, 200}));
  EXPECT_EQ(report.simulatedSpan, 300);
}

TEST(Simulator, AllJobsCompleteExactlyOnce) {
  const auto trace = trace::ctcModel().generate(300, 17);
  RmsSimulator sim(core::Machine{430}, fixedPolicy(core::PolicyKind::Fcfs));
  const auto report = sim.run(core::fromSwf(trace));
  ASSERT_EQ(report.completed.size(), 300u);
  std::set<JobId> ids;
  for (const auto& c : report.completed) {
    ids.insert(c.job.id);
    EXPECT_GE(c.start, c.job.submit);
    EXPECT_EQ(c.end - c.start, c.job.actualRuntime);
  }
  EXPECT_EQ(ids.size(), 300u);
}

TEST(Simulator, EarlyCompletionTriggersReplan) {
  // Job 1 estimates 1000 s but runs 100 s. Job 2 (full machine) is planned
  // for t=1000 but must start at 100 when the machine frees up early.
  RmsSimulator sim(core::Machine{8}, fixedPolicy(core::PolicyKind::Fcfs));
  const auto report =
      sim.run({makeJob(1, 0, 8, 1000, 100), makeJob(2, 10, 8, 50)});
  ASSERT_EQ(report.completed.size(), 2u);
  const auto* second = &report.completed[1];
  if (second->job.id != 2) second = &report.completed[0];
  EXPECT_EQ(second->start, 100);
}

TEST(Simulator, BackfillingHappensOnline) {
  // 60/100 nodes busy 1000 s (estimate == actual). FCFS: wide job waits,
  // narrow job backfills immediately.
  RmsSimulator sim(core::Machine{100}, fixedPolicy(core::PolicyKind::Fcfs));
  const auto report = sim.run({makeJob(9, 0, 60, 1000),
                               makeJob(1, 10, 70, 500),
                               makeJob(2, 20, 30, 300)});
  ASSERT_EQ(report.completed.size(), 3u);
  Time startWide = -1, startNarrow = -1;
  for (const auto& c : report.completed) {
    if (c.job.id == 1) startWide = c.start;
    if (c.job.id == 2) startNarrow = c.start;
  }
  EXPECT_EQ(startWide, 1000);
  EXPECT_EQ(startNarrow, 20);
}

TEST(Simulator, EasyBackfillModeRuns) {
  const auto trace = trace::ctcModel().generate(150, 23);
  SimOptions options;
  options.kind = SchedulerKind::EasyBackfill;
  RmsSimulator sim(core::Machine{430}, options);
  const auto report = sim.run(core::fromSwf(trace));
  EXPECT_EQ(report.completed.size(), 150u);
}

TEST(Simulator, DynPSwitchesOnPhasedWorkload) {
  // Short-job phase then long-job phase, with arrivals compressed so queues
  // actually form: dynP must switch at least once and every recorded switch
  // must alternate policies consistently.
  const auto trace = trace::scaleArrivals(
      trace::generatePhased(
          {{trace::shortJobModel(), 150}, {trace::longJobModel(), 100}}, 3),
      0.3);
  SimOptions options;
  options.kind = SchedulerKind::DynP;
  RmsSimulator sim(core::Machine{430}, options);
  const auto report = sim.run(core::fromSwf(trace));
  EXPECT_EQ(report.completed.size(), 250u);
  EXPECT_GT(report.dynpStats.steps, 0u);
  EXPECT_GT(report.switches.size(), 0u);
  for (const PolicySwitch& s : report.switches) {
    EXPECT_NE(s.from, s.to);
  }
  EXPECT_EQ(report.dynpStats.switches, report.switches.size());
}

TEST(Simulator, SnapshotsCaptureQuasiOfflineInstances) {
  const auto trace = trace::ctcModel().generate(200, 29);
  SimOptions options;
  options.kind = SchedulerKind::DynP;
  options.snapshots.enabled = true;
  options.snapshots.minWaiting = 3;
  options.snapshots.maxWaiting = 40;
  RmsSimulator sim(core::Machine{430}, options);
  const auto report = sim.run(core::fromSwf(trace));
  ASSERT_GT(report.snapshots.size(), 0u);
  for (const StepSnapshot& snap : report.snapshots) {
    EXPECT_GE(snap.waiting.size(), 3u);
    EXPECT_LE(snap.waiting.size(), 40u);
    EXPECT_TRUE(snap.history.valid());
    EXPECT_EQ(snap.history.startTime(), snap.time);
    // The warm-start schedule covers exactly the waiting set and is valid.
    EXPECT_EQ(snap.bestSchedule.size(), snap.waiting.size());
    EXPECT_TRUE(analysis::ScheduleValidator()
                    .validate(snap.bestSchedule, snap.history,
                              snap.history.startTime())
                    .ok());
    EXPECT_GE(snap.maxPolicyMakespan, snap.bestSchedule.makespan(snap.time));
    EXPECT_GT(snap.accumulatedRuntime(), 0);
    // Every waiting job was submitted no later than the step time.
    for (const core::Job& job : snap.waiting) {
      EXPECT_LE(job.submit, snap.time);
    }
  }
}

TEST(Simulator, SnapshotSamplingRespectsMaxCount) {
  const auto trace = trace::ctcModel().generate(300, 41);
  SimOptions capped;
  capped.kind = SchedulerKind::DynP;
  capped.snapshots.enabled = true;
  capped.snapshots.minWaiting = 1;
  capped.snapshots.maxCount = 5;
  RmsSimulator simCapped(core::Machine{430}, capped);
  EXPECT_EQ(simCapped.run(core::fromSwf(trace)).snapshots.size(), 5u);
}

TEST(Simulator, SnapshotValuesMatchReplayedPlans) {
  // Fidelity: the per-policy metric values stored in a snapshot must equal
  // re-planning the captured waiting set against the captured history.
  const auto trace = trace::ctcModel().generate(200, 83);
  SimOptions options;
  options.kind = SchedulerKind::DynP;
  options.snapshots.enabled = true;
  options.snapshots.minWaiting = 2;
  RmsSimulator sim(core::Machine{430}, options);
  const auto report = sim.run(core::fromSwf(trace));
  ASSERT_GT(report.snapshots.size(), 0u);
  for (const StepSnapshot& snap : report.snapshots) {
    const core::MetricEvaluator evaluator(snap.time, 430);
    for (std::size_t i = 0; i < core::kAllPolicies.size(); ++i) {
      const core::Schedule replay = core::planSchedule(
          snap.history, snap.waiting, core::kAllPolicies[i], snap.time);
      EXPECT_DOUBLE_EQ(snap.values[i],
                       evaluator.evaluate(replay, core::MetricKind::SldWA));
    }
  }
}

TEST(Simulator, ExtendedPolicyFamilyRunsEndToEnd) {
  const auto trace = trace::ctcModel().generate(200, 85);
  SimOptions options;
  options.kind = SchedulerKind::DynP;
  options.dynp.policies = core::PolicySet(core::kExtendedPolicies.begin(),
                                          core::kExtendedPolicies.end());
  RmsSimulator sim(core::Machine{430}, options);
  const auto report = sim.run(core::fromSwf(trace));
  EXPECT_EQ(report.completed.size(), 200u);
  EXPECT_EQ(report.dynpStats.chosenCount.size(), 5u);
  std::size_t chosen = 0;
  for (const auto c : report.dynpStats.chosenCount) chosen += c;
  EXPECT_EQ(chosen, report.dynpStats.steps);
}

TEST(Simulator, EmptyTraceYieldsEmptyReport) {
  RmsSimulator sim(core::Machine{8}, fixedPolicy(core::PolicyKind::Fcfs));
  const auto report = sim.run({});
  EXPECT_TRUE(report.completed.empty());
  EXPECT_EQ(report.simulatedSpan, 0);
  EXPECT_DOUBLE_EQ(report.avgResponseTime(), 0.0);
  EXPECT_DOUBLE_EQ(report.utilization(8), 0.0);
}

TEST(Simulator, ReportMetricsAreConsistent) {
  RmsSimulator sim(core::Machine{4}, fixedPolicy(core::PolicyKind::Fcfs));
  const auto report =
      sim.run({makeJob(1, 0, 4, 100), makeJob(2, 0, 4, 100)});
  // Responses: 100 and 200; waits 0 and 100; slowdowns 1 and 2.
  EXPECT_DOUBLE_EQ(report.avgResponseTime(), 150.0);
  EXPECT_DOUBLE_EQ(report.avgWaitTime(), 50.0);
  EXPECT_DOUBLE_EQ(report.avgSlowdown(), 1.5);
  EXPECT_DOUBLE_EQ(report.utilization(4), 1.0);
  EXPECT_FALSE(report.summary(4).empty());
}

TEST(Simulator, PoliciesProduceDifferentOutcomes) {
  // Sanity: on a contended workload SJF yields no worse average slowdown
  // than LJF (short jobs first reduce waiting of many).
  const auto trace = trace::shortJobModel().generate(200, 57);
  auto jobs = core::fromSwf(trace);
  // Increase contention: shrink the machine.
  for (auto& j : jobs) j.width = std::min<NodeCount>(j.width, 32);
  RmsSimulator sjf(core::Machine{32}, fixedPolicy(core::PolicyKind::Sjf));
  RmsSimulator ljf(core::Machine{32}, fixedPolicy(core::PolicyKind::Ljf));
  const double sldSjf = sjf.run(jobs).avgSlowdown();
  const double sldLjf = ljf.run(jobs).avgSlowdown();
  EXPECT_LE(sldSjf, sldLjf * 1.05);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto trace = trace::ctcModel().generate(250, 97);
  const auto jobs = core::fromSwf(trace);
  SimOptions options;
  options.kind = SchedulerKind::DynP;
  RmsSimulator a(core::Machine{430}, options);
  RmsSimulator b(core::Machine{430}, options);
  const auto ra = a.run(jobs);
  const auto rb = b.run(jobs);
  ASSERT_EQ(ra.completed.size(), rb.completed.size());
  for (std::size_t i = 0; i < ra.completed.size(); ++i) {
    EXPECT_EQ(ra.completed[i].job.id, rb.completed[i].job.id);
    EXPECT_EQ(ra.completed[i].start, rb.completed[i].start);
    EXPECT_EQ(ra.completed[i].end, rb.completed[i].end);
  }
  EXPECT_EQ(ra.switches.size(), rb.switches.size());
}

class SimulatorCapacityAudit : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimulatorCapacityAudit, MachineNeverOversubscribed) {
  // Property: at no instant does the sum of widths of running jobs exceed
  // the machine, under any scheduler mode.
  const auto trace = trace::ctcModel().generate(200, GetParam());
  const auto jobs = core::fromSwf(trace);
  const NodeCount machine = 430;
  for (const SchedulerKind kind :
       {SchedulerKind::FixedPolicy, SchedulerKind::EasyBackfill,
        SchedulerKind::DynP}) {
    SimOptions options;
    options.kind = kind;
    options.fixedPolicy = core::PolicyKind::Sjf;
    RmsSimulator sim(core::Machine{machine}, options);
    const auto report = sim.run(jobs);
    ASSERT_EQ(report.completed.size(), jobs.size());
    // Sweep-line audit over start/end events.
    std::vector<std::pair<Time, NodeCount>> events;
    for (const auto& c : report.completed) {
      events.emplace_back(c.start, c.job.width);
      events.emplace_back(c.end, -c.job.width);
    }
    std::sort(events.begin(), events.end());
    NodeCount busy = 0;
    for (const auto& [t, delta] : events) {
      busy += delta;
      ASSERT_LE(busy, machine)
          << schedulerKindName(kind) << " oversubscribed at t=" << t;
      ASSERT_GE(busy, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SimulatorCapacityAudit,
                         ::testing::Range<std::uint64_t>(300, 310));

TEST(Simulator, DynPDecisionsMatchRecordedDigest) {
  // Bit-identity guard for the planning kernel: every dynP decision on a
  // fixed CTC-like trace, folded into one digest. 2,000 jobs with arrivals
  // compressed until they offer 1.3 times the machine give 2,000 tuning
  // steps of about 50 waiting jobs each. The constant was recorded
  // before ResourceProfile::place() replaced earliestFit() + reserve() in
  // the planner; a kernel change that moves any planned start, metric value
  // or policy choice changes it.
  constexpr NodeCount kNodes = 430;
  std::vector<core::Job> jobs =
      core::fromSwf(trace::ctcModel().generate(2000, 1601));
  double work = 0;
  for (const core::Job& job : jobs) {
    work += static_cast<double>(job.width) *
            static_cast<double>(job.actualRuntime);
  }
  const Time first = jobs.front().submit;
  const double scale =
      work / (1.3 * kNodes) /
      static_cast<double>(jobs.back().submit - first);
  for (core::Job& job : jobs) {
    job.submit = static_cast<Time>(
        std::llround(static_cast<double>(job.submit - first) * scale));
  }

  SimOptions options;
  options.kind = SchedulerKind::DynP;
  options.snapshots.enabled = true;
  options.snapshots.minWaiting = 1;
  options.snapshots.maxWaiting = jobs.size();
  options.snapshots.maxCount = jobs.size();
  RmsSimulator sim(core::Machine{kNodes}, options);
  const SimulationReport report = sim.run(jobs);
  ASSERT_EQ(report.completed.size(), jobs.size());
  ASSERT_EQ(report.degradedSteps, 0u);

  util::PayloadWriter w;
  double waiting = 0;
  for (const StepSnapshot& snap : report.snapshots) {
    waiting += static_cast<double>(snap.waiting.size());
    w.i64(snap.time);
    for (const double value : snap.values) w.f64(value);
    w.u8(static_cast<std::uint8_t>(snap.bestPolicy));
    for (const core::ScheduledJob& e : snap.bestSchedule.entries()) {
      w.i64(e.job.id);
      w.i64(e.start);
    }
  }
  for (const CompletedJob& c : report.completed) {
    w.i64(c.job.id);
    w.i64(c.start);
  }
  const std::uint64_t digest =
      util::fnv1a64(w.bytes().data(), w.bytes().size());
  waiting /= static_cast<double>(report.snapshots.size());
  EXPECT_EQ(report.snapshots.size(), report.tuningSteps);
  EXPECT_GT(waiting, 10.0) << "the trace no longer queues like the paper's";
  EXPECT_EQ(digest, 0xb8b434add63860b9ULL)
      << "digest 0x" << std::hex << digest << std::dec << " over "
      << report.snapshots.size() << " steps, " << waiting
      << " waiting jobs on average";
}

TEST(Simulator, FailSoftCompletesTraceUnderStepFaults) {
  // Every tuning step is declared failed; the simulator must degrade each
  // one to the active policy, finish the whole trace, and account for the
  // degradations.
  const auto trace = trace::ctcModel().generate(120, 62);
  SimOptions options;
  options.kind = SchedulerKind::DynP;
  util::FaultPlan faults;
  faults.failAtStep = util::FaultPlan::kEveryStep;
  options.faults = faults;
  RmsSimulator sim(core::Machine{430}, options);
  const SimulationReport report = sim.run(core::fromSwf(trace));
  EXPECT_EQ(report.completed.size(), 120u);
  EXPECT_GT(report.tuningSteps, 0u);
  EXPECT_EQ(report.degradedSteps, report.tuningSteps);
  // With every tuning step degraded, dynP never races policies, so no
  // switches can happen and no snapshots can be captured.
  EXPECT_TRUE(report.switches.empty());
  EXPECT_NE(report.summary(430).find("degraded="), std::string::npos);
}

TEST(Simulator, SingleStepFaultDegradesExactlyOne) {
  const auto trace = trace::ctcModel().generate(120, 63);
  SimOptions options;
  options.kind = SchedulerKind::DynP;
  util::FaultPlan faults;
  faults.failAtStep = 0;
  options.faults = faults;
  RmsSimulator sim(core::Machine{430}, options);
  const SimulationReport report = sim.run(core::fromSwf(trace));
  EXPECT_EQ(report.completed.size(), 120u);
  EXPECT_EQ(report.degradedSteps, 1u);
}

TEST(Simulator, CleanRunReportsNoDegradation) {
  const auto trace = trace::ctcModel().generate(80, 65);
  SimOptions options;
  options.kind = SchedulerKind::DynP;
  RmsSimulator sim(core::Machine{430}, options);
  const SimulationReport report = sim.run(core::fromSwf(trace));
  EXPECT_GT(report.tuningSteps, 0u);
  EXPECT_EQ(report.degradedSteps, 0u);
  EXPECT_EQ(report.summary(430).find("degraded="), std::string::npos);
}

}  // namespace
}  // namespace dynsched::sim
