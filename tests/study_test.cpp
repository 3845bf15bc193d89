// End-to-end offline-study tests: simulate a CTC-like trace with dynP,
// capture self-tuning steps, solve the time-indexed ILPs, and check the
// Table 1 machinery (quality, perf-loss, averages) behaves like the paper
// describes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "dynsched/tip/tim_model.hpp"
#include "dynsched/analysis/audit.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/study.hpp"
#include "dynsched/trace/synthetic.hpp"

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
  // Keep the grids small for test speed: pretend a small-memory machine so
  // Eq. 6 picks coarse scales.
  options.scaling.totalMemoryBytes = 64ULL << 20;
  return options;
}

TEST(Study, MakeInstanceAppliesEq6) {
  const auto snapshots = captureSnapshots(200, 3, 77);
  ASSERT_FALSE(snapshots.empty());
  const StudyOptions options = fastOptions();
  const TipInstance instance = makeInstance(snapshots[0], options);
  EXPECT_EQ(instance.now, snapshots[0].time);
  EXPECT_EQ(instance.horizon, snapshots[0].maxPolicyMakespan);
  const Time expected = computeTimeScale(
      instance.horizon - instance.now, snapshots[0].accumulatedRuntime(),
      instance.jobs.size(), options.scaling);
  EXPECT_EQ(instance.timeScale, expected);
}

TEST(Study, ForcedTimeScaleOverridesEq6) {
  const auto snapshots = captureSnapshots(200, 1, 78);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  options.forcedTimeScale = 300;
  EXPECT_EQ(makeInstance(snapshots[0], options).timeScale, 300);
}

TEST(Study, RunStepProducesCoherentRow) {
  const auto snapshots = captureSnapshots(250, 4, 79);
  ASSERT_FALSE(snapshots.empty());
  const StudyOptions options = fastOptions();
  for (const auto& snap : snapshots) {
    const StudyRow row = runStep(snap, options);
    EXPECT_EQ(row.submissionTime, snap.time);
    EXPECT_EQ(row.jobs, snap.waiting.size());
    EXPECT_GT(row.makespan, 0);
    EXPECT_GT(row.accRuntime, 0);
    EXPECT_GT(row.timeScale, 0);
    EXPECT_GT(row.lpColumns, 0);
    EXPECT_GT(row.policyValue, 0);
    EXPECT_GT(row.ilpValue, 0);
    EXPECT_NEAR(row.quality, row.ilpValue / row.policyValue, 1e-12);
    EXPECT_NEAR(row.perfLossPct, (1.0 - row.quality) * 100.0, 1e-9);
    EXPECT_TRUE(row.status == mip::MipStatus::Optimal ||
                row.status == mip::MipStatus::FeasibleLimit);
  }
}

TEST(Study, WarmStartBoundsQuality) {
  // With the warm start the ILP starts from the best policy schedule, so a
  // *proven optimal* solve can lose to the policy only through the
  // time-scaling detour (quality > 1 is possible but typically mild).
  const auto snapshots = captureSnapshots(250, 4, 80);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  options.warmStart = true;
  for (const auto& snap : snapshots) {
    const StudyRow row = runStep(snap, options);
    EXPECT_LT(row.quality, 2.0) << "pathological quality";
    EXPECT_GT(row.quality, 0.2);
  }
}

TEST(Study, SecondPreciseIlpNeverWorseThanPolicy) {
  // At scale 1 (no time-scaling) a proven-optimal ILP is at least as good
  // as the best policy under the ILP's own objective (ARTwW): the paper's
  // "CPLEX should always at least find the same schedule as any policy".
  auto snapshots = captureSnapshots(150, 3, 81);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  options.metric = core::MetricKind::ArtWW;  // match the ILP objective
  options.forcedTimeScale = 1;
  options.mip.maxNodes = 20000;
  options.mip.timeLimitSeconds = 60;
  for (const auto& snap : snapshots) {
    // Keep instances tiny: skip steps with long horizons (grid too fine).
    if (snap.maxPolicyMakespan - snap.time > 4000) continue;
    const StudyRow row = runStep(snap, options);
    if (row.status != mip::MipStatus::Optimal) continue;
    EXPECT_LE(row.quality, 1.0 + 1e-9)
        << "optimal ILP lost to a policy without time-scaling";
  }
}

TEST(Study, RunStudyAggregatesAndParallelMatchesSerial) {
  const auto snapshots = captureSnapshots(250, 4, 82);
  ASSERT_GE(snapshots.size(), 2u);
  const StudyOptions options = fastOptions();
  const auto serial = runStudy(snapshots, options, 1);
  const auto parallel = runStudy(snapshots, options, 2);
  ASSERT_EQ(serial.size(), snapshots.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].jobs, serial[i].jobs);
    EXPECT_DOUBLE_EQ(parallel[i].quality, serial[i].quality);
    EXPECT_DOUBLE_EQ(parallel[i].ilpValue, serial[i].ilpValue);
  }

  const StudyAverages avg = averageRows(serial);
  EXPECT_EQ(avg.rows, serial.size());
  double qualitySum = 0;
  for (const auto& row : serial) qualitySum += row.quality;
  EXPECT_NEAR(avg.quality, qualitySum / static_cast<double>(serial.size()),
              1e-12);
  EXPECT_NEAR(avg.perfLossPct, (1.0 - avg.quality) * 100.0, 1.0);
}

TEST(Study, AveragesOfEmptyStudyAreZero) {
  const StudyAverages avg = averageRows({});
  EXPECT_EQ(avg.rows, 0u);
  EXPECT_EQ(avg.quality, 0.0);
}

// --- Crash-safety: journal, kill-at-step, resume ---------------------------

std::string journalPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Byte-identity tests (resume must reproduce the reference exactly) need
// deterministic solves: a wall-clock limit stops at a timing-dependent node
// (flaky under sanitizer slowdown), a node cap always stops at the same
// tree state.
StudyOptions deterministicOptions() {
  StudyOptions options = fastOptions();
  options.mip.timeLimitSeconds = 900;
  options.mip.maxNodes = 300;
  return options;
}

/// `options` set to resume (or start) the journal at `path`.
StudyOptions resuming(StudyOptions options, const std::string& path) {
  options.journal.path = path;
  options.journal.resume = true;
  return options;
}

TEST(StudyJournal, RowPayloadRoundTripsEveryField) {
  StudyRow row;
  row.submissionTime = 12345;
  row.jobs = 7;
  row.makespan = 999;
  row.accRuntime = 4242;
  row.timeScale = 60;
  row.bestPolicy = core::PolicyKind::Ljf;
  row.policyValue = 1.5;
  row.ilpValue = 1.25;
  row.quality = 0.8333;
  row.perfLossPct = 16.67;
  row.solveSeconds = 0.125;
  row.status = mip::MipStatus::FeasibleLimit;
  row.gap = 0.01;
  row.nodes = 4096;
  row.lpColumns = 321;
  row.lpRows = 123;
  row.rung = SolveRung::CoarsenedRetry;
  row.stopReason = util::CancelReason::NodeLimit;
  row.provenance = "rung=coarsened-retry reason=node-limit";

  util::PayloadWriter w;
  writeStudyRowPayload(row, 5, w);
  util::PayloadReader r(w.bytes());
  StudyRow back;
  EXPECT_EQ(readStudyRowPayload(r, back), 5u);
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(back.submissionTime, row.submissionTime);
  EXPECT_EQ(back.jobs, row.jobs);
  EXPECT_EQ(back.makespan, row.makespan);
  EXPECT_EQ(back.accRuntime, row.accRuntime);
  EXPECT_EQ(back.timeScale, row.timeScale);
  EXPECT_EQ(back.bestPolicy, row.bestPolicy);
  EXPECT_DOUBLE_EQ(back.policyValue, row.policyValue);
  EXPECT_DOUBLE_EQ(back.ilpValue, row.ilpValue);
  EXPECT_DOUBLE_EQ(back.quality, row.quality);
  EXPECT_DOUBLE_EQ(back.perfLossPct, row.perfLossPct);
  EXPECT_DOUBLE_EQ(back.solveSeconds, row.solveSeconds);
  EXPECT_EQ(back.status, row.status);
  EXPECT_DOUBLE_EQ(back.gap, row.gap);
  EXPECT_EQ(back.nodes, row.nodes);
  EXPECT_EQ(back.lpColumns, row.lpColumns);
  EXPECT_EQ(back.lpRows, row.lpRows);
  EXPECT_EQ(back.rung, row.rung);
  EXPECT_EQ(back.stopReason, row.stopReason);
  EXPECT_EQ(back.provenance, row.provenance);
}

TEST(StudyJournal, JournaledRunMatchesPlainAndResumeReplaysAll) {
  const auto snapshots = captureSnapshots(250, 3, 83);
  ASSERT_GE(snapshots.size(), 2u);
  const StudyOptions plainOptions = deterministicOptions();
  const auto reference = runStudy(snapshots, plainOptions, 1);
  const std::string refText = studyReportText(reference);

  StudyOptions journaled = deterministicOptions();
  journaled.journal.path = journalPath("study-plain.jrnl");
  std::remove(journaled.journal.path.c_str());
  StudyResumeInfo info;
  const auto rows = runStudy(snapshots, journaled, 1, &info);
  EXPECT_EQ(studyReportText(rows), refText);
  EXPECT_EQ(info.solvedRows, snapshots.size());
  EXPECT_EQ(info.replayedRows, 0u);
  EXPECT_FALSE(info.interrupted);

  // Resuming a completed journal re-solves nothing.
  StudyResumeInfo resumeInfo;
  const auto resumed =
      runStudy(snapshots, resuming(plainOptions, journaled.journal.path), 1,
               &resumeInfo);
  EXPECT_EQ(studyReportText(resumed), refText);
  EXPECT_EQ(resumeInfo.replayedRows, snapshots.size());
  EXPECT_EQ(resumeInfo.solvedRows, 0u);
  std::remove(journaled.journal.path.c_str());
}

TEST(StudyJournal, ParallelJournaledMatchesSerial) {
  const auto snapshots = captureSnapshots(250, 4, 84);
  ASSERT_GE(snapshots.size(), 2u);
  StudyOptions serialOpt = deterministicOptions();
  serialOpt.journal.path = journalPath("study-serial.jrnl");
  std::remove(serialOpt.journal.path.c_str());
  const auto serial = runStudy(snapshots, serialOpt, 1);

  StudyOptions parallelOpt = deterministicOptions();
  parallelOpt.journal.path = journalPath("study-parallel.jrnl");
  std::remove(parallelOpt.journal.path.c_str());
  const auto parallel = runStudy(snapshots, parallelOpt, 2);

  EXPECT_EQ(studyReportText(parallel), studyReportText(serial));
  // Rows land in the journal in completion order, each tagged with its
  // index — a resume must reassemble input order regardless.
  StudyResumeInfo info;
  const auto resumed = runStudy(
      snapshots, resuming(deterministicOptions(), parallelOpt.journal.path), 1,
      &info);
  EXPECT_EQ(studyReportText(resumed), studyReportText(serial));
  EXPECT_EQ(info.replayedRows, snapshots.size());
  std::remove(serialOpt.journal.path.c_str());
  std::remove(parallelOpt.journal.path.c_str());
}

TEST(StudyJournalDeathTest, KillAtStepExitsAfterPersistingTheRow) {
  const auto snapshots = captureSnapshots(250, 3, 85);
  ASSERT_GE(snapshots.size(), 2u);
  const auto reference = runStudy(snapshots, deterministicOptions(), 1);
  const std::string refText = studyReportText(reference);

  StudyOptions options = deterministicOptions();
  options.journal.path = journalPath("study-kill.jrnl");
  std::remove(options.journal.path.c_str());
  options.faults = util::FaultPlan::parse("kill-at-step=1");

  // The fault must kill the process (like SIGKILL would) right after row 1
  // hits the journal — the death-test child takes the hit for us.
  EXPECT_EXIT(runStudy(snapshots, options, 1),
              testing::ExitedWithCode(util::kKillFaultExitCode), "");

  // The journal the dead child left behind holds rows 0..1; resume re-solves
  // only the rest and reproduces the uninterrupted reference bit for bit.
  StudyResumeInfo info;
  const auto resumed = runStudy(
      snapshots, resuming(deterministicOptions(), options.journal.path), 1,
      &info);
  EXPECT_EQ(studyReportText(resumed), refText);
  EXPECT_EQ(info.replayedRows, 2u);
  EXPECT_EQ(info.solvedRows, snapshots.size() - 2);
  std::remove(options.journal.path.c_str());
}

TEST(StudyJournal, TornTailIsReSolvedOnResume) {
  const auto snapshots = captureSnapshots(250, 3, 86);
  ASSERT_GE(snapshots.size(), 2u);
  StudyOptions options = deterministicOptions();
  options.journal.path = journalPath("study-torn.jrnl");
  std::remove(options.journal.path.c_str());
  const auto reference = runStudy(snapshots, options, 1);
  const std::string refText = studyReportText(reference);

  // Tear the file mid-record, as a crash inside write(2) would.
  std::string bytes;
  {
    std::ifstream in(options.journal.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Keep the header + meta record (the first ~44 bytes) and cut the file in
  // half, which tears at least the last row record.
  ASSERT_GT(bytes.size(), 120u);
  {
    std::ofstream out(options.journal.path,
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  StudyResumeInfo info;
  const auto resumed = runStudy(
      snapshots, resuming(deterministicOptions(), options.journal.path), 1,
      &info);
  EXPECT_TRUE(info.tailDropped);
  EXPECT_FALSE(info.tailWarning.empty());
  EXPECT_EQ(studyReportText(resumed), refText);
  EXPECT_GT(info.solvedRows, 0u);  // the torn rows were re-solved
  std::remove(options.journal.path.c_str());
}

TEST(StudyJournal, FingerprintMismatchFailsStructurally) {
  const auto snapshots = captureSnapshots(250, 2, 87);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  options.journal.path = journalPath("study-mismatch.jrnl");
  std::remove(options.journal.path.c_str());
  runStudy(snapshots, options, 1);

  StudyOptions different = fastOptions();
  different.forcedTimeScale = 120;  // changes row values → new fingerprint
  EXPECT_THROW(
      runStudy(snapshots, resuming(different, options.journal.path), 1),
      analysis::AuditError);
  std::remove(options.journal.path.c_str());
}

TEST(StudyJournal, FutureRecordVersionFailsStructurally) {
  const auto snapshots = captureSnapshots(250, 2, 88);
  ASSERT_FALSE(snapshots.empty());
  StudyOptions options = fastOptions();
  options.journal.path = journalPath("study-future.jrnl");
  std::remove(options.journal.path.c_str());
  runStudy(snapshots, options, 1);

  // A build from the future appends a row record with a newer schema
  // version; this build must refuse to misparse it.
  {
    const util::JournalReadResult read =
        util::readJournal(options.journal.path);
    util::JournalWriter w =
        util::JournalWriter::append(options.journal.path, read);
    util::PayloadWriter p;
    p.u64(0);
    w.write(kStudyRowRecord, 99, p);
  }
  EXPECT_THROW(
      runStudy(snapshots, resuming(fastOptions(), options.journal.path), 1),
      analysis::AuditError);
  std::remove(options.journal.path.c_str());
}

TEST(StudyJournal, HeaderOnlyJournalResumesAsAFreshStudy) {
  const auto snapshots = captureSnapshots(250, 2, 89);
  ASSERT_FALSE(snapshots.empty());
  const std::string refText =
      studyReportText(runStudy(snapshots, deterministicOptions(), 1));

  // A process killed between create()'s header fsync and the meta record
  // leaves a bare header behind; resuming it must start the study afresh.
  const std::string path = journalPath("study-bare.jrnl");
  util::JournalWriter::create(path);
  StudyResumeInfo info;
  const auto resumed =
      runStudy(snapshots, resuming(deterministicOptions(), path), 1, &info);
  EXPECT_EQ(studyReportText(resumed), refText);
  EXPECT_EQ(info.replayedRows, 0u);
  EXPECT_EQ(info.solvedRows, snapshots.size());
  EXPECT_FALSE(info.tailDropped);

  // The restarted journal is a whole one: the next resume replays it all.
  StudyResumeInfo again;
  runStudy(snapshots, resuming(deterministicOptions(), path), 1, &again);
  EXPECT_EQ(again.replayedRows, snapshots.size());
  EXPECT_EQ(again.solvedRows, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dynsched::tip
