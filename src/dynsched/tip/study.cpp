#include "dynsched/tip/study.hpp"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "dynsched/analysis/audit.hpp"
#include "dynsched/core/metrics.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/logging.hpp"
#include "dynsched/util/mutex.hpp"
#include "dynsched/util/signals.hpp"
#include "dynsched/util/thread_annotations.hpp"
#include "dynsched/util/thread_pool.hpp"

namespace dynsched::tip {

StudyRow runStep(const sim::StepSnapshot& snapshot,
                 const StudyOptions& options, long stepIndex) {
  StudyRow row;
  row.submissionTime = snapshot.time;
  row.jobs = snapshot.waiting.size();
  row.bestPolicy = snapshot.bestPolicy;
  DYNSCHED_CHECK(!snapshot.waiting.empty());

  const TipInstance instance = makeInstance(snapshot, options);
  row.makespan = instance.horizon - instance.now;
  row.accRuntime = snapshot.accumulatedRuntime();

  const SupervisedResult solved =
      supervisedBestSchedule(snapshot, options, stepIndex);
  row.timeScale = solved.timeScale;
  row.solveSeconds = solved.seconds;
  row.status = solved.mipStatus;
  row.nodes = solved.nodes;
  row.refactorizations = solved.refactorizations;
  row.gap = solved.gap;
  row.lpColumns = solved.lpColumns;
  row.lpRows = solved.lpRows;
  row.rung = solved.rung;
  row.stopReason = solved.stopReason;
  row.provenance = solved.provenance;

  // The ladder always hands back a feasible schedule; evaluate it and the
  // best policy schedule under the study metric. A rung-4 row degenerates
  // to quality 1 (the "ILP" schedule IS the policy schedule).
  const core::MetricEvaluator evaluator(instance.now,
                                        instance.history.machineSize());
  row.ilpValue = evaluator.evaluate(solved.schedule, options.metric);
  row.policyValue =
      evaluator.evaluate(snapshot.bestSchedule, options.metric);
  DYNSCHED_CHECK_MSG(row.policyValue != 0.0,
                     "policy metric value is zero; quality undefined");
  row.quality = row.ilpValue / row.policyValue;
  row.perfLossPct = (1.0 - row.quality) * 100.0;
  return row;
}

std::uint64_t studyFingerprint(const std::vector<sim::StepSnapshot>& snapshots,
                               const StudyOptions& options) {
  util::PayloadWriter w;
  w.u64(snapshots.size());
  for (const sim::StepSnapshot& snap : snapshots) {
    w.i64(snap.time);
    w.u64(snap.waiting.size());
    w.i64(snap.accumulatedRuntime());
    w.i64(snap.maxPolicyMakespan);
    w.u8(static_cast<std::uint8_t>(snap.bestPolicy));
    for (const core::Job& job : snap.waiting) w.i64(job.id);
  }
  w.u8(static_cast<std::uint8_t>(options.metric));
  w.boolean(options.warmStart);
  w.boolean(options.roundingHeuristic);
  w.i64(options.forcedTimeScale);
  w.f64(options.scaling.bytesPerEntry);
  w.u64(options.scaling.totalMemoryBytes);
  w.f64(options.scaling.solverOverheadFactor);
  w.i64(options.scaling.roundToSeconds);
  w.i64(options.scaling.minScale);
  w.f64(options.budget.wallSeconds);
  w.i64(options.budget.maxNodes);
  w.i64(options.budget.maxLpIterations);
  w.u64(options.budget.maxEstimatedBytes);
  w.i64(options.mip.maxNodes);
  w.f64(options.mip.timeLimitSeconds);
  w.f64(mip::kRelGapTol);
  w.f64(mip::kIntegralityTol);
  w.boolean(options.mip.objectiveIsIntegral);
  w.i64(options.mip.coverCutRounds);
  w.i64(mip::kMaxCoverCutsPerRound);
  return util::fnv1a64(w.bytes().data(), w.bytes().size());
}

void writeStudyRowPayload(const StudyRow& row, std::size_t index,
                          util::PayloadWriter& out) {
  out.u64(index);
  out.i64(row.submissionTime);
  out.u64(row.jobs);
  out.i64(row.makespan);
  out.i64(row.accRuntime);
  out.i64(row.timeScale);
  out.u8(static_cast<std::uint8_t>(row.bestPolicy));
  out.f64(row.policyValue);
  out.f64(row.ilpValue);
  out.f64(row.quality);
  out.f64(row.perfLossPct);
  out.f64(row.solveSeconds);
  out.u8(static_cast<std::uint8_t>(row.status));
  out.f64(row.gap);
  out.i64(row.nodes);
  out.u32(static_cast<std::uint32_t>(row.lpColumns));
  out.u32(static_cast<std::uint32_t>(row.lpRows));
  out.u8(static_cast<std::uint8_t>(solveRungIndex(row.rung)));
  out.u8(static_cast<std::uint8_t>(row.stopReason));
  out.str(row.provenance);
}

std::size_t readStudyRowPayload(util::PayloadReader& in, StudyRow& row) {
  const std::uint64_t index = in.u64();
  row.submissionTime = in.i64();
  row.jobs = static_cast<std::size_t>(in.u64());
  row.makespan = in.i64();
  row.accRuntime = in.i64();
  row.timeScale = in.i64();
  const std::uint8_t policy = in.u8();
  DYNSCHED_CHECK_MSG(core::policyFromIndex(policy, row.bestPolicy),
                     "journal row: bad policy byte "
                         << static_cast<int>(policy));
  row.policyValue = in.f64();
  row.ilpValue = in.f64();
  row.quality = in.f64();
  row.perfLossPct = in.f64();
  row.solveSeconds = in.f64();
  const std::uint8_t status = in.u8();
  DYNSCHED_CHECK_MSG(mip::mipStatusFromIndex(status, row.status),
                     "journal row: bad MIP status byte "
                         << static_cast<int>(status));
  row.gap = in.f64();
  row.nodes = static_cast<long>(in.i64());
  row.lpColumns = static_cast<int>(in.u32());
  row.lpRows = static_cast<int>(in.u32());
  const std::uint8_t rung = in.u8();
  DYNSCHED_CHECK_MSG(solveRungFromIndex(rung, row.rung),
                     "journal row: bad rung byte " << static_cast<int>(rung));
  const std::uint8_t stop = in.u8();
  DYNSCHED_CHECK_MSG(util::cancelReasonFromIndex(stop, row.stopReason),
                     "journal row: bad stop-reason byte "
                         << static_cast<int>(stop));
  row.provenance = in.str();
  return static_cast<std::size_t>(index);
}

namespace {

/// The rows of one study in flight and, with StudyOptions::journal, the
/// journal that persists them. All journal errors surface as
/// analysis::AuditError — the structured "this run cannot be trusted"
/// signal the study layer already uses.
///
/// `mutex_` guards everything the parallel row loop shares: the row/solved
/// arrays, the journal writer (JournalWriter is thread-compatible, not
/// thread-safe), and the resume counters. The constructor takes the lock
/// explicitly even though no workers exist yet, so replay() carries one
/// uniform DYNSCHED_REQUIRES contract.
class StudyJournal {
 public:
  StudyJournal(const std::vector<sim::StepSnapshot>& snapshots,
               const StudyOptions& options, StudyResumeInfo& info)
      : path_(options.journal.path),
        rows_(snapshots.size()),
        solved_(snapshots.size(), false),
        info_(info) {
    const util::MutexLock lock(mutex_);
    if (!options.journal.enabled()) return;
    const std::uint64_t fingerprint = studyFingerprint(snapshots, options);
    util::PayloadWriter meta;
    meta.u64(fingerprint);
    meta.u64(rows_.size());
    try {
      util::OpenedJournal opened = util::openRunJournal(
          options.journal, "study", kStudyMetaRecord, fingerprint, meta,
          {{kStudyMetaRecord, kStudyMetaVersion},
           {kStudyRowRecord, kStudyRowVersion}});
      info_.tailDropped = opened.replay.tailDropped;
      info_.tailWarning = opened.replay.tailWarning;
      writer_.emplace(std::move(opened.writer));
      replay(opened.replay.records);
    } catch (const util::JournalError& e) {
      throw analysis::AuditError(e.what());
    }
  }

  // Locked: vector<bool> packs bits, so even disjoint indexes share words
  // with commit()'s writes when workers probe their steps concurrently.
  bool solved(std::size_t index) const DYNSCHED_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    return solved_[index];
  }

  /// Moves the finished row array out. Only valid once every worker has
  /// been joined — the -Wthread-safety pass flagged the previous unlocked
  /// rows() accessor; handing the storage over under the lock keeps the
  /// guarantee structural instead of call-site folklore.
  std::vector<StudyRow> takeRows() DYNSCHED_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    return std::move(rows_);
  }

  /// Copies the contiguous prefix of finished rows (the interrupt path's
  /// partial result) in one locked pass.
  std::vector<StudyRow> finishedPrefix() const DYNSCHED_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    std::vector<StudyRow> prefix;
    prefix.reserve(rows_.size());
    for (std::size_t i = 0; i < rows_.size() && solved_[i]; ++i) {
      prefix.push_back(rows_[i]);
    }
    return prefix;
  }

  /// Stores one finished row (thread-safe). A journaled study appends it
  /// and fires the kill-at-step fault after it is durably framed — the
  /// deterministic stand-in for SIGKILL in the kill matrix.
  void commit(std::size_t index, const StudyRow& row,
              const util::FaultPlan& faults) DYNSCHED_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    rows_[index] = row;
    solved_[index] = true;
    ++info_.solvedRows;
    if (!writer_) return;
    util::PayloadWriter payload;
    writeStudyRowPayload(row, index, payload);
    writer_->write(kStudyRowRecord, kStudyRowVersion, payload);
    if (faults.killsAtStep(static_cast<long>(index))) {
      // Flush so the row above survives, then die the way a SIGKILL would:
      // no unwinding, no atexit, nothing else reaches the disk.
      writer_->flush();
      std::_Exit(util::kKillFaultExitCode);
    }
  }

  void finish() DYNSCHED_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    if (writer_) writer_->flush();
  }

 private:
  void replay(const std::vector<util::JournalRecord>& records)
      DYNSCHED_REQUIRES(mutex_) {
    for (const util::JournalRecord& record : records) {
      // openRunJournal checked the meta record; other types are additive
      // extensions (or the cursor records of older builds): skip.
      if (record.type != kStudyRowRecord) continue;
      StudyRow row;
      std::size_t index = 0;
      try {
        util::PayloadReader in(record.payload);
        index = readStudyRowPayload(in, row);
      } catch (const util::JournalError& e) {
        throw analysis::AuditError("study journal '" + path_ + "': " +
                                   e.what());
      } catch (const CheckError& e) {
        throw analysis::AuditError("study journal '" + path_ + "': " +
                                   e.what());
      }
      if (index >= rows_.size()) {
        throw analysis::AuditError("study journal '" + path_ +
                                   "' row index " + std::to_string(index) +
                                   " is out of range");
      }
      if (!solved_[index]) ++info_.replayedRows;
      rows_[index] = std::move(row);
      solved_[index] = true;
    }
  }

  std::string path_;
  mutable util::Mutex mutex_;
  std::vector<StudyRow> rows_ DYNSCHED_GUARDED_BY(mutex_);
  std::vector<bool> solved_ DYNSCHED_GUARDED_BY(mutex_);
  // External resume counters; commit()/replay() mutate them under mutex_,
  // the owner only reads them after the worker pool has been joined.
  StudyResumeInfo& info_;
  std::optional<util::JournalWriter> writer_ DYNSCHED_GUARDED_BY(mutex_);
};

}  // namespace

std::vector<StudyRow> runStudy(const std::vector<sim::StepSnapshot>& snapshots,
                               const StudyOptions& options, unsigned threads,
                               StudyResumeInfo* info) {
  StudyResumeInfo localInfo;
  StudyResumeInfo& out = info != nullptr ? *info : localInfo;
  out = StudyResumeInfo{};
  out.totalSteps = snapshots.size();
  StudyJournal journal(snapshots, options, out);
  const util::FaultPlan faults = options.faults.has_value()
                                     ? *options.faults
                                     : util::FaultPlan::fromEnv();
  // From here on a Ctrl-C must reach the journal shutdown path, not kill
  // the process mid-append.
  if (options.journal.enabled()) util::installInterruptHandlers();

  const auto solveOne = [&](std::size_t i) {
    if (journal.solved(i) || util::interruptRequested()) return;
    const StudyRow row =
        runStep(snapshots[i], options, static_cast<long>(i));
    if (util::interruptRequested()) {
      // The interrupt may have degraded this very solve (the token cancels
      // cooperatively); keeping it would persist an artifact of the
      // Ctrl-C. Drop it — resume re-solves the step cleanly.
      return;
    }
    journal.commit(i, row, faults);
  };

  if (threads <= 1 || snapshots.size() <= 1) {
    for (std::size_t i = 0; i < snapshots.size(); ++i) solveOne(i);
  } else {
    util::ThreadPool pool(threads);
    pool.parallelFor(snapshots.size(), solveOne);
  }
  journal.finish();

  if (util::interruptRequested()) {
    out.interrupted = true;
    util::clearInterrupt();
    DYNSCHED_LOG(Warn) << "study interrupted after " << out.solvedRows
                       << " newly solved rows"
                       << (options.journal.enabled()
                               ? "; journal flushed — resume to continue"
                               : "");
    // Hand back the contiguous finished prefix; later rows (already safe in
    // the journal, if any) reappear on resume.
    return journal.finishedPrefix();
  }
  return journal.takeRows();
}

std::string studyReportText(const std::vector<StudyRow>& rows,
                            bool includeTiming) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "# dynsched study report v1 rows=" << rows.size() << '\n';
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const StudyRow& row = rows[i];
    os << "row " << i << " time=" << row.submissionTime
       << " jobs=" << row.jobs << " makespan=" << row.makespan
       << " accRuntime=" << row.accRuntime << " scale=" << row.timeScale
       << " policy=" << core::policyName(row.bestPolicy)
       << " policyValue=" << row.policyValue
       << " ilpValue=" << row.ilpValue << " quality=" << row.quality
       << " perfLoss=" << row.perfLossPct
       << " status=" << mip::mipStatusName(row.status) << " gap=" << row.gap
       << " nodes=" << row.nodes << " lpCols=" << row.lpColumns
       << " lpRows=" << row.lpRows << " rung=" << solveRungName(row.rung)
       << " stop=" << util::cancelReasonName(row.stopReason);
    if (includeTiming) os << " seconds=" << row.solveSeconds;
    os << " prov=\"" << row.provenance << "\"\n";
  }
  const StudyAverages avg = averageRows(rows);
  os << "averages rows=" << avg.rows << " jobs=" << avg.jobs
     << " makespan=" << avg.makespan << " accRuntime=" << avg.accRuntime
     << " scale=" << avg.timeScale << " quality=" << avg.quality
     << " perfLoss=" << avg.perfLossPct;
  if (includeTiming) os << " seconds=" << avg.solveSeconds;
  os << " rungs=";
  for (std::size_t r = 0; r < avg.rungCounts.size(); ++r) {
    os << (r > 0 ? "," : "") << avg.rungCounts[r];
  }
  os << " budgetHits=" << avg.budgetHits << '\n';
  return os.str();
}

StudyAverages averageRows(const std::vector<StudyRow>& rows) {
  StudyAverages avg;
  avg.rows = rows.size();
  if (rows.empty()) return avg;
  for (const StudyRow& row : rows) {
    avg.jobs += static_cast<double>(row.jobs);
    avg.makespan += static_cast<double>(row.makespan);
    avg.accRuntime += static_cast<double>(row.accRuntime);
    avg.timeScale += static_cast<double>(row.timeScale);
    avg.quality += row.quality;
    avg.perfLossPct += row.perfLossPct;
    avg.solveSeconds += row.solveSeconds;
    ++avg.rungCounts[static_cast<std::size_t>(solveRungIndex(row.rung))];
    if (row.stopReason != util::CancelReason::None &&
        row.stopReason != util::CancelReason::Fault) {
      ++avg.budgetHits;
    }
  }
  const double n = static_cast<double>(rows.size());
  avg.jobs /= n;
  avg.makespan /= n;
  avg.accRuntime /= n;
  avg.timeScale /= n;
  avg.quality /= n;
  avg.perfLossPct /= n;
  avg.solveSeconds /= n;
  return avg;
}

}  // namespace dynsched::tip
