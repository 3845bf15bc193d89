// The offline comparison study (paper Section 4 / Table 1).
//
// For each captured self-tuning step: size the grid with Eq. 6, build the
// time-indexed MIP, warm-start it with the best policy schedule, solve it
// with the branch-and-bound "CPLEX substitute", compact the solver's start
// order back to second precision, and compare against the best basic policy:
//
//     quality(p, m)  = perf(ILP, m) / perf(p, m)            (Eq. 7)
//     perf. loss [%] = (1 − quality) · 100
//
// quality < 1 means the ILP schedule is better; time-scaling can make it
// exceed 1 (the policy beats the scaled ILP), exactly as in the paper.
//
// Every step runs through the supervised degradation ladder (supervised.hpp)
// so a budget overrun or a solver failure degrades that one row — with
// recorded provenance — instead of aborting the study.
//
// With StudyOptions::journal enabled the study is additionally crash-safe:
// every finished row (including its supervised provenance) is appended to a
// checksummed run journal, and SIGINT/SIGTERM degrade to "flush the journal
// and stop" instead of losing the run. runStudy() with journal.resume
// replays the journal's valid rows (util::openRunJournal), drops a torn
// tail with a structured warning, and re-solves only what is missing —
// run → kill → resume reproduces an uninterrupted run bit for bit
// (wall-clock fields aside, which studyReportText() excludes from the
// canonical comparison).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dynsched/core/policies.hpp"
#include "dynsched/mip/mip.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/compaction.hpp"
#include "dynsched/tip/supervised.hpp"
#include "dynsched/tip/tim_model.hpp"
#include "dynsched/tip/time_scaling.hpp"
#include "dynsched/util/journal.hpp"

namespace dynsched::tip {

/// Study knobs = the supervised solve knobs (budget, faults, scaling, MIP
/// configuration) plus the crash-safety journal.
struct StudyOptions : SupervisedOptions {
  /// Run-journal knobs; `journal.path` empty keeps the all-in-memory study.
  util::RunJournalOptions journal;
};

/// One Table 1 row.
struct StudyRow {
  Time submissionTime = 0;     ///< when self-tuning was invoked
  std::size_t jobs = 0;        ///< waiting jobs in the step
  Time makespan = 0;           ///< T − now, the horizon length [sec]
  Time accRuntime = 0;         ///< summed estimated durations [sec]
  Time timeScale = 0;          ///< grid resolution [sec]
  core::PolicyKind bestPolicy = core::PolicyKind::Fcfs;
  double policyValue = 0;      ///< best policy's metric value
  double ilpValue = 0;         ///< compacted ILP schedule's metric value
  double quality = 1;          ///< Eq. 7
  double perfLossPct = 0;      ///< (1 − quality)·100
  double solveSeconds = 0;
  mip::MipStatus status = mip::MipStatus::Error;
  double gap = 0;              ///< relative B&B gap at stop
  long nodes = 0;
  /// Node-LP basis factorizations of the solve. A diagnostic the journal
  /// does not keep: a row restored from a journal reads 0.
  long refactorizations = 0;
  int lpColumns = 0;
  int lpRows = 0;
  /// Degradation-ladder provenance of the supervised solve.
  SolveRung rung = SolveRung::Optimal;
  util::CancelReason stopReason = util::CancelReason::None;
  std::string provenance;
};

/// Aggregates (the paper's final "averages" line).
struct StudyAverages {
  std::size_t rows = 0;
  double jobs = 0;
  double makespan = 0;
  double accRuntime = 0;
  double timeScale = 0;
  /// Over the rows with an ILP answer only: a policy-fallback row returns
  /// the policy's own schedule, so its quality of 1 measures nothing. Both
  /// read 0 when every row fell back.
  double quality = 0;
  double perfLossPct = 0;
  double solveSeconds = 0;
  /// Rows that finished on each ladder rung (index = solveRungIndex).
  std::array<std::size_t, kSolveRungs> rungCounts{};
  /// Rows whose solve was stopped by the shared budget (any CancelReason
  /// other than None or Fault).
  std::size_t budgetHits = 0;
};

StudyAverages averageRows(const std::vector<StudyRow>& rows);

/// Solves one captured step through the supervised ladder and fills a row.
/// `stepIndex` identifies the step for fail-at-step fault plans.
StudyRow runStep(const sim::StepSnapshot& snapshot,
                 const StudyOptions& options, long stepIndex = 0);

/// Study-journal record types (namespaced 1..9) and their current schema
/// versions. A resume refuses records of a known type with a newer version
/// (see DESIGN.md, journal format policy). Type 3 was a cursor record that
/// nothing read; journals that still hold one skip it as an unknown type.
inline constexpr std::uint16_t kStudyMetaRecord = 1;
inline constexpr std::uint16_t kStudyRowRecord = 2;
inline constexpr std::uint16_t kStudyMetaVersion = 1;
inline constexpr std::uint16_t kStudyRowVersion = 1;

/// What runStudy() did — how much was replayed vs solved, and whether a
/// torn tail was dropped or an interrupt stopped the run early.
struct StudyResumeInfo {
  std::size_t totalSteps = 0;
  std::size_t replayedRows = 0;  ///< rows taken verbatim from the journal
  std::size_t solvedRows = 0;    ///< rows solved (and journaled) this run
  bool interrupted = false;      ///< an interrupt stopped the run early
  bool tailDropped = false;      ///< the journal had a torn/corrupt tail
  std::string tailWarning;       ///< structured description of that tail
};

/// Deterministic fingerprint binding a journal to its study: the snapshot
/// set and every option that influences row values. A resume against a
/// journal with a different fingerprint fails structurally instead of
/// silently mixing two studies.
std::uint64_t studyFingerprint(const std::vector<sim::StepSnapshot>& snapshots,
                               const StudyOptions& options);

/// Serialization of one row (kStudyRowRecord payload). Exposed so tests can
/// craft records.
void writeStudyRowPayload(const StudyRow& row, std::size_t index,
                          util::PayloadWriter& out);
/// Parses a row payload; throws util::JournalError on underrun and
/// CheckError on out-of-range enum values (runStudy() reports both as
/// analysis::AuditError).
std::size_t readStudyRowPayload(util::PayloadReader& in, StudyRow& row);

/// Canonical, deterministic text dump of a study (one line per row plus the
/// averages), used by the kill-matrix to diff a resumed run against an
/// uninterrupted reference. Wall-clock fields (solveSeconds) are excluded
/// unless `includeTiming` — they are the only fields two otherwise
/// identical runs may disagree on.
std::string studyReportText(const std::vector<StudyRow>& rows,
                            bool includeTiming = false);

/// Runs every snapshot (optionally on `threads` workers) in input order.
/// An interrupt (util::interruptRequested()) stops the run and returns the
/// contiguous finished prefix with `info->interrupted`.
///
/// With `options.journal` enabled: appends one record per finished row,
/// installs the SIGINT/SIGTERM handler (an interrupt also flushes the
/// journal), honours the deterministic `kill-at-step=N` fault by exiting
/// the process (code util::kKillFaultExitCode) right after persisting row
/// N, and — when `journal.resume` is set and the file holds a journal of
/// this study — replays valid rows instead of re-solving them. A journal of
/// another study or of a newer build throws analysis::AuditError. `info`
/// (optional) reports what happened.
std::vector<StudyRow> runStudy(const std::vector<sim::StepSnapshot>& snapshots,
                               const StudyOptions& options,
                               unsigned threads = 1,
                               StudyResumeInfo* info = nullptr);

}  // namespace dynsched::tip
