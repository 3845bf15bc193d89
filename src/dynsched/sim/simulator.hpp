// Discrete-event simulation of a planning-based resource management system.
//
// Mirrors the paper's setup (CCS at PC²): newly submitted jobs are placed in
// the active schedule immediately and get a start time assigned; the system
// replans at every submission and whenever a job finishes earlier than its
// estimate (estimates drive planning, actual runtimes drive execution).
// Under the DynP scheduler mode every submission triggers a self-tuning step
// ("self-tuning was invoked" at every job submission, paper Section 4), and
// the simulator can capture a StepSnapshot of each step — the quasi-offline
// scheduling instance the ILP study solves.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dynsched/core/dynp.hpp"
#include "dynsched/core/machine_history.hpp"
#include "dynsched/core/metrics.hpp"
#include "dynsched/core/planner.hpp"
#include "dynsched/util/budget.hpp"
#include "dynsched/util/journal.hpp"

namespace dynsched::sim {

enum class SchedulerKind {
  FixedPolicy,    ///< always plan with one policy
  EasyBackfill,   ///< FCFS queue + EASY backfilling (baseline ablation)
  DynP,           ///< self-tuning dynP
};

const char* schedulerKindName(SchedulerKind kind);

/// Which self-tuning steps to capture for the offline ILP study.
struct SnapshotOptions {
  bool enabled = false;
  std::size_t minWaiting = 2;    ///< skip trivial steps
  std::size_t maxWaiting = 200;  ///< skip huge steps (ILP memory)
  std::size_t everyNth = 1;      ///< keep every n-th eligible step
  std::size_t maxCount = 10000;  ///< stop capturing after this many
};

/// One captured self-tuning step: the fixed waiting set, the machine
/// history, the per-policy metric values, and what the ILP needs (horizon
/// bound = max policy makespan, warm-start = best policy schedule).
struct StepSnapshot {
  Time time = 0;
  core::MachineHistory history = core::MachineHistory::empty({1}, 0);
  std::vector<core::Job> waiting;
  core::PolicyValues values{};
  core::PolicyKind bestPolicy = core::PolicyKind::Fcfs;
  double bestValue = 0;
  Time maxPolicyMakespan = 0;     ///< T bound for the ILP (paper §3.1)
  core::Schedule bestSchedule;    ///< ILP warm-start incumbent

  /// Sum of estimated durations of the waiting jobs ("acc. run time").
  Time accumulatedRuntime() const;
};

struct SimOptions {
  SchedulerKind kind = SchedulerKind::DynP;
  core::PolicyKind fixedPolicy = core::PolicyKind::Fcfs;
  core::DynPConfig dynp;
  /// Advance reservations admitted before the simulation starts (e.g.
  /// maintenance windows or externally granted reservations). Jobs plan
  /// around them; a reservation that does not fit aborts the run.
  std::vector<core::Reservation> reservations;
  /// Re-run the self-tuning decision when jobs end early, not only on
  /// submission (the paper tunes on submission; this is an extension knob).
  bool retuneOnJobEnd = false;
  SnapshotOptions snapshots;
  /// Degrade a failed self-tuning step (AuditError / CheckError / injected
  /// fault) to a plan under the currently active policy and keep simulating,
  /// instead of aborting the whole run. The degradation is counted in
  /// SimulationReport::degradedSteps. false: the error propagates.
  bool failSoft = true;
  /// Deterministic fault plan applied to the *simulator's* tuning steps
  /// (fail-at-step only). Unlike tip::supervisedBestSchedule this is never
  /// read from DYNSCHED_FAULTS — a study process with env faults set must
  /// still be able to simulate cleanly to capture its snapshots.
  std::optional<util::FaultPlan> faults;
  /// Crash-safety journal: with `journal.path` set the simulator writes a
  /// meta record (config + trace fingerprint) and a full state checkpoint
  /// every `journal.checkpointEvery` processed events — the event clock,
  /// submit cursor, running/waiting sets, dynP policy state, and everything
  /// already reported (completed jobs, switches, captured snapshots). With
  /// `journal.resume` run() restarts from the last valid checkpoint
  /// (util::openRunJournal) instead of from the first submission; the
  /// deterministic event loop then reproduces the uninterrupted run exactly
  /// (wall clock aside).
  util::RunJournalOptions journal;
};

/// A finished job with its observed timing.
struct CompletedJob {
  core::Job job;
  Time start = 0;
  Time end = 0;  ///< start + actual runtime

  Time waitTime() const { return start - job.submit; }
  Time responseTime() const { return end - job.submit; }
};

struct PolicySwitch {
  Time time;
  core::PolicyKind from;
  core::PolicyKind to;
};

struct SimulationReport {
  std::vector<CompletedJob> completed;
  std::vector<PolicySwitch> switches;
  std::vector<StepSnapshot> snapshots;
  core::DynPStats dynpStats;
  Time simulatedSpan = 0;     ///< first submit .. last completion
  std::size_t replans = 0;
  std::size_t tuningSteps = 0;    ///< self-tuning decisions attempted
  /// Tuning steps that failed and were degraded to the active policy
  /// (SimOptions::failSoft); always 0 on a healthy run.
  std::size_t degradedSteps = 0;
  double wallSeconds = 0;
  /// SIGINT/SIGTERM stopped the run early (journaled runs only): the state
  /// was checkpointed and the journal flushed before returning this partial
  /// report — resume continues from here.
  bool interrupted = false;
  /// This run restarted from a journal checkpoint (events replayed: the
  /// event-counter value of that checkpoint).
  bool resumed = false;
  std::uint64_t resumedAtEvent = 0;
  bool tailDropped = false;   ///< the journal had a torn/corrupt tail
  std::string tailWarning;    ///< structured description of that tail

  /// Metrics over *actual* execution (observed starts/ends, actual runtime
  /// as the slowdown denominator).
  double avgResponseTime() const;
  double avgWaitTime() const;
  double avgSlowdown() const;
  double avgBoundedSlowdown(double tau = 10.0) const;
  double utilization(NodeCount machineSize) const;

  std::string summary(NodeCount machineSize) const;
};

/// Simulator-journal record types (namespaced 10..19) and their current
/// schema versions (see DESIGN.md, journal format policy).
inline constexpr std::uint16_t kSimMetaRecord = 10;
inline constexpr std::uint16_t kSimCheckpointRecord = 11;
inline constexpr std::uint16_t kSimMetaVersion = 1;
inline constexpr std::uint16_t kSimCheckpointVersion = 1;

class RmsSimulator {
 public:
  RmsSimulator(core::Machine machine, SimOptions options);

  /// Simulates the full trace (jobs need not be sorted; they are processed
  /// in submit order). Returns the report; the simulator can be reused.
  /// Honours SimOptions::journal (checkpointing, resume, SIGINT/SIGTERM
  /// degradation to "checkpoint, flush, return partial report"); a journal
  /// of another run or of a newer build throws analysis::AuditError.
  SimulationReport run(const std::vector<core::Job>& jobs);

 private:
  core::Machine machine_;
  SimOptions options_;
};

}  // namespace dynsched::sim
