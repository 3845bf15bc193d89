// Discrete-event simulation of a planning-based resource management system.
//
// Mirrors the paper's setup (CCS at PC²): newly submitted jobs are placed in
// the active schedule immediately and get a start time assigned; the system
// replans at every submission and whenever a job finishes earlier than its
// estimate (estimates drive planning, actual runtimes drive execution).
// Under the DynP scheduler mode every submission triggers a self-tuning step
// ("self-tuning was invoked" at every job submission, paper Section 4); a
// replan after a job end keeps the active policy, and a tuning step that
// fails is planned with the active policy too (SimulationReport::
// degradedSteps). The simulator can capture a StepSnapshot of each step —
// the quasi-offline scheduling instance the ILP study solves.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dynsched/core/dynp.hpp"
#include "dynsched/core/machine_history.hpp"
#include "dynsched/core/metrics.hpp"
#include "dynsched/core/planner.hpp"
#include "dynsched/util/budget.hpp"

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
  SnapshotOptions snapshots;
  /// Deterministic fault plan applied to the *simulator's* tuning steps
  /// (fail-at-step only). Unlike tip::supervisedBestSchedule this is never
  /// read from DYNSCHED_FAULTS — a study process with env faults set must
  /// still be able to simulate cleanly to capture its snapshots.
  std::optional<util::FaultPlan> faults;
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
  /// Tuning steps that failed (an AuditError, a CheckError or an injected
  /// fault) and were planned with the active policy instead; always 0 on a
  /// healthy run.
  std::size_t degradedSteps = 0;
  double wallSeconds = 0;

  /// Metrics over *actual* execution (observed starts/ends, actual runtime
  /// as the slowdown denominator).
  double avgResponseTime() const;
  double avgWaitTime() const;
  double avgSlowdown() const;
  double avgBoundedSlowdown(double tau = 10.0) const;
  double utilization(NodeCount machineSize) const;

  std::string summary(NodeCount machineSize) const;
};

class RmsSimulator {
 public:
  RmsSimulator(core::Machine machine, SimOptions options);

  /// Simulates the full trace (jobs need not be sorted; they are processed
  /// in submit order). Returns the report; the simulator can be reused.
  SimulationReport run(const std::vector<core::Job>& jobs);

 private:
  core::Machine machine_;
  SimOptions options_;
};

}  // namespace dynsched::sim
