// The self-tuning dynP scheduler.
//
// "The self-tuning dynP scheduler computes full schedules for each available
// policy (here: FCFS, SJF, and LJF). These schedules are evaluated by means
// of a performance metrics. ... a decider mechanism chooses the best policy."
// (paper Section 2). One call to selfTuningStep() is exactly one such step.
//
// The policy set is configurable (DynPConfig::policies); the default is the
// paper's CCS set {FCFS, SJF, LJF}. The extended set adds the area-ordered
// SAF/LAF policies (see policies.hpp).
#pragma once

#include <memory>
#include <vector>

#include "dynsched/core/decider.hpp"
#include "dynsched/core/metrics.hpp"
#include "dynsched/core/planner.hpp"

namespace dynsched::core {

class MachineHistory;  // the step only reads it by reference

/// Everything a self-tuning step produced: the candidate schedules, their
/// metric values, and the decision. Indexing follows the scheduler's
/// PolicySet.
struct SelfTuningResult {
  Time time = 0;                 ///< when the step ran
  PolicySet policies;            ///< the evaluated set, in order
  std::vector<Schedule> schedules;
  PolicyValues values;           ///< metric value per policy
  PolicyKind oldPolicy = PolicyKind::Fcfs;
  PolicyKind chosenPolicy = PolicyKind::Fcfs;
  bool switched = false;

  const Schedule& scheduleFor(PolicyKind policy) const;
  const Schedule& chosenSchedule() const { return scheduleFor(chosenPolicy); }
  double bestValue() const {
    return valueFor(policies, values, chosenPolicy);
  }
};

struct DynPConfig {
  MetricKind metric = MetricKind::SldWA;
  std::string decider = "advanced";
  PolicyKind initialPolicy = PolicyKind::Fcfs;
  /// Policies the self-tuning step evaluates, in tie-preference order.
  /// Empty means the paper's default {FCFS, SJF, LJF}.
  PolicySet policies;
};

/// Counters over the lifetime of a scheduler instance.
struct DynPStats {
  std::size_t steps = 0;
  std::size_t switches = 0;
  std::vector<std::size_t> chosenCount;  ///< per policy-set index
  double totalPlanningSeconds = 0;  ///< wall time spent in selfTuningStep
};

class DynPScheduler {
 public:
  DynPScheduler(Machine machine, DynPConfig config);

  /// Runs one self-tuning step at time `now` for the given waiting set and
  /// machine history, updates the active policy, and returns the full
  /// result. If `reservations` is non-null, every candidate schedule plans
  /// around the admitted advance reservations.
  SelfTuningResult selfTuningStep(const MachineHistory& history,
                                  const std::vector<Job>& waiting, Time now,
                                  const ReservationBook* reservations = nullptr);

  PolicyKind activePolicy() const { return activePolicy_; }
  const PolicySet& policies() const { return policies_; }
  const DynPConfig& config() const { return config_; }
  const DynPStats& stats() const { return stats_; }
  const Machine& machine() const { return machine_; }

 private:
  Machine machine_;
  DynPConfig config_;
  PolicySet policies_;
  std::unique_ptr<Decider> decider_;
  PolicyKind activePolicy_;
  DynPStats stats_;
};

}  // namespace dynsched::core
