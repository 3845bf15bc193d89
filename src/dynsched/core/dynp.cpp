#include "dynsched/core/dynp.hpp"

#include "dynsched/core/audit_hook.hpp"
#include "dynsched/core/machine_history.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/timer.hpp"

namespace dynsched::core {

const Schedule& SelfTuningResult::scheduleFor(PolicyKind policy) const {
  return schedules[policyIndex(policies, policy)];
}

DynPScheduler::DynPScheduler(Machine machine, DynPConfig config)
    : machine_(machine),
      config_(std::move(config)),
      policies_(config_.policies.empty() ? defaultPolicySet()
                                         : config_.policies),
      decider_(makeDecider(config_.decider)),
      activePolicy_(config_.initialPolicy) {
  DYNSCHED_CHECK(machine_.nodes > 0);
  DYNSCHED_CHECK(!policies_.empty());
  policyIndex(policies_, activePolicy_);  // validates membership
  stats_.chosenCount.assign(policies_.size(), 0);
}

SelfTuningResult DynPScheduler::selfTuningStep(
    const MachineHistory& history, const std::vector<Job>& waiting, Time now,
    const ReservationBook* reservations) {
  util::WallTimer timer;
  SelfTuningResult result;
  result.time = now;
  result.policies = policies_;
  result.oldPolicy = activePolicy_;
  result.schedules.resize(policies_.size());
  result.values.resize(policies_.size());

  const MetricEvaluator evaluator(now, machine_.nodes);
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    result.schedules[i] =
        planSchedule(history, waiting, policies_[i], now, reservations);
    result.values[i] =
        evaluator.evaluate(result.schedules[i], config_.metric);
    // Candidate schedules decide the policy switch; audit each one together
    // with the metric value the decider will see.
    [[maybe_unused]] const MetricExpectation expected{config_.metric,
                                                      result.values[i]};
    DYNSCHED_CORE_AUDIT_SCHEDULE("dynp.selfTuningStep", result.schedules[i],
                                 history, now, reservations, &expected);
  }

  result.chosenPolicy = decider_->decide(policies_, result.values,
                                         activePolicy_,
                                         lowerIsBetter(config_.metric));
  result.switched = result.chosenPolicy != activePolicy_;
  activePolicy_ = result.chosenPolicy;

  ++stats_.steps;
  if (result.switched) ++stats_.switches;
  ++stats_.chosenCount[policyIndex(policies_, result.chosenPolicy)];
  stats_.totalPlanningSeconds += timer.elapsedSeconds();
  return result;
}

}  // namespace dynsched::core
