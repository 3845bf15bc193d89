#include "support/exact_oracle.hpp"

#include <algorithm>
#include <numeric>

#include "dynsched/analysis/audit.hpp"
#include "dynsched/core/planner.hpp"
#include "dynsched/tip/tim_model.hpp"
#include "dynsched/util/error.hpp"

namespace dynsched::tip {

ExactResult exactBestSchedule(const TipInstance& instance,
                              core::MetricKind metric,
                              util::CancelToken* cancel) {
  const std::size_t n = instance.jobs.size();
  DYNSCHED_CHECK_MSG(n >= 1 && n <= 10,
                     "exact enumeration is limited to 10 jobs, got " << n);
  const core::MetricEvaluator evaluator(instance.now,
                                        instance.history.machineSize());
  const bool lower = core::lowerIsBetter(metric);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  ExactResult best;
  bool haveBest = false;
  std::vector<core::Job> ordered;  // reused across permutations
  ordered.reserve(n);
  do {
    if ((best.ordersTried & 255) == 0 && cancel != nullptr &&
        cancel->poll()) {
      best.complete = false;
      break;
    }
    ordered.clear();
    for (const std::size_t i : order) ordered.push_back(instance.jobs[i]);
    core::Schedule schedule =
        core::planInOrder(instance.history, ordered, instance.now);
    const double value = evaluator.evaluate(schedule, metric);
    ++best.ordersTried;
    if (!haveBest || (lower ? value < best.value : value > best.value)) {
      best.value = value;
      best.schedule = std::move(schedule);
      haveBest = true;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  // Audit the winner only: validating all n! candidates would dominate the
  // enumeration, and every candidate is built by the same placement kernel.
  if (haveBest) {
    [[maybe_unused]] const core::MetricExpectation expected{metric,
                                                            best.value};
    DYNSCHED_AUDIT_SCHEDULE("tip.exactBestSchedule", best.schedule,
                            instance.history, instance.now, nullptr,
                            &expected);
  }
  return best;
}

}  // namespace dynsched::tip
