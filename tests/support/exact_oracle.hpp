// Exhaustive oracle for tiny instances (test support: the analysis, tip and
// order B&B suites check the solvers against it).
//
// For any schedule S there is a start-order such that earliest-fit placement
// in that order starts every job no later than in S (insert jobs by
// ascending S-start; capacity available to each job is a superset of what S
// used). Hence enumerating all n! orders and placing each earliest-fit finds
// a true optimum for every monotone metric — an independent cross-check of
// the branch-and-bound on small instances, and the "what is the optimal
// schedule?" answer at second precision (no time-scaling).
#pragma once

#include "dynsched/core/metrics.hpp"
#include "dynsched/core/schedule.hpp"
#include "dynsched/util/budget.hpp"

namespace dynsched::tip {

struct TipInstance;  // read by reference; the .cpp includes tim_model

struct ExactResult {
  core::Schedule schedule;
  double value = 0;
  std::size_t ordersTried = 0;
  /// False when a CancelToken stopped the enumeration early; `schedule` is
  /// then the best order seen so far, not a proven optimum.
  bool complete = true;
};

/// Enumerates all start orders (n ≤ 10 enforced) and returns the schedule
/// minimizing (or maximizing, per the metric direction) `metric`. A non-null
/// `cancel` is polled every 256 orders and turns the oracle into an anytime
/// search (`complete` reports whether the enumeration finished).
ExactResult exactBestSchedule(const TipInstance& instance,
                              core::MetricKind metric,
                              util::CancelToken* cancel = nullptr);

}  // namespace dynsched::tip
