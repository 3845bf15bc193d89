// Machine-checkable schedule invariants — the audit layer's core.
//
// Every schedule this library hands out claims to satisfy the paper's hard
// constraints (Section 4): each job starts exactly once at a time no earlier
// than its submission, the cumulative width of planned jobs never exceeds
// the free capacity M_t left by the running jobs (constraint 5), and plans
// never intrude on admitted advance reservations. The validator re-derives
// all of that from first principles — replaying placements against the
// machine history — instead of trusting the producer, and additionally
// recomputes reported metric values (ARTwW/SLDwA/util/...) within a
// tolerance to catch silent evaluation drift (e.g. time-scaling rounding,
// Eq. 6).
#pragma once

#include <string>
#include <vector>

#include "dynsched/core/machine_history.hpp"
#include "dynsched/core/reservation.hpp"
#include "dynsched/core/schedule.hpp"

namespace dynsched::core {
struct MetricExpectation;  // read through a pointer; see core/metrics.hpp
}  // namespace dynsched::core

namespace dynsched::analysis {

/// One violated invariant with enough context to debug the producer.
struct Violation {
  std::string invariant;  ///< "single-start", "start-time", "capacity", ...
  std::string detail;
};

struct ValidationReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  /// All violations, one "invariant: detail" line each.
  std::string toString() const;
};

class ScheduleValidator {
 public:
  /// Checks every invariant and returns all violations (never throws on a
  /// bad schedule — producers decide how to react). `now` is the decision
  /// instant the schedule was planned at; `reservations` (optional) are the
  /// admitted advance reservations the plan had to respect; `expected`
  /// (optional) is a producer-reported metric value, which the validator
  /// recomputes independently and flags on disagreement beyond a relative
  /// tolerance of 1e-9 (absolute below 1.0).
  ValidationReport validate(
      const core::Schedule& schedule, const core::MachineHistory& history,
      Time now, const core::ReservationBook* reservations = nullptr,
      const core::MetricExpectation* expected = nullptr) const;
};

}  // namespace dynsched::analysis
