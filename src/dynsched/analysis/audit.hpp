// Runtime gate for schedule audits.
//
// Producers (planner, dynP self-tuning, simulator, exact solvers) call
// DYNSCHED_AUDIT_SCHEDULE at every point a schedule leaves their hands.
// The hooks compile to nothing unless the build enables DYNSCHED_AUDIT
// (on by default), and at runtime they are off unless the DYNSCHED_AUDIT
// environment variable (1/true/yes/on) or setAuditEnabled(true) turns them
// on — so release binaries pay one predictable branch per plan. A failed
// audit throws AuditError carrying the full violation report.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "dynsched/analysis/schedule_validator.hpp"

// The core types appear here only by reference/pointer; the definitions
// arrive via schedule_validator.hpp (MetricExpectation via core/metrics.hpp).
namespace dynsched::core {
class MachineHistory;
class ReservationBook;
class Schedule;
struct MetricExpectation;
}  // namespace dynsched::core

namespace dynsched::analysis {

/// Thrown when an audited schedule violates an invariant.
class AuditError : public std::runtime_error {
 public:
  explicit AuditError(const std::string& what) : std::runtime_error(what) {}
};

/// Whether audits run. The initial value comes from the DYNSCHED_AUDIT
/// environment variable; setAuditEnabled overrides it (thread-safe).
bool auditEnabled();
void setAuditEnabled(bool enabled);

/// Lifetime counters, for tests and reporting.
struct AuditStats {
  std::uint64_t audited = 0;  ///< schedules validated
  std::uint64_t failed = 0;   ///< schedules that violated an invariant
};
AuditStats auditStats();
void resetAuditStats();

/// Validates `schedule` when auditing is enabled, checking the metric value
/// in `expected` too when it is non-null; throws AuditError naming `site` on
/// any violation. No-op while audits are disabled.
void auditSchedule(const char* site, const core::Schedule& schedule,
                   const core::MachineHistory& history, Time now,
                   const core::ReservationBook* reservations = nullptr,
                   const core::MetricExpectation* expected = nullptr);

}  // namespace dynsched::analysis

// Producers use the macro so audit-free builds carry no call at all.
#if defined(DYNSCHED_AUDIT_ENABLED) && DYNSCHED_AUDIT_ENABLED
#define DYNSCHED_AUDIT_SCHEDULE(...) \
  ::dynsched::analysis::auditSchedule(__VA_ARGS__)
#else
#define DYNSCHED_AUDIT_SCHEDULE(...) ((void)0)
#endif
