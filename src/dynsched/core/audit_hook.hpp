// Dependency-inverted audit seam for schedule producers in core.
//
// Producers call DYNSCHED_CORE_AUDIT_SCHEDULE at every point a schedule
// leaves their hands. core only *declares* the hook; the analysis library
// (which sits above core in the layer DAG, see tools/lint/layers.txt)
// defines it in audit.cpp, forwarding to analysis::auditSchedule. The
// inversion is include-level only — the link edge core -> analysis stays,
// so an enabled audit still throws analysis::AuditError at the planning
// site — but no core header or TU includes analysis headers, keeping the
// module graph acyclic (DSL201).
#pragma once

#include "dynsched/util/types.hpp"

namespace dynsched::core {

class MachineHistory;
class ReservationBook;
class Schedule;
struct MetricExpectation;

/// Validates `schedule` when auditing is enabled (see analysis/audit.hpp),
/// checking the metric value in `expected` too when it is non-null; throws
/// analysis::AuditError naming `site` on any violation. Takes the
/// expectation by pointer so that a disabled audit costs no allocation.
/// Defined in analysis/audit.cpp.
void auditScheduleHook(const char* site, const Schedule& schedule,
                       const MachineHistory& history, Time now,
                       const ReservationBook* reservations = nullptr,
                       const MetricExpectation* expected = nullptr);

}  // namespace dynsched::core

// Producers use the macro so audit-free builds carry no call at all.
#if defined(DYNSCHED_AUDIT_ENABLED) && DYNSCHED_AUDIT_ENABLED
#define DYNSCHED_CORE_AUDIT_SCHEDULE(...) \
  ::dynsched::core::auditScheduleHook(__VA_ARGS__)
#else
#define DYNSCHED_CORE_AUDIT_SCHEDULE(...) ((void)0)
#endif
