#include "dynsched/analysis/audit.hpp"

#include <atomic>
#include <cstdlib>
#include <sstream>

#include "dynsched/core/audit_hook.hpp"
#include "dynsched/util/strings.hpp"

namespace dynsched::analysis {

namespace {

bool envDefault() {
  const char* value = std::getenv("DYNSCHED_AUDIT");
  if (value == nullptr) return false;
  const std::string lower = util::toLower(value);
  return lower == "1" || lower == "true" || lower == "yes" || lower == "on";
}

std::atomic<bool>& enabledFlag() {
  // Function-local so the env read happens exactly once, thread-safely.
  static std::atomic<bool> flag{envDefault()};
  return flag;
}

std::atomic<std::uint64_t> g_audited{0};
std::atomic<std::uint64_t> g_failed{0};

}  // namespace

bool auditEnabled() {
  return enabledFlag().load(std::memory_order_relaxed);
}

void setAuditEnabled(bool enabled) {
  enabledFlag().store(enabled, std::memory_order_relaxed);
}

AuditStats auditStats() {
  AuditStats stats;
  stats.audited = g_audited.load(std::memory_order_relaxed);
  stats.failed = g_failed.load(std::memory_order_relaxed);
  return stats;
}

void resetAuditStats() {
  g_audited.store(0, std::memory_order_relaxed);
  g_failed.store(0, std::memory_order_relaxed);
}

void auditSchedule(const char* site, const core::Schedule& schedule,
                   const core::MachineHistory& history, Time now,
                   const core::ReservationBook* reservations,
                   const core::MetricExpectation* expected) {
  if (!auditEnabled()) return;
  g_audited.fetch_add(1, std::memory_order_relaxed);
  const ValidationReport report = ScheduleValidator().validate(
      schedule, history, now, reservations, expected);
  if (report.ok()) return;
  g_failed.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream os;
  os << "schedule audit failed at " << site << " (t=" << now << ", "
     << schedule.size() << " jobs):\n"
     << report.toString();
  throw AuditError(os.str());
}

}  // namespace dynsched::analysis

namespace dynsched::core {

// The dependency-inverted seam declared in core/audit_hook.hpp: core TUs
// call this without including any analysis header; the definition lives
// here so the link edge core -> analysis carries the behavior.
void auditScheduleHook(const char* site, const Schedule& schedule,
                       const MachineHistory& history, Time now,
                       const ReservationBook* reservations,
                       const MetricExpectation* expected) {
  // Returns before any work: a disabled audit costs dynP's step one branch.
  if (!analysis::auditEnabled()) return;
  analysis::auditSchedule(site, schedule, history, now, reservations,
                          expected);
}

}  // namespace dynsched::core
