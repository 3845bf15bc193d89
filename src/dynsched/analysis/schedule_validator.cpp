#include "dynsched/analysis/schedule_validator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "dynsched/core/metrics.hpp"
#include "dynsched/core/resource_profile.hpp"

namespace dynsched::analysis {

namespace {

/// Relative tolerance for metric recomputation (absolute below 1.0).
constexpr double kMetricTolerance = 1e-9;

void addViolation(ValidationReport& report, std::string invariant,
                  const std::ostringstream& detail) {
  report.violations.push_back(Violation{std::move(invariant), detail.str()});
}

}  // namespace

std::string ValidationReport::toString() const {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << v.invariant << ": " << v.detail << '\n';
  }
  return os.str();
}

ValidationReport ScheduleValidator::validate(
    const core::Schedule& schedule, const core::MachineHistory& history,
    Time now, const core::ReservationBook* reservations,
    const core::MetricExpectation* expected) const {
  ValidationReport report;
  const NodeCount machineSize = history.machineSize();

  // Invariant 1 — single start: a full schedule assigns exactly one start
  // per waiting job; a duplicate id means a job was planned twice.
  std::unordered_set<JobId> seen;
  for (const core::ScheduledJob& e : schedule.entries()) {
    if (!seen.insert(e.job.id).second) {
      std::ostringstream os;
      os << "job " << e.job.id << " is scheduled more than once";
      addViolation(report, "single-start", os);
    }
  }

  // Invariant 2 — per-entry sanity: a real start time no earlier than the
  // job's submission or the history start, a positive duration, and a width
  // the machine can hold at all.
  std::vector<const core::ScheduledJob*> placeable;
  placeable.reserve(schedule.size());
  for (const core::ScheduledJob& e : schedule.entries()) {
    std::ostringstream os;
    if (e.start == kNoTime) {
      os << "job " << e.job.id << " has no start time";
      addViolation(report, "start-time", os);
      continue;
    }
    if (e.start < e.job.submit) {
      os << "job " << e.job.id << " starts at " << e.start
         << " before its submit time " << e.job.submit;
      addViolation(report, "start-time", os);
      continue;
    }
    if (e.start < history.startTime()) {
      os << "job " << e.job.id << " starts at " << e.start
         << " before the history start " << history.startTime();
      addViolation(report, "start-time", os);
      continue;
    }
    if (e.duration <= 0) {
      os << "job " << e.job.id << " has non-positive duration " << e.duration;
      addViolation(report, "duration", os);
      continue;
    }
    if (e.job.width <= 0 || e.job.width > machineSize) {
      os << "job " << e.job.id << " has width " << e.job.width
         << " outside (0, " << machineSize << "]";
      addViolation(report, "width", os);
      continue;
    }
    placeable.push_back(&e);
  }

  // Invariant 3 — capacity: replaying the placements (ascending start)
  // against the free-capacity staircase M_t must never overflow. Entries
  // that already failed the basic checks are excluded so one bad start time
  // does not cascade into spurious capacity reports.
  std::sort(placeable.begin(), placeable.end(),
            [](const core::ScheduledJob* a, const core::ScheduledJob* b) {
              if (a->start != b->start) return a->start < b->start;
              return a->job.id < b->job.id;
            });
  bool capacityOk = true;
  {
    core::ResourceProfile profile(history);
    for (const core::ScheduledJob* e : placeable) {
      if (!profile.fits(e->start, e->duration, e->job.width)) {
        std::ostringstream os;
        os << "job " << e->job.id << " (width " << e->job.width
           << ") overflows free capacity in [" << e->start << ", " << e->end()
           << ")";
        addViolation(report, "capacity", os);
        capacityOk = false;
        continue;
      }
      profile.reserve(e->start, e->duration, e->job.width);
    }
  }

  // Invariant 4 — reservation overlap: with the admitted reservations'
  // rectangles blocked out, the same replay must still fit. Reported only
  // when plain capacity held, so the violation names the true cause.
  if (reservations != nullptr && capacityOk) {
    core::ResourceProfile profile =
        core::profileWithReservations(history, *reservations, now);
    for (const core::ScheduledJob* e : placeable) {
      if (!profile.fits(e->start, e->duration, e->job.width)) {
        std::ostringstream os;
        os << "job " << e->job.id << " (width " << e->job.width
           << ") intrudes on admitted reservations in [" << e->start << ", "
           << e->end() << ")";
        addViolation(report, "reservation-overlap", os);
        continue;
      }
      profile.reserve(e->start, e->duration, e->job.width);
    }
  }

  // Invariant 5 — metric agreement: recompute the reported value from the
  // schedule itself; disagreement beyond tolerance means the producer's
  // evaluation drifted from what it actually planned.
  if (expected != nullptr) {
    const double recomputed = core::MetricEvaluator(now, machineSize)
                                  .evaluate(schedule, expected->metric);
    const double scale = std::max(1.0, std::max(std::fabs(recomputed),
                                                std::fabs(expected->reported)));
    if (std::fabs(recomputed - expected->reported) > kMetricTolerance * scale) {
      std::ostringstream os;
      os << core::metricName(expected->metric) << " reported as "
         << expected->reported << " but recomputes to " << recomputed;
      addViolation(report, "metric", os);
    }
  }

  return report;
}

}  // namespace dynsched::analysis
