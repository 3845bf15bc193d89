#include "dynsched/core/planner.hpp"

#include <algorithm>

#include "dynsched/core/audit_hook.hpp"
#include "dynsched/core/machine_history.hpp"
#include "dynsched/core/resource_profile.hpp"
#include "dynsched/util/error.hpp"

namespace dynsched::core {

Schedule planInOrder(ResourceProfile profile, const std::vector<Job>& ordered,
                     Time now) {
  Schedule schedule;
  schedule.reserve(ordered.size());
  for (const Job& job : ordered) {
    schedule.add(job, profile.place(std::max(now, job.submit), job.estimate,
                                    job.width));
  }
  return schedule;
}

Schedule planInOrder(const MachineHistory& history,
                     const std::vector<Job>& ordered, Time now) {
  return planInOrder(ResourceProfile(history), ordered, now);
}

Schedule planSchedule(const MachineHistory& history,
                      const std::vector<Job>& waiting, PolicyKind policy,
                      Time now, const ReservationBook* reservations) {
  Schedule schedule =
      reservations != nullptr
          ? planInOrder(profileWithReservations(history, *reservations, now),
                        sortByPolicy(policy, waiting), now)
          : planInOrder(history, sortByPolicy(policy, waiting), now);
  DYNSCHED_CORE_AUDIT_SCHEDULE(reservations != nullptr
                                   ? "planner.planSchedule+reservations"
                                   : "planner.planSchedule",
                               schedule, history, now, reservations);
  return schedule;
}

Schedule planEasyBackfill(const MachineHistory& history,
                          const std::vector<Job>& waiting, Time now) {
  std::vector<Job> queue = sortByPolicy(PolicyKind::Fcfs, waiting);
  ResourceProfile profile(history);
  Schedule schedule;
  schedule.reserve(queue.size());
  std::vector<bool> placed(queue.size(), false);
  std::size_t remaining = queue.size();
  while (remaining > 0) {
    // Queue head: earliest unplaced job in FCFS order gets a firm
    // reservation at its earliest fit.
    std::size_t headIdx = queue.size();
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (!placed[i]) {
        headIdx = i;
        break;
      }
    }
    const Job& head = queue[headIdx];
    schedule.add(head, profile.place(std::max(now, head.submit),
                                     head.estimate, head.width));
    placed[headIdx] = true;
    --remaining;
    // Backfill pass: later jobs may start only if they fit *now-or-later*
    // without moving anything already reserved — i.e. if their earliest fit
    // in the current profile starts before the next head would. In EASY the
    // condition is "does not delay the head reservation"; since the head is
    // already reserved in the profile, any feasible placement satisfies it.
    for (std::size_t i = headIdx + 1; i < queue.size(); ++i) {
      if (placed[i]) continue;
      const Job& job = queue[i];
      const Time ready = std::max(now, job.submit);
      // Candidate backfill start: only immediate starts (at `ready`) count
      // as backfill moves in EASY; otherwise the job waits for a later pass.
      if (profile.fits(ready, job.estimate, job.width)) {
        profile.reserve(ready, job.estimate, job.width);
        schedule.add(job, ready);
        placed[i] = true;
        --remaining;
      }
    }
  }
  DYNSCHED_CORE_AUDIT_SCHEDULE("planner.planEasyBackfill", schedule, history, now);
  return schedule;
}

}  // namespace dynsched::core
