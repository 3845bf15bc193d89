// Full schedules: a planned start time for every waiting job.
//
// "For all waiting jobs the scheduler computes a full schedule, which
// contains planned start times for every waiting job in the system"
// (paper Section 2). A Schedule is the unit that metrics evaluate and the
// decider compares; analysis::ScheduleValidator re-plays its placements
// against the machine history to prove them feasible.
#pragma once

#include <string>
#include <vector>

#include "dynsched/core/job.hpp"

namespace dynsched::core {

struct ScheduledJob {
  Job job;
  Time start = kNoTime;   ///< planned start (absolute simulation time)
  Time duration = 0;      ///< duration the planner used (normally estimate)

  Time end() const { return start + duration; }
  Time waitTime() const { return start - job.submit; }
  Time responseTime() const { return end() - job.submit; }
};

class Schedule {
 public:
  Schedule() = default;

  void add(const Job& job, Time start, Time duration);
  void add(const Job& job, Time start) { add(job, start, job.estimate); }

  /// Sizes the entry list for `count` jobs, so that planners that know
  /// their job count allocate once.
  void reserve(std::size_t count) { entries_.reserve(count); }

  const std::vector<ScheduledJob>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entry for a job id, if scheduled.
  const ScheduledJob* find(JobId id) const;

  /// Latest end over all entries; `fallback` for an empty schedule.
  Time makespan(Time fallback = 0) const;

  std::string toString() const;

 private:
  std::vector<ScheduledJob> entries_;
};

}  // namespace dynsched::core
