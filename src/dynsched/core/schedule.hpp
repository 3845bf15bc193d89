// Full schedules: a planned start time for every waiting job.
//
// "For all waiting jobs the scheduler computes a full schedule, which
// contains planned start times for every waiting job in the system"
// (paper Section 2). A Schedule is the unit that metrics evaluate and the
// decider compares; its validator re-plays all placements against the
// machine history to prove capacity feasibility.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dynsched/core/job.hpp"
#include "dynsched/core/machine_history.hpp"

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

  /// Earliest start over all entries.
  Time earliestStart() const;

  /// Capacity- and release-date feasibility against `history`:
  /// every start >= max(job.submit, history start), and at no time does the
  /// cumulative width of scheduled jobs exceed the free capacity.
  /// Returns an explanatory message on failure.
  std::optional<std::string> validate(const MachineHistory& history) const;

  std::string toString() const;

 private:
  std::vector<ScheduledJob> entries_;
};

}  // namespace dynsched::core
