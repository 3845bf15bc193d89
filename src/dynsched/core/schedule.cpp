#include "dynsched/core/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "dynsched/util/error.hpp"

namespace dynsched::core {

void Schedule::add(const Job& job, Time start, Time duration) {
  DYNSCHED_CHECK_MSG(duration > 0, "job " << job.id << ": empty duration");
  DYNSCHED_CHECK_MSG(start != kNoTime, "job " << job.id << ": no start time");
  entries_.push_back(ScheduledJob{job, start, duration});
}

const ScheduledJob* Schedule::find(JobId id) const {
  for (const ScheduledJob& e : entries_) {
    if (e.job.id == id) return &e;
  }
  return nullptr;
}

Time Schedule::makespan(Time fallback) const {
  Time result = fallback;
  for (const ScheduledJob& e : entries_) result = std::max(result, e.end());
  return result;
}

std::string Schedule::toString() const {
  std::ostringstream os;
  for (const ScheduledJob& e : entries_) {
    os << "job " << e.job.id << " w=" << e.job.width << " submit="
       << e.job.submit << " start=" << e.start << " end=" << e.end() << '\n';
  }
  return os.str();
}

}  // namespace dynsched::core
