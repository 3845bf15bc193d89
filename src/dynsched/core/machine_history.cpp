#include "dynsched/core/machine_history.hpp"

#include <algorithm>
#include <sstream>

#include "dynsched/core/job.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/timer.hpp"

namespace dynsched::core {

MachineHistory::MachineHistory(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  DYNSCHED_CHECK(!entries_.empty());
}

MachineHistory MachineHistory::empty(const Machine& machine, Time now) {
  DYNSCHED_CHECK(machine.nodes > 0);
  return MachineHistory({Entry{now, machine.nodes}});
}

MachineHistory MachineHistory::fromRunningJobs(
    const Machine& machine, Time now, const std::vector<RunningJob>& running) {
  DYNSCHED_CHECK(machine.nodes > 0);
  // Aggregate released widths per estimated end time; "if more than one job
  // ends at the same time, a single time stamp is sufficient" (paper §3.1).
  // entries[0] is the staircase's first step at `now`; the rest first hold
  // one (end time, released width) pair per running job.
  std::vector<Entry> entries;
  entries.reserve(running.size() + 1);
  entries.push_back(Entry{now, 0});
  NodeCount busy = 0;
  for (const RunningJob& r : running) {
    DYNSCHED_CHECK_MSG(r.width > 0, "running job " << r.id << " has no width");
    entries.push_back(Entry{std::max(r.estimatedEnd, now + 1), r.width});
    busy += r.width;
  }
  DYNSCHED_CHECK_MSG(busy <= machine.nodes,
                     "running jobs occupy " << busy << " of " << machine.nodes
                                            << " nodes");
  std::sort(entries.begin() + 1, entries.end(),
            [](const Entry& a, const Entry& b) { return a.time < b.time; });
  // Turn released widths into free counts, one entry per distinct end time
  // (every end is after `now`, so entries[0] never absorbs a release).
  NodeCount free = machine.nodes - busy;
  entries[0].freeNodes = free;
  std::size_t last = 0;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    free += entries[i].freeNodes;
    if (entries[i].time != entries[last].time) ++last;
    entries[last] = Entry{entries[i].time, free};
  }
  entries.resize(last + 1);
  return MachineHistory(std::move(entries));
}

MachineHistory MachineHistory::fromEntries(std::vector<Entry> entries) {
  MachineHistory history(std::move(entries));
  DYNSCHED_CHECK_MSG(history.valid(),
                     "deserialized machine history is not a valid staircase");
  return history;
}

NodeCount MachineHistory::freeAt(Time t) const {
  DYNSCHED_CHECK_MSG(t >= startTime(),
                     "query at " << t << " before history start "
                                 << startTime());
  // Last entry with time <= t.
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), t,
      [](Time value, const Entry& e) { return value < e.time; });
  return std::prev(it)->freeNodes;
}

bool MachineHistory::valid() const {
  if (entries_.empty()) return false;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].time <= entries_[i - 1].time) return false;
    if (entries_[i].freeNodes < entries_[i - 1].freeNodes) return false;
  }
  return entries_.back().freeNodes > 0;
}

std::string MachineHistory::toString() const {
  std::ostringstream os;
  for (const Entry& e : entries_) {
    os << util::formatSimTime(e.time) << " (" << e.time << "s) -> "
       << e.freeNodes << " free\n";
  }
  return os.str();
}

}  // namespace dynsched::core
