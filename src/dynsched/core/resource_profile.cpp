#include "dynsched/core/resource_profile.hpp"

#include <algorithm>
#include <sstream>

#include "dynsched/core/job.hpp"
#include "dynsched/util/error.hpp"

namespace dynsched::core {

ResourceProfile::ResourceProfile(const MachineHistory& history)
    : machineSize_(history.machineSize()) {
  const auto& entries = history.entries();
  DYNSCHED_CHECK(history.valid());
  segments_.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Time begin = entries[i].time;
    const Time end =
        i + 1 < entries.size() ? entries[i + 1].time : kTimeInfinity;
    segments_.push_back(Segment{begin, end, entries[i].freeNodes});
  }
}

ResourceProfile::ResourceProfile(const Machine& machine, Time now)
    : ResourceProfile(MachineHistory::empty(machine, now)) {}

std::size_t ResourceProfile::segmentAt(Time t) const {
  DYNSCHED_CHECK_MSG(t >= startTime(), "query before profile start");
  DYNSCHED_CHECK_MSG(t < kTimeInfinity, "query beyond horizon");
  // Last segment with begin <= t.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](Time value, const Segment& s) { return value < s.begin; });
  return static_cast<std::size_t>(std::prev(it) - segments_.begin());
}

NodeCount ResourceProfile::freeAt(Time t) const {
  return segments_[segmentAt(t)].freeNodes;
}

bool ResourceProfile::fitsFrom(std::size_t i, Time end,
                               NodeCount width) const {
  for (; i < segments_.size(); ++i) {
    if (segments_[i].freeNodes < width) return false;
    if (segments_[i].end >= end) break;
  }
  return true;
}

bool ResourceProfile::fits(Time start, Time duration, NodeCount width) const {
  DYNSCHED_CHECK(duration > 0 && width > 0);
  if (width > machineSize_) return false;
  return fitsFrom(segmentAt(start), start + duration, width);
}

ResourceProfile::Fit ResourceProfile::findFit(Time readyTime, Time duration,
                                              NodeCount width) const {
  DYNSCHED_CHECK(duration > 0 && width > 0);
  DYNSCHED_CHECK_MSG(width <= machineSize_,
                     "job width " << width << " exceeds machine size "
                                  << machineSize_);
  Time candidate = std::max(readyTime, startTime());
  std::size_t i = segmentAt(candidate);
  while (true) {
    // Advance past segments with insufficient capacity.
    while (i < segments_.size() && segments_[i].freeNodes < width) {
      ++i;
      DYNSCHED_CHECK(i < segments_.size());  // last segment is fully free
      candidate = segments_[i].begin;
    }
    // Check the run of sufficient segments starting at `candidate`.
    const Time end = candidate + duration;
    std::size_t j = i;
    bool ok = true;
    while (true) {
      if (segments_[j].freeNodes < width) {
        ok = false;
        break;
      }
      if (segments_[j].end >= end) break;
      ++j;
      DYNSCHED_CHECK(j < segments_.size());
    }
    if (ok) return Fit{candidate, i};
    // Restart just after the blocking segment.
    i = j + 1;
    DYNSCHED_CHECK(i < segments_.size());
    candidate = segments_[i].begin;
  }
}

Time ResourceProfile::earliestFit(Time readyTime, Time duration,
                                  NodeCount width) const {
  return findFit(readyTime, duration, width).start;
}

Time ResourceProfile::place(Time readyTime, Time duration, NodeCount width) {
  const Fit fit = findFit(readyTime, duration, width);
  take(fit.segment, fit.start, fit.start + duration, width);
  return fit.start;
}

void ResourceProfile::reserve(Time start, Time duration, NodeCount width) {
  DYNSCHED_CHECK(duration > 0 && width > 0);
  const std::size_t i = segmentAt(start);
  DYNSCHED_CHECK_MSG(
      width <= machineSize_ && fitsFrom(i, start + duration, width),
      "reserve(" << start << ", " << duration << ", " << width
                 << ") exceeds free capacity");
  take(i, start, start + duration, width);
}

void ResourceProfile::take(std::size_t i, Time start, Time end,
                           NodeCount width) {
  DYNSCHED_CHECK_MSG(end < kTimeInfinity, "reservation beyond horizon");
  const auto at = [this](std::size_t k) {
    return segments_.begin() + static_cast<std::ptrdiff_t>(k);
  };
  if (segments_[i].begin < start) {
    Segment head = segments_[i];
    head.end = start;
    segments_[i].begin = start;
    segments_.insert(at(i), head);
    ++i;
  }
  const std::size_t first = i;
  while (true) {
    DYNSCHED_CHECK_MSG(segments_[i].freeNodes >= width,
                       "reservation exceeds free capacity at "
                           << segments_[i].begin);
    if (segments_[i].end > end) {
      Segment tail = segments_[i];
      tail.begin = end;
      segments_[i].end = end;
      segments_.insert(at(i + 1), tail);
    }
    segments_[i].freeNodes -= width;
    if (segments_[i].end == end) break;
    ++i;
  }
  // Merge equal-capacity neighbours to keep the profile compact; reservations
  // otherwise fragment it linearly in the number of jobs.
  const std::size_t lo = first > 0 ? first - 1 : 0;
  const std::size_t hi = std::min(i + 2, segments_.size());
  std::size_t write = lo;
  for (std::size_t read = lo + 1; read < hi; ++read) {
    if (segments_[read].freeNodes == segments_[write].freeNodes) {
      segments_[write].end = segments_[read].end;
    } else {
      ++write;
      segments_[write] = segments_[read];
    }
  }
  if (write + 1 < hi) segments_.erase(at(write + 1), at(hi));
}

std::vector<MachineHistory::Entry> ResourceProfile::steps() const {
  std::vector<MachineHistory::Entry> out;
  out.reserve(segments_.size());
  for (const Segment& s : segments_) {
    if (!out.empty() && out.back().freeNodes == s.freeNodes) continue;
    out.push_back(MachineHistory::Entry{s.begin, s.freeNodes});
  }
  return out;
}

std::string ResourceProfile::toString() const {
  std::ostringstream os;
  for (const Segment& s : segments_) {
    os << '[' << s.begin << ", ";
    if (s.end == kTimeInfinity) {
      os << "inf";
    } else {
      os << s.end;
    }
    os << ") free=" << s.freeNodes << '\n';
  }
  return os.str();
}

}  // namespace dynsched::core
