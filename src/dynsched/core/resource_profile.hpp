// Free-capacity step function over time — the single placement kernel.
//
// Every schedule in this library (policy planning, ILP-order compaction,
// schedule validation) is built by reserving rectangles (start, duration,
// width) in a ResourceProfile. The profile starts from a MachineHistory
// (capacity already reduced by running jobs) and supports earliest-fit
// queries: the first time >= readyTime at which `width` nodes are free for
// `duration` contiguous seconds. Earliest-fit placement in policy order is
// exactly the paper's planning-based scheduling with implicit backfilling.
//
// place() is that placement as one operation: a single binary search for
// the ready time, the earliest-fit scan, then the split/decrement/merge of
// the reserved range from the segment where the scan stopped. reserve()
// commits a caller-chosen start with one search and one capacity walk.
// earliestFit() and fits() are the read-only queries of the same scan and
// walk, for callers that look before they commit (order B&B's bound, EASY
// backfilling, the validator, admission of advance reservations).
#pragma once

#include <string>
#include <vector>

#include "dynsched/core/machine_history.hpp"
#include "dynsched/util/types.hpp"

namespace dynsched::core {

class ResourceProfile {
 public:
  /// Profile with the free capacity described by `history`; beyond the last
  /// history entry the whole machine is free indefinitely.
  explicit ResourceProfile(const MachineHistory& history);

  /// Convenience: fully free machine from `now`.
  ResourceProfile(const Machine& machine, Time now);

  Time startTime() const { return segments_.front().begin; }
  NodeCount machineSize() const { return machineSize_; }

  /// Free nodes at time t (t >= startTime()).
  NodeCount freeAt(Time t) const;

  /// Earliest start >= readyTime such that `width` nodes are free during
  /// [start, start + duration). Always exists (capacity returns to full).
  Time earliestFit(Time readyTime, Time duration, NodeCount width) const;

  /// True iff `width` nodes are free during [start, start + duration).
  bool fits(Time start, Time duration, NodeCount width) const;

  /// Reserves `width` nodes from the earliest fit (see earliestFit) and
  /// returns its start: earliestFit() followed by reserve(), in one pass.
  Time place(Time readyTime, Time duration, NodeCount width);

  /// Removes `width` nodes during [start, start + duration). Throws
  /// CheckError, leaving the profile untouched, if they are not free.
  void reserve(Time start, Time duration, NodeCount width);

  /// Number of internal segments (for tests / complexity checks).
  std::size_t segmentCount() const { return segments_.size(); }

  /// The staircase as history-style entries, merged where adjacent segments
  /// have equal capacity.
  std::vector<MachineHistory::Entry> steps() const;

  std::string toString() const;

 private:
  /// Half-open segment [begin, end) with `freeNodes` free; the last segment
  /// has end == kTimeInfinity.
  struct Segment {
    Time begin;
    Time end;
    NodeCount freeNodes;
  };

  /// An earliest fit: its start and the index of the segment holding it.
  struct Fit {
    Time start;
    std::size_t segment;
  };

  /// Index of the segment containing time t.
  std::size_t segmentAt(Time t) const;

  /// The earliest-fit scan behind earliestFit() and place().
  Fit findFit(Time readyTime, Time duration, NodeCount width) const;

  /// True iff `width` nodes are free from segment `i` until `end`.
  bool fitsFrom(std::size_t i, Time end, NodeCount width) const;

  /// Takes `width` nodes during [start, end), where segment `i` holds
  /// `start`: splits at both ends, decrements, and merges equal neighbours.
  void take(std::size_t i, Time start, Time end, NodeCount width);

  std::vector<Segment> segments_;
  NodeCount machineSize_;
};

}  // namespace dynsched::core
