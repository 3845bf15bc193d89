// Trace cleaning and slicing.
//
// Archive traces contain cancelled jobs, zero-width records and jobs whose
// runtime exceeds their estimate; simulation studies (including the paper's)
// clean these before use. All filters are pure: they return a new SwfTrace.
#pragma once

#include <cstddef>

#include "dynsched/trace/swf.hpp"

namespace dynsched::trace {

struct CleanOptions {
  /// Drop records whose width or runtime is unknown/non-positive.
  bool dropInvalid = true;
  /// Drop cancelled jobs (SWF status 5) that never ran.
  bool dropCancelled = true;
  /// Clamp width to the machine size (0 = use trace header / keep as is).
  NodeCount maxWidth = 0;
  /// Raise estimates below the actual runtime up to the runtime. A planning
  /// based RMS kills jobs at their estimate; without this, under-estimated
  /// jobs would be truncated relative to the trace.
  bool raiseEstimateToRuntime = true;
  /// Force a minimum runtime (guards against 0-second records).
  Time minRuntime = 1;
};

struct CleanReport {
  std::size_t input = 0;
  std::size_t kept = 0;
  std::size_t droppedInvalid = 0;
  std::size_t droppedCancelled = 0;
  std::size_t clampedWidth = 0;
  std::size_t raisedEstimates = 0;
};

/// Applies CleanOptions; fills `report` if non-null.
SwfTrace clean(const SwfTrace& input, const CleanOptions& options,
               CleanReport* report = nullptr);

/// Keeps the first `count` jobs (by file order).
SwfTrace head(const SwfTrace& input, std::size_t count);

/// Sorts by submit time (stable) and renumbers jobs 1..n.
SwfTrace normalize(const SwfTrace& input);

/// Scales submit times by `factor` (>0), compressing (<1) or stretching (>1)
/// the arrival process while leaving runtimes untouched. Used to sweep load.
SwfTrace scaleArrivals(const SwfTrace& input, double factor);

}  // namespace dynsched::trace
