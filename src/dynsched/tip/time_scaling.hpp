// Time-scaling (paper Section 3.2, Eq. 6).
//
// A second-granular time-indexed model has (#jobs × T) binary variables and
// is far too large; the schedule is therefore computed on a coarser grid.
// The paper sizes the grid from a memory model:
//
//     memory ≈ (makespan / scale)² · jobs · (accRuntime / makespan) · x
//
// (number of matrix entries — jobs·(T/scale) columns, each with about
// accRuntime/(jobs·scale) capacity entries, plus (T/scale) rows — times x
// bytes per entry). Solving "memory = budget" for the scale gives
//
//     scale = sqrt(makespan · jobs · accRuntime · x / budget)      (Eq. 6)
//
// rounded *up* to full minutes. The budget is a quarter of the machine's
// memory, "as the additional memory is needed by CPLEX during the solving
// phase"; good values for x are around 0.1 KB.
#pragma once

#include <cstdint>

#include "dynsched/util/types.hpp"

namespace dynsched::tip {

/// Eq. 6's fixed constants. tip::studyFingerprint and the server's config
/// fingerprint record them, so editing one invalidates the journals written
/// under the old value.
inline constexpr double kBytesPerEntry = 102.4;  ///< x ≈ 0.1 KB
/// The budget is the machine's memory divided by this.
inline constexpr double kSolverOverheadFactor = 4.0;
/// "rounded up to the next 60 seconds"
inline constexpr Time kRoundToSeconds = 60;
inline constexpr Time kMinScale = 1;

struct TimeScalingParams {
  std::uint64_t totalMemoryBytes = 8ULL << 30;  ///< the paper's 8 GB server
};

/// Computes the time scale for one quasi-offline instance.
/// `makespan` is the schedule length T − now (upper bound from the max
/// policy makespan), `accRuntime` the summed estimated durations of the
/// waiting jobs.
Time computeTimeScale(Time makespan, Time accRuntime, std::size_t jobs,
                      const TimeScalingParams& params = {});

/// The memory-model estimate for a given scale (bytes); the supervised
/// ladder checks it against the budget's memory cap.
double estimateProblemBytes(Time makespan, Time accRuntime, std::size_t jobs,
                            Time scale);

}  // namespace dynsched::tip
