#include "dynsched/tip/time_scaling.hpp"

#include <algorithm>
#include <cmath>

#include "dynsched/util/checked.hpp"
#include "dynsched/util/error.hpp"

namespace dynsched::tip {

double estimateProblemBytes(Time makespan, Time accRuntime, std::size_t jobs,
                            Time scale) {
  DYNSCHED_CHECK(makespan > 0 && scale > 0);
  // memory ≈ (makespan/scale)² · jobs · (accRuntime/makespan) · x — see the
  // header comment; computeTimeScale() is this model solved for `scale`.
  const double slots =
      static_cast<double>(makespan) / static_cast<double>(scale);
  const double density = static_cast<double>(accRuntime) /
                         static_cast<double>(makespan);
  return slots * slots * static_cast<double>(jobs) * density *
         kBytesPerEntry;
}

Time computeTimeScale(Time makespan, Time accRuntime, std::size_t jobs,
                      const TimeScalingParams& params) {
  DYNSCHED_CHECK(makespan > 0);
  DYNSCHED_CHECK(accRuntime >= 0);
  DYNSCHED_CHECK(jobs > 0);
  const double budget = static_cast<double>(params.totalMemoryBytes) /
                        kSolverOverheadFactor;
  // Eq. 6: scale = sqrt(makespan · jobs · accRuntime · x / budget).
  const double raw = std::sqrt(static_cast<double>(makespan) *
                               static_cast<double>(jobs) *
                               static_cast<double>(accRuntime) *
                               kBytesPerEntry / budget);
  Time scale = std::max<Time>(kMinScale, static_cast<Time>(std::ceil(raw)));
  // Round up to full minutes so the grids of successive steps stay
  // comparable.
  if (scale > 1) {
    scale = util::checkedMul<Time>(
        util::checkedAdd<Time>(scale, kRoundToSeconds - 1) / kRoundToSeconds,
        kRoundToSeconds);
  }
  return scale;
}

}  // namespace dynsched::tip
