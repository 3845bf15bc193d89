// Schedule performance metrics.
//
// The self-tuning step "measures the schedule by means of a performance
// metrics (e.g. response time, slowdown, or utilization)" (paper Section 2).
// The ILP objective is the width-weighted response time (ARTwW, Eq. 2); the
// Table 1 comparison uses the average slowdown weighted by job area (SLDwA).
#pragma once

#include "dynsched/util/types.hpp"

namespace dynsched::core {

class Schedule;

enum class MetricKind {
  AvgResponseTime,      ///< mean(end − submit)
  ArtWW,                ///< Σ resp·w / Σ w — width-weighted response time
  AvgWaitTime,          ///< mean(start − submit)
  AvgSlowdown,          ///< mean(resp / duration)
  SldWA,                ///< Σ sld·area / Σ area, area = w·d
  BoundedSlowdown,      ///< mean(max(resp / max(d, 10 s), 1))
  Makespan,             ///< latest end − evaluation time
  Utilization,          ///< scheduled area / (machine · (makespan − now))
};

/// Number of MetricKind values (serialization range checks).
inline constexpr int kMetricKinds = 8;

const char* metricName(MetricKind metric);

/// Validated u8 → MetricKind conversion (wire/journal payloads serialize
/// metrics as one byte). Returns false on an out-of-range value.
bool metricFromIndex(std::uint8_t index, MetricKind& metric);

/// True when a smaller value means a better schedule (all but Utilization).
bool lowerIsBetter(MetricKind metric);

/// A metric value a producer reported for a schedule. The audit layer
/// recomputes it independently and flags disagreement beyond tolerance;
/// it lives here (not in analysis) so producers can state expectations
/// without depending on the validator.
struct MetricExpectation {
  MetricKind metric = MetricKind::AvgResponseTime;
  double reported = 0;
};

/// Evaluates schedules at a fixed decision instant. `now` anchors makespan
/// and utilization; `machineSize` is needed for utilization only.
class MetricEvaluator {
 public:
  MetricEvaluator(Time now, NodeCount machineSize)
      : now_(now), machineSize_(machineSize) {}

  double evaluate(const Schedule& schedule, MetricKind metric) const;

  /// The ILP objective of Eq. 2: Σ (start − submit + duration) · width.
  /// Equals ArtWW · Σ width; both rank schedules identically for a fixed
  /// job set, but this is what the solver minimizes bit-for-bit.
  static double totalWeightedResponse(const Schedule& schedule);

 private:
  Time now_;
  NodeCount machineSize_;
};

}  // namespace dynsched::core
