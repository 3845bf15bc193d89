#include "dynsched/core/metrics.hpp"

#include <algorithm>

#include "dynsched/core/schedule.hpp"
#include "dynsched/util/checked.hpp"
#include "dynsched/util/error.hpp"

namespace dynsched::core {

namespace {
constexpr double kBoundedSlowdownTau = 10.0;  // seconds, the usual threshold

/// time · width in exact integer arithmetic; throws instead of wrapping on
/// pathological traces (month-long responses times full-machine widths sum
/// fine, but corrupted SWF fields can reach 2^63).
double weightedSeconds(Time seconds, NodeCount width) {
  return static_cast<double>(
      util::checkedMul<Time>(seconds, static_cast<Time>(width)));
}
}

const char* metricName(MetricKind metric) {
  switch (metric) {
    case MetricKind::AvgResponseTime: return "ART";
    case MetricKind::ArtWW: return "ARTwW";
    case MetricKind::AvgWaitTime: return "AWT";
    case MetricKind::AvgSlowdown: return "SLD";
    case MetricKind::SldWA: return "SLDwA";
    case MetricKind::BoundedSlowdown: return "BSLD";
    case MetricKind::Makespan: return "makespan";
    case MetricKind::Utilization: return "util";
  }
  return "?";
}

bool metricFromIndex(std::uint8_t index, MetricKind& metric) {
  if (index >= static_cast<std::uint8_t>(kMetricKinds)) return false;
  metric = static_cast<MetricKind>(index);
  return true;
}

bool lowerIsBetter(MetricKind metric) {
  return metric != MetricKind::Utilization;
}

double MetricEvaluator::totalWeightedResponse(const Schedule& schedule) {
  double total = 0;
  for (const ScheduledJob& e : schedule.entries()) {
    total += weightedSeconds(e.responseTime(), e.job.width);
  }
  return total;
}

double MetricEvaluator::evaluate(const Schedule& schedule,
                                 MetricKind metric) const {
  const auto& entries = schedule.entries();
  if (entries.empty()) {
    // An empty schedule is perfect under every "lower is better" metric and
    // fully utilizes nothing; define it as 0 (and 1 for utilization).
    return metric == MetricKind::Utilization ? 1.0 : 0.0;
  }
  switch (metric) {
    case MetricKind::AvgResponseTime: {
      double sum = 0;
      for (const auto& e : entries)
        sum += static_cast<double>(e.responseTime());
      return sum / static_cast<double>(entries.size());
    }
    case MetricKind::ArtWW: {
      double sum = 0, weight = 0;
      for (const auto& e : entries) {
        sum += weightedSeconds(e.responseTime(), e.job.width);
        weight += static_cast<double>(e.job.width);
      }
      return sum / weight;
    }
    case MetricKind::AvgWaitTime: {
      double sum = 0;
      for (const auto& e : entries) sum += static_cast<double>(e.waitTime());
      return sum / static_cast<double>(entries.size());
    }
    case MetricKind::AvgSlowdown: {
      double sum = 0;
      for (const auto& e : entries) {
        sum += static_cast<double>(e.responseTime()) /
               static_cast<double>(e.duration);
      }
      return sum / static_cast<double>(entries.size());
    }
    case MetricKind::SldWA: {
      double sum = 0, weight = 0;
      for (const auto& e : entries) {
        const double area = weightedSeconds(e.duration, e.job.width);
        sum += static_cast<double>(e.responseTime()) /
               static_cast<double>(e.duration) * area;
        weight += area;
      }
      return sum / weight;
    }
    case MetricKind::BoundedSlowdown: {
      double sum = 0;
      for (const auto& e : entries) {
        const double d =
            std::max(static_cast<double>(e.duration), kBoundedSlowdownTau);
        sum += std::max(static_cast<double>(e.responseTime()) / d, 1.0);
      }
      return sum / static_cast<double>(entries.size());
    }
    case MetricKind::Makespan:
      return static_cast<double>(schedule.makespan(now_) - now_);
    case MetricKind::Utilization: {
      DYNSCHED_CHECK_MSG(machineSize_ > 0,
                         "utilization needs the machine size");
      const double span =
          static_cast<double>(schedule.makespan(now_) - now_);
      if (span <= 0) return 1.0;
      double area = 0;
      for (const auto& e : entries) {
        // Count only the area inside [now, makespan).
        const Time from = std::max(e.start, now_);
        const Time to = e.end();
        if (to > from) {
          area += static_cast<double>(to - from) *
                  static_cast<double>(e.job.width);
        }
      }
      return area / (span * static_cast<double>(machineSize_));
    }
  }
  DYNSCHED_CHECK(false);
}

}  // namespace dynsched::core
