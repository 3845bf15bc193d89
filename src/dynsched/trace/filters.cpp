#include "dynsched/trace/filters.hpp"

#include <algorithm>
#include <cmath>

#include "dynsched/util/error.hpp"

namespace dynsched::trace {

SwfTrace clean(const SwfTrace& input, const CleanOptions& options,
               CleanReport* report) {
  CleanReport local;
  local.input = input.jobs().size();
  SwfTrace out = input;
  out.jobs().clear();
  const NodeCount maxWidth =
      options.maxWidth > 0 ? options.maxWidth : input.maxProcs(0);
  for (SwfJob job : input.jobs()) {
    if (options.dropCancelled && job.status == 5 && job.runTime <= 0) {
      ++local.droppedCancelled;
      continue;
    }
    if (options.dropInvalid && (job.width() <= 0 || job.runTime <= 0)) {
      ++local.droppedInvalid;
      continue;
    }
    if (job.runTime < options.minRuntime) job.runTime = options.minRuntime;
    if (maxWidth > 0 && job.width() > maxWidth) {
      ++local.clampedWidth;
      job.requestedProcs = maxWidth;
      if (job.allocatedProcs > maxWidth) job.allocatedProcs = maxWidth;
    }
    if (options.raiseEstimateToRuntime && job.estimate() < job.runTime) {
      ++local.raisedEstimates;
      job.requestedTime = job.runTime;
    }
    out.jobs().push_back(job);
  }
  local.kept = out.jobs().size();
  if (report != nullptr) *report = local;
  return out;
}

SwfTrace head(const SwfTrace& input, std::size_t count) {
  SwfTrace out = input;
  if (out.jobs().size() > count) out.jobs().resize(count);
  return out;
}

SwfTrace normalize(const SwfTrace& input) {
  SwfTrace out = input;
  std::stable_sort(out.jobs().begin(), out.jobs().end(),
                   [](const SwfJob& a, const SwfJob& b) {
                     return a.submitTime < b.submitTime;
                   });
  JobId next = 1;
  for (SwfJob& job : out.jobs()) job.jobNumber = next++;
  return out;
}

SwfTrace scaleArrivals(const SwfTrace& input, double factor) {
  DYNSCHED_CHECK(factor > 0);
  SwfTrace out = input;
  for (SwfJob& job : out.jobs()) {
    job.submitTime = static_cast<Time>(
        std::llround(static_cast<double>(job.submitTime) * factor));
  }
  return out;
}

}  // namespace dynsched::trace
