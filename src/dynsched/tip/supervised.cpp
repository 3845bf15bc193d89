#include "dynsched/tip/supervised.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <tuple>

#include "dynsched/analysis/audit.hpp"
#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/core/policies.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/logging.hpp"
#include "dynsched/util/timer.hpp"

namespace dynsched::tip {

const char* solveRungName(SolveRung rung) {
  switch (rung) {
    case SolveRung::Optimal: return "optimal";
    case SolveRung::IncumbentGap: return "incumbent-gap";
    case SolveRung::CoarsenedRetry: return "coarsened-retry";
    case SolveRung::PolicyFallback: return "policy-fallback";
  }
  return "?";
}

bool solveRungFromIndex(int index, SolveRung& rung) {
  if (index < 0 || index >= kSolveRungs) return false;
  rung = static_cast<SolveRung>(index);
  return true;
}

namespace {

/// Start order of a second-precision schedule (by start, submit, id).
std::vector<std::size_t> scheduleOrder(const std::vector<core::Job>& jobs,
                                       const core::Schedule& schedule) {
  std::vector<std::size_t> order(jobs.size());
  std::vector<Time> starts(jobs.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    order[i] = i;
    const core::ScheduledJob* entry = schedule.find(jobs[i].id);
    DYNSCHED_CHECK_MSG(entry != nullptr,
                       "schedule misses job " << jobs[i].id);
    starts[i] = entry->start;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(starts[a], jobs[a].submit, jobs[a].id) <
           std::tie(starts[b], jobs[b].submit, jobs[b].id);
  });
  return order;
}

/// LP-guided rounding: order jobs by their fractional mean start slot and
/// place that order on the grid; encode as a 0/1 candidate.
std::optional<std::vector<double>> roundByMeanStart(
    const TipModel& model, const TipInstance& instance, const Grid& grid,
    const std::vector<double>& x) {
  const std::size_t n = instance.jobs.size();
  std::vector<double> meanSlot(n, 0.0);
  for (std::size_t col = 0; col < model.colJob.size(); ++col) {
    const double v = x[col];
    if (v <= 1e-9) continue;
    meanSlot[static_cast<std::size_t>(model.colJob[col])] +=
        v * static_cast<double>(model.colSlot[col]);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (meanSlot[a] != meanSlot[b]) return meanSlot[a] < meanSlot[b];
    return std::tie(instance.jobs[a].submit, instance.jobs[a].id) <
           std::tie(instance.jobs[b].submit, instance.jobs[b].id);
  });
  const Grid::Placement placement = grid.placeInOrder(order);
  return model.encode(placement.startSlot);
}

/// What one solve-compact-validate attempt produced.
struct AttemptOutcome {
  bool success = false;       ///< `schedule` is feasible and validated
  bool optimal = false;       ///< the MIP proved optimality
  core::Schedule schedule;
  mip::MipStatus status = mip::MipStatus::Error;
  double gap = 0;
  int lpColumns = 0;
  int lpRows = 0;
  long refactorizations = 0;  ///< of the MIP's node LPs
  std::string note;           ///< failure diagnosis when !success
};

/// One rung attempt: build the grid and model (re-linting on the way), solve
/// under the shared token, compact to second precision, and validate the
/// result from first principles. Every failure mode — solver statuses,
/// AuditError, CheckError, an invalid compacted schedule — comes back as a
/// diagnosis instead of an exception.
AttemptOutcome attemptSolve(const TipInstance& instance,
                            const sim::StepSnapshot& snapshot,
                            const SupervisedOptions& options,
                            util::CancelToken& token) {
  AttemptOutcome out;
  try {
    const Grid grid = makeGrid(instance);
    TipModel model = buildModel(instance, grid);
    out.lpColumns = model.mip.lp.numVariables();
    out.lpRows = model.mip.lp.numRows();

    mip::MipOptions mipOptions = makeMipOptions(
        model, instance, grid, options.mip,
        options.warmStart ? &snapshot.bestSchedule : nullptr);
    if (!options.roundingHeuristic) mipOptions.roundingHeuristic = nullptr;
    mipOptions.cancel = &token;

    const mip::MipResult solved = mip::solveMip(model.mip, mipOptions);
    out.status = solved.status;
    out.refactorizations = solved.refactorizations;
    if (!solved.hasSolution()) {
      out.note = solved.message.empty() ? mip::mipStatusName(solved.status)
                                        : solved.message;
      return out;
    }
    out.gap = solved.gap();

    core::Schedule schedule =
        compactFromSlots(instance, model.startSlots(solved.x));
    // The supervision layer validates unconditionally — unlike the
    // DYNSCHED_AUDIT gate, a bad schedule here must descend the ladder, not
    // reach the study or the simulator.
    const analysis::ValidationReport report =
        analysis::ScheduleValidator().validate(schedule, instance.history,
                                               instance.now);
    if (!report.ok()) {
      out.status = mip::MipStatus::Error;
      out.note = "compacted schedule failed validation: " +
                 report.toString();
      return out;
    }
    out.schedule = std::move(schedule);
    out.optimal = solved.status == mip::MipStatus::Optimal;
    out.success = true;
  } catch (const analysis::AuditError& e) {
    out.status = mip::MipStatus::Error;
    out.note = std::string("audit error: ") + e.what();
  } catch (const CheckError& e) {
    out.status = mip::MipStatus::Error;
    out.note = std::string("check error: ") + e.what();
  }
  return out;
}

void adoptAttempt(SupervisedResult& result, AttemptOutcome&& out) {
  result.schedule = std::move(out.schedule);
  result.mipStatus = out.status;
  result.gap = out.gap;
  if (out.lpColumns > 0) {
    result.lpColumns = out.lpColumns;
    result.lpRows = out.lpRows;
  }
}

}  // namespace

mip::MipOptions makeMipOptions(const TipModel& model,
                               const TipInstance& instance, const Grid& grid,
                               mip::MipOptions base,
                               const core::Schedule* warmStart) {
  base.branchGroups = model.jobColumns;  // SOS1 over start slots
  base.roundingHeuristic = [&model, &instance,
                            &grid](const std::vector<double>& x) {
    return roundByMeanStart(model, instance, grid, x);
  };
  if (warmStart != nullptr) {
    const std::vector<std::size_t> order =
        scheduleOrder(instance.jobs, *warmStart);
    const Grid::Placement placement = grid.placeInOrder(order);
    if (auto encoded = model.encode(placement.startSlot)) {
      base.warmStart = std::move(*encoded);
    }
  }
  return base;
}

TipInstance makeInstance(const sim::StepSnapshot& snapshot,
                         const SupervisedOptions& options) {
  TipInstance instance;
  instance.history = snapshot.history;
  instance.jobs = snapshot.waiting;
  instance.now = snapshot.time;
  instance.horizon = std::max(snapshot.maxPolicyMakespan,
                              snapshot.time + 1);
  const Time makespan = instance.horizon - instance.now;
  instance.timeScale =
      options.forcedTimeScale > 0
          ? options.forcedTimeScale
          : computeTimeScale(makespan, snapshot.accumulatedRuntime(),
                             instance.jobs.size(), options.scaling);
  return instance;
}

SupervisedResult supervisedBestSchedule(const sim::StepSnapshot& snapshot,
                                        const SupervisedOptions& options,
                                        long stepIndex) {
  DYNSCHED_CHECK(!snapshot.waiting.empty());
  const util::FaultPlan faults =
      options.faults.has_value() ? *options.faults : util::FaultPlan::fromEnv();
  util::CancelToken token(options.budget, faults);
  util::WallTimer timer;

  SupervisedResult result;
  TipInstance instance = makeInstance(snapshot, options);
  result.timeScale = instance.timeScale;
  const Time makespan = instance.horizon - instance.now;
  const Time accRuntime = snapshot.accumulatedRuntime();
  std::ostringstream prov;

  auto finish = [&](SolveRung rung) {
    result.rung = rung;
    result.provenance = prov.str();
    result.nodes = token.nodes();
    result.lpIterations = token.lpIterations();
    result.stopReason = token.reason();
    result.seconds = timer.elapsedSeconds();
    if (result.degraded()) {
      DYNSCHED_LOG(Info) << "step " << stepIndex << " degraded to "
                         << solveRungName(rung) << ": " << result.provenance;
    }
    return result;
  };

  bool wantRetry = false;
  if (faults.failsStep(stepIndex)) {
    // Rung-4 fault: the whole step is declared failed before any solve.
    prov << "injected step fault (" << faults.describe() << ")";
  } else {
    // Rungs 1/2: solve at the Eq. 6 scale — unless the memory estimate
    // already exceeds the budget cap, in which case the ladder descends
    // straight to the coarsened grid.
    const double estimate =
        estimateProblemBytes(makespan, accRuntime, snapshot.waiting.size(),
                             instance.timeScale);
    if (token.overMemory(estimate)) {
      prov << "memory estimate " << static_cast<std::uint64_t>(estimate)
           << " bytes over cap at scale " << instance.timeScale;
      wantRetry = true;
    } else {
      AttemptOutcome first =
          attemptSolve(instance, snapshot, options, token);
      result.refactorizations += first.refactorizations;
      if (first.success) {
        const bool optimal = first.optimal;
        prov << (optimal ? "proven optimal"
                         : "budget hit; incumbent kept");
        if (!optimal) {
          prov << " (gap " << first.gap << ", "
               << util::cancelReasonName(token.reason()) << ")";
        }
        adoptAttempt(result, std::move(first));
        return finish(optimal ? SolveRung::Optimal
                              : SolveRung::IncumbentGap);
      }
      prov << "primary solve failed: " << first.note;
      result.mipStatus = first.status;
      if (first.lpColumns > 0) {
        result.lpColumns = first.lpColumns;
        result.lpRows = first.lpRows;
      }
      // A budget-cancelled token has nothing left for a retry; every other
      // failure (numerical, audit, check, injected) gets one more chance.
      wantRetry = !token.cancelled();
      if (!wantRetry) prov << "; no budget left for a coarsened retry";
    }
  }

  if (wantRetry) {
    // Rung 3: double the Eq. 6 scale (quadratically smaller model), rebuild
    // and re-lint, and solve with whatever budget remains on the token.
    TipInstance coarse = instance;
    coarse.timeScale = std::max<Time>(1, instance.timeScale * 2);
    result.coarsened = true;
    prov << "; retrying at coarsened scale " << coarse.timeScale;
    AttemptOutcome second = attemptSolve(coarse, snapshot, options, token);
    result.refactorizations += second.refactorizations;
    if (second.success) {
      prov << ": " << (second.optimal ? "optimal" : "incumbent") << " found";
      adoptAttempt(result, std::move(second));
      result.timeScale = coarse.timeScale;
      return finish(SolveRung::CoarsenedRetry);
    }
    prov << ": " << second.note;
    result.mipStatus = second.status;
    if (second.lpColumns > 0) {
      result.lpColumns = second.lpColumns;
      result.lpRows = second.lpRows;
    }
  }

  // Rung 4: the best basic-policy schedule for this step is always a valid
  // plan (the snapshot captured it from the planner) — the study and the
  // simulator keep moving no matter what the exact solver did.
  prov << "; fell back to best policy schedule ("
       << core::policyName(snapshot.bestPolicy) << ")";
  result.schedule = snapshot.bestSchedule;
  result.gap = 0;
  return finish(SolveRung::PolicyFallback);
}

}  // namespace dynsched::tip
