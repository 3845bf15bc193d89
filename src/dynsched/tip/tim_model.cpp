#include "dynsched/tip/tim_model.hpp"

#include <algorithm>
#include <string>

#include "dynsched/analysis/audit.hpp"
#include "dynsched/analysis/model_lint.hpp"
#include "dynsched/core/policies.hpp"
#include "dynsched/lp/model.hpp"
#include "dynsched/util/checked.hpp"
#include "dynsched/util/error.hpp"

namespace dynsched::tip {

namespace {

int ceilDiv(Time a, Time b) {
  return static_cast<int>((a + b - 1) / b);
}

std::vector<std::size_t> fcfsOrder(const std::vector<core::Job>& jobs) {
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return core::policyLess(core::PolicyKind::Fcfs, jobs[a], jobs[b]);
  });
  return order;
}

}  // namespace

Grid::Grid(const TipInstance& instance, int minSlots)
    : now_(instance.now),
      scale_(instance.timeScale),
      machineSize_(instance.history.machineSize()),
      instance_(&instance) {
  DYNSCHED_CHECK(scale_ > 0);
  DYNSCHED_CHECK(minSlots > 0);
  DYNSCHED_CHECK(instance.history.startTime() <= now_);
  capacity_.reserve(static_cast<std::size_t>(minSlots));
  for (int k = 0; k < minSlots; ++k) {
    capacity_.push_back(instance.history.freeAt(slotStart(k)));
  }
  slotDuration_.reserve(instance.jobs.size());
  for (const core::Job& job : instance.jobs) {
    DYNSCHED_CHECK(job.estimate > 0);
    slotDuration_.push_back(ceilDiv(job.estimate, scale_));
  }
}

Grid::Placement Grid::placeInOrder(const std::vector<std::size_t>& order) const {
  Placement placement;
  placement.startSlot.assign(instance_->jobs.size(), -1);
  std::vector<NodeCount> remaining = capacity_;
  const auto capAt = [&](std::size_t k) {
    return k < remaining.size() ? remaining[k] : machineSize_;
  };
  const auto ensureSize = [&](std::size_t k) {
    if (remaining.size() <= k) remaining.resize(k + 1, machineSize_);
  };
  int usedSlots = 0;
  for (const std::size_t jobIndex : order) {
    const core::Job& job = instance_->jobs[jobIndex];
    const int dur = slotDuration_[jobIndex];
    int start = 0;
    while (true) {
      bool ok = true;
      for (int k = start; k < start + dur; ++k) {
        if (capAt(static_cast<std::size_t>(k)) < job.width) {
          start = k + 1;  // restart after the blocking slot
          ok = false;
          break;
        }
      }
      if (ok) break;
    }
    ensureSize(static_cast<std::size_t>(start + dur - 1));
    for (int k = start; k < start + dur; ++k) {
      remaining[static_cast<std::size_t>(k)] -= job.width;
    }
    placement.startSlot[jobIndex] = start;
    usedSlots = std::max(usedSlots, start + dur);
  }
  placement.usedSlots = usedSlots;
  return placement;
}

Grid makeGrid(const TipInstance& instance) {
  DYNSCHED_CHECK(!instance.jobs.empty());
  DYNSCHED_CHECK(instance.horizon > instance.now);
  const int base = std::max(
      1, static_cast<int>((instance.horizon - instance.now +
                           instance.timeScale - 1) /
                          instance.timeScale));
  Grid grid(instance, base);
  // Extend until an FCFS placement fits: guarantees the model is feasible
  // even where start-snapping pushes jobs past the policy-makespan bound.
  const Grid::Placement fcfs =
      grid.placeInOrder(fcfsOrder(instance.jobs));
  if (fcfs.usedSlots > grid.slots()) {
    return Grid(instance, fcfs.usedSlots);
  }
  return grid;
}

TipModel buildModel(const TipInstance& instance, const Grid& grid) {
  TipModel model;
  model.numSlots = grid.slots();
  const int numJobs = static_cast<int>(instance.jobs.size());
  DYNSCHED_CHECK(numJobs > 0);

  // Rows: one assignment row per job (Eq. 3), one capacity row per slot
  // (Eq. 4, with M_t already reduced by the machine history).
  for (int i = 0; i < numJobs; ++i) {
    model.mip.lp.addRow(1.0, 1.0, ("assign_" + std::to_string(i)).c_str());
  }
  for (int k = 0; k < grid.slots(); ++k) {
    model.mip.lp.addRow(-lp::kInf, static_cast<double>(grid.capacity(k)),
                        ("cap_" + std::to_string(k)).c_str());
  }

  model.jobColumns.resize(static_cast<std::size_t>(numJobs));
  // One column per feasible (job, start slot) pair; sizing the column maps
  // up front avoids growth reallocations over the whole build.
  std::size_t totalColumns = 0;
  for (int i = 0; i < numJobs; ++i) {
    const int span =
        grid.slots() - grid.slotDuration(static_cast<std::size_t>(i)) + 1;
    if (span > 0) totalColumns += static_cast<std::size_t>(span);
  }
  model.colJob.reserve(totalColumns);
  model.colSlot.reserve(totalColumns);
  for (int i = 0; i < numJobs; ++i) {
    const core::Job& job = instance.jobs[static_cast<std::size_t>(i)];
    const int dur = grid.slotDuration(static_cast<std::size_t>(i));
    const int lastStart = grid.slots() - dur;
    DYNSCHED_CHECK_MSG(lastStart >= 0, "job " << job.id
                                              << " does not fit the horizon");
    model.jobColumns[static_cast<std::size_t>(i)].reserve(
        static_cast<std::size_t>(lastStart) + 1);
    for (int k = 0; k <= lastStart; ++k) {
      // Eq. 2 coefficient: (t − s_i + d_i) · w_i with t the slot start.
      const Time response = util::checkedAdd<Time>(
          grid.slotStart(k) - job.submit, job.estimate);
      const double coef =
          static_cast<double>(response) * static_cast<double>(job.width);
      const int col = model.mip.addIntegerVariable(
          0.0, 1.0, coef,
          "x_" + std::to_string(i) + "_" + std::to_string(k));
      model.colJob.push_back(i);
      model.colSlot.push_back(k);
      model.jobColumns[static_cast<std::size_t>(i)].push_back(col);
      model.mip.lp.addEntry(i, col, 1.0);
      for (int kk = k; kk < k + dur; ++kk) {
        model.mip.lp.addEntry(numJobs + kk, col,
                              static_cast<double>(job.width));
      }
    }
  }
#if defined(DYNSCHED_AUDIT_ENABLED) && DYNSCHED_AUDIT_ENABLED
  // Only while the runtime audit runs: with it off, a finding could only be
  // logged.
  if (!analysis::auditEnabled()) return model;
  analysis::TipModelView view;
  view.model = &model.mip;
  view.numJobs = numJobs;
  view.numSlots = grid.slots();
  view.now = instance.now;
  view.horizon = instance.horizon;
  view.timeScale = instance.timeScale;
  view.machineSize = instance.history.machineSize();
  view.slotCapacity.reserve(static_cast<std::size_t>(grid.slots()));
  for (int k = 0; k < grid.slots(); ++k) {
    view.slotCapacity.push_back(grid.capacity(k));
  }
  view.slotDuration.reserve(instance.jobs.size());
  view.jobWidth.reserve(instance.jobs.size());
  for (std::size_t i = 0; i < instance.jobs.size(); ++i) {
    view.slotDuration.push_back(grid.slotDuration(i));
    view.jobWidth.push_back(instance.jobs[i].width);
  }
  view.colJob = &model.colJob;
  view.colSlot = &model.colSlot;
  view.jobColumns = &model.jobColumns;
  analysis::enforceLint("tip.buildModel", analysis::lintModel(view));
#endif
  return model;
}

std::vector<int> TipModel::startSlots(const std::vector<double>& x) const {
  std::vector<int> slots(jobColumns.size(), -1);
  for (std::size_t i = 0; i < jobColumns.size(); ++i) {
    for (const int col : jobColumns[i]) {
      if (x[static_cast<std::size_t>(col)] > 0.5) {
        slots[i] = colSlot[static_cast<std::size_t>(col)];
        break;
      }
    }
  }
  return slots;
}

std::optional<std::vector<double>> TipModel::encode(
    const std::vector<int>& startSlot) const {
  DYNSCHED_CHECK(startSlot.size() == jobColumns.size());
  std::vector<double> x(colJob.size(), 0.0);
  for (std::size_t i = 0; i < jobColumns.size(); ++i) {
    const int slot = startSlot[i];
    if (slot < 0 ||
        slot >= static_cast<int>(jobColumns[i].size())) {
      return std::nullopt;  // placement beyond the model horizon
    }
    x[static_cast<std::size_t>(jobColumns[i][static_cast<std::size_t>(
        slot)])] = 1.0;
  }
  return x;
}

}  // namespace dynsched::tip
