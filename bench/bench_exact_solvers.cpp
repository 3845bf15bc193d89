// Exact-solver comparison: time-indexed MIP (with Eq. 6 time-scaling) vs
// the order branch & bound at full second precision.
//
// The paper conjectures that "an even larger improvement might be possible,
// if a second precise scaling is applied" (Section 4) but could not afford
// the memory. The order B&B sidesteps the grid entirely, so this bench can
// measure exactly that: for captured self-tuning steps it reports the best
// policy value, the scaled-ILP value (the paper's pipeline) and the true
// second-precision optimum, with solve times — quantifying how much of the
// optimality gap the time-scaling heuristic gives away.
#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/order_bnb.hpp"
#include "dynsched/tip/study.hpp"
#include "dynsched/tip/supervised.hpp"
#include "dynsched/trace/synthetic.hpp"
#include "dynsched/util/alloc_tracker.hpp"
#include "dynsched/util/flags.hpp"
#include "dynsched/util/journal.hpp"
#include "dynsched/util/strings.hpp"
#include "dynsched/util/table.hpp"
#include "dynsched/util/timer.hpp"

using namespace dynsched;

namespace {

/// One solved step, kept for the machine-readable report. Node and LP-size
/// counters are deterministic for a fixed workload and node budget — they
/// are the cross-host regression signal; the seconds only mean something on
/// a matching host (see scripts/bench_check.py).
struct StepRecord {
  Time time = 0;
  std::size_t jobs = 0;
  double policySld = 0;
  double ilpSld = 0;
  double exactSld = 0;
  long ilpNodes = 0;
  long ilpRefactorizations = 0;  ///< node-LP basis factorizations
  int lpRows = 0;
  int lpColumns = 0;
  long exactNodes = 0;
  bool exactOptimal = false;
  double ilpSeconds = 0;
  double exactSeconds = 0;
  // Allocation counters for the step's solves (both solvers), from
  // util::allocStats() deltas; all zero when the binary was built without
  // DYNSCHED_ALLOC_TRACK.
  std::uint64_t allocCount = 0;
  std::uint64_t allocBytes = 0;
  std::uint64_t peakBytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags("bench_exact_solvers");
  auto& traceJobs = flags.addInt("trace-jobs", 700, "simulated trace length");
  auto& seed = flags.addInt("seed", 44, "workload seed");
  auto& steps = flags.addInt("steps", 6, "steps to solve");
  auto& timeLimit =
      flags.addDouble("time-limit", 15.0, "limit per solver per step [s]");
  auto& maxNodes = flags.addInt(
      "max-nodes", 0,
      "cap B&B nodes per solver per step (0 = solver defaults); with a node "
      "cap and a generous --time-limit the run is deterministic");
  auto& jsonPath = flags.addString(
      "json", "", "write a machine-readable report to this file");
  if (!flags.parse(argc, argv)) return 0;

  const auto swf = trace::ctcModel().generate(
      static_cast<std::size_t>(traceJobs), static_cast<std::uint64_t>(seed));
  sim::SimOptions options;
  options.kind = sim::SchedulerKind::DynP;
  options.snapshots.enabled = true;
  options.snapshots.minWaiting = 5;
  options.snapshots.maxWaiting = 14;  // order B&B territory
  sim::RmsSimulator simulator(core::Machine{430}, options);
  const auto report = simulator.run(core::fromSwf(swf));
  if (report.snapshots.empty()) {
    std::puts("no snapshots captured; increase --trace-jobs");
    return 1;
  }
  std::vector<sim::StepSnapshot> selected;
  const std::size_t want = std::min<std::size_t>(
      static_cast<std::size_t>(steps), report.snapshots.size());
  for (std::size_t i = 0; i < want; ++i) {
    selected.push_back(
        report.snapshots[i * (report.snapshots.size() - 1) /
                         std::max<std::size_t>(1, want - 1)]);
  }

  util::TextTable table({"step", "jobs", "policy SLDwA", "scaled-ILP SLDwA",
                         "exact SLDwA", "scaled loss", "true loss",
                         "ILP time", "exact time", "exact proven", "rung"});
  char buf[64];
  double sumScaled = 0, sumTrue = 0;
  std::size_t rows = 0;
  std::array<std::size_t, tip::kSolveRungs> rungCounts{};
  std::size_t budgetHits = 0;
  std::vector<StepRecord> records;
  for (const auto& snap : selected) {
    // Allocation window: both solves plus their model builds. Reset here,
    // read after the exact solve — the deltas are the step's counters.
    util::resetAllocStats();
    // The paper's pipeline: Eq. 6 scaled ILP + compaction.
    tip::StudyOptions study;
    study.scaling.totalMemoryBytes = 256ULL << 20;
    study.mip.timeLimitSeconds = timeLimit;
    if (maxNodes > 0) study.mip.maxNodes = static_cast<long>(maxNodes);
    const tip::StudyRow row = tip::runStep(snap, study);

    // Second-precision optimum via the order B&B.
    tip::TipInstance inst = tip::makeInstance(snap, study);
    tip::OrderBnbOptions orderOptions;
    orderOptions.timeLimitSeconds = timeLimit;
    if (maxNodes > 0) orderOptions.maxNodes = static_cast<long>(maxNodes);
    const tip::OrderBnbResult exact = tip::solveByOrderBnb(inst, orderOptions);
    const core::MetricEvaluator evaluator(inst.now,
                                          inst.history.machineSize());
    const double exactSld =
        evaluator.evaluate(exact.schedule, core::MetricKind::SldWA);
    const util::AllocStats stepAllocs = util::allocStats();
    const double trueLoss = (1.0 - exactSld / row.policyValue) * 100.0;
    sumScaled += row.perfLossPct;
    sumTrue += trueLoss;
    ++rows;
    ++rungCounts[static_cast<std::size_t>(tip::solveRungIndex(row.rung))];
    if (row.stopReason != util::CancelReason::None &&
        row.stopReason != util::CancelReason::Fault) {
      ++budgetHits;
    }

    std::vector<std::string> cells;
    cells.push_back("t=" + util::formatThousands(snap.time));
    cells.push_back(std::to_string(row.jobs));
    std::snprintf(buf, sizeof(buf), "%.3f", row.policyValue);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", row.ilpValue);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", exactSld);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%+.2f%%", row.perfLossPct);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%+.2f%%", trueLoss);
    cells.push_back(buf);
    cells.push_back(util::formatDuration(row.solveSeconds));
    cells.push_back(util::formatDuration(exact.seconds));
    cells.push_back(exact.optimal ? "yes" : "no (limit)");
    cells.push_back(tip::solveRungName(row.rung));
    table.addRow(std::move(cells));

    StepRecord record;
    record.time = snap.time;
    record.jobs = row.jobs;
    record.policySld = row.policyValue;
    record.ilpSld = row.ilpValue;
    record.exactSld = exactSld;
    record.ilpNodes = row.nodes;
    record.ilpRefactorizations = row.refactorizations;
    record.lpRows = row.lpRows;
    record.lpColumns = row.lpColumns;
    record.exactNodes = exact.nodes;
    record.exactOptimal = exact.optimal;
    record.ilpSeconds = row.solveSeconds;
    record.exactSeconds = exact.seconds;
    record.allocCount = stepAllocs.allocCount;
    record.allocBytes = stepAllocs.allocBytes;
    record.peakBytes = stepAllocs.peakBytes;
    records.push_back(record);
  }
  std::cout << table.render();
  if (rows > 0) {
    std::printf(
        "\naverages: scaled-ILP loss %+.2f%%, true second-precision loss "
        "%+.2f%% — the gap between the two is what Eq. 6 time-scaling "
        "gives away (paper Section 3.2/4).\n",
        sumScaled / static_cast<double>(rows),
        sumTrue / static_cast<double>(rows));
    std::printf(
        "ladder: optimal %zu, incumbent-gap %zu, coarsened-retry %zu, "
        "policy-fallback %zu; budget hit on %zu/%zu steps (%.0f%%).\n",
        rungCounts[0], rungCounts[1], rungCounts[2], rungCounts[3], budgetHits,
        rows, 100.0 * static_cast<double>(budgetHits) /
                  static_cast<double>(rows));
  }

  if (!jsonPath.empty()) {
    // The baseline comparator (scripts/bench_check.py) reads this. Totals
    // carry the regression gate; per-step rows are for diagnosing which
    // instance moved. The host block scopes the wall-clock comparison.
    long ilpNodes = 0, ilpRefactorizations = 0, exactNodes = 0;
    long lpRowsTotal = 0, lpColsTotal = 0;
    double ilpSeconds = 0, exactSeconds = 0;
    std::uint64_t allocCount = 0, allocBytes = 0, peakBytes = 0;
    for (const StepRecord& r : records) {
      ilpNodes += r.ilpNodes;
      ilpRefactorizations += r.ilpRefactorizations;
      exactNodes += r.exactNodes;
      lpRowsTotal += r.lpRows;
      lpColsTotal += r.lpColumns;
      ilpSeconds += r.ilpSeconds;
      exactSeconds += r.exactSeconds;
      allocCount += r.allocCount;
      allocBytes += r.allocBytes;
      peakBytes = std::max(peakBytes, r.peakBytes);
    }
    const auto num = [](double v) {
      char out[64];
      std::snprintf(out, sizeof(out), "%.10g", v);
      return std::string(out);
    };
    std::ostringstream json;
    json << "{\n  \"bench\": \"bench_exact_solvers\",\n"
         << "  \"schemaVersion\": 2,\n  \"allocTracking\": "
         << (util::allocTrackingEnabled() ? "true" : "false") << ",\n"
         << "  \"config\": {"
         << "\"traceJobs\": " << traceJobs << ", \"seed\": " << seed
         << ", \"steps\": " << steps << ", \"maxNodes\": " << maxNodes
         << ", \"timeLimitSeconds\": " << num(timeLimit) << "},\n"
         << "  \"host\": {\"cpus\": " << std::thread::hardware_concurrency()
         << ", \"compiler\": \"" << __VERSION__ << "\"},\n"
         << "  \"steps\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
      const StepRecord& r = records[i];
      json << (i > 0 ? "," : "") << "\n    {\"time\": " << r.time
           << ", \"jobs\": " << r.jobs
           << ", \"policySld\": " << num(r.policySld)
           << ", \"ilpSld\": " << num(r.ilpSld)
           << ", \"exactSld\": " << num(r.exactSld)
           << ", \"ilpNodes\": " << r.ilpNodes
           << ", \"ilpRefactorizations\": " << r.ilpRefactorizations
           << ", \"lpRows\": " << r.lpRows
           << ", \"lpColumns\": " << r.lpColumns
           << ", \"exactNodes\": " << r.exactNodes
           << ", \"exactOptimal\": " << (r.exactOptimal ? "true" : "false")
           << ", \"ilpSeconds\": " << num(r.ilpSeconds)
           << ", \"exactSeconds\": " << num(r.exactSeconds)
           << ", \"allocCount\": " << r.allocCount
           << ", \"allocBytes\": " << r.allocBytes
           << ", \"peakBytes\": " << r.peakBytes << "}";
    }
    json << "\n  ],\n  \"totals\": {"
         << "\"steps\": " << records.size()
         << ", \"ilpNodes\": " << ilpNodes
         << ", \"ilpRefactorizations\": " << ilpRefactorizations
         << ", \"exactNodes\": " << exactNodes
         << ", \"lpRows\": " << lpRowsTotal
         << ", \"lpColumns\": " << lpColsTotal
         << ", \"avgScaledLossPct\": "
         << num(rows > 0 ? sumScaled / static_cast<double>(rows) : 0)
         << ", \"avgTrueLossPct\": "
         << num(rows > 0 ? sumTrue / static_cast<double>(rows) : 0)
         << ", \"ilpSeconds\": " << num(ilpSeconds)
         << ", \"exactSeconds\": " << num(exactSeconds)
         << ", \"allocCount\": " << allocCount
         << ", \"allocBytes\": " << allocBytes
         << ", \"peakBytes\": " << peakBytes << "}\n}\n";
    try {
      util::atomicWriteFile(jsonPath, json.str());
    } catch (const util::JournalError& e) {
      std::fprintf(stderr, "cannot write %s: %s\n", jsonPath.c_str(),
                   e.what());
      return 1;
    }
    std::printf("json report: %s\n", jsonPath.c_str());
  }
  return 0;
}
