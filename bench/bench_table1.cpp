// Table 1 reproduction (paper Section 4).
//
// Pipeline: CTC-like trace -> discrete event simulation under self-tuning
// dynP, capturing a StepSnapshot at every self-tuning step -> a sample of
// steps spanning small to large waiting sets -> per step: Eq. 6 time scale,
// time-indexed ILP, branch & bound (warm-started with the best policy
// schedule), compaction -> quality / performance-loss (SLDwA) vs the best
// basic policy -> the paper's table plus its averages row.
//
// Absolute compute times are not comparable to the paper's 2004 UltraSPARC
// (and the default memory budget is reduced so the whole bench runs in
// minutes); the reproduced *shape* is: policy loss mostly within ~1%,
// occasionally negative (time-scaling), worst cases ~10%, and ILP compute
// time orders of magnitude above the <10 ms policy scheduling time.
//
//   ./bench_table1                        # fast defaults
//   ./bench_table1 --memory 8G --time-limit 600   # paper-scale Eq. 6 budget
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "dynsched/analysis/audit.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/study.hpp"
#include "dynsched/trace/synthetic.hpp"
#include "dynsched/util/flags.hpp"
#include "dynsched/util/strings.hpp"
#include "dynsched/util/table.hpp"
#include "dynsched/util/timer.hpp"

using namespace dynsched;

int main(int argc, char** argv) {
  util::FlagSet flags("bench_table1");
  auto& traceJobs = flags.addInt("trace-jobs", 1200, "simulated trace length");
  auto& seed = flags.addInt("seed", 2004, "workload seed");
  auto& rows = flags.addInt("rows", 12, "table rows (sampled steps)");
  auto& memory = flags.addString(
      "memory", "256M", "Eq. 6 memory budget (paper: 8G on the SUN server)");
  auto& timeLimit =
      flags.addDouble("time-limit", 30.0, "B&B time limit per step [s]");
  auto& maxNodes = flags.addInt("max-nodes", 200000, "B&B node limit");
  auto& threads = flags.addInt("threads", 2, "parallel step solves");
  auto& minWaiting = flags.addInt("min-waiting", 5, "smallest captured step");
  auto& maxWaiting = flags.addInt("max-waiting", 30, "largest captured step");
  auto& journal = flags.addString(
      "journal", "", "crash-safe run journal path (empty = in-memory only)");
  auto& resume = flags.addBool(
      "resume", false, "replay finished rows from --journal before solving");
  auto& reportPath = flags.addString(
      "report", "",
      "write the canonical (timing-free) study report to this path");
  if (!flags.parse(argc, argv)) return 0;
  if (resume && journal.empty()) {
    std::fprintf(stderr, "--resume requires --journal PATH\n");
    return 2;
  }

  // 1. Simulate the trace under self-tuning dynP, capturing every step.
  const auto swf = trace::ctcModel().generate(
      static_cast<std::size_t>(traceJobs), static_cast<std::uint64_t>(seed));
  sim::SimOptions simOptions;
  sim::SnapshotOptions* snaps = &simOptions.snapshots;  // alias
  simOptions.kind = sim::SchedulerKind::DynP;
  snaps->enabled = true;
  snaps->minWaiting = static_cast<std::size_t>(minWaiting);
  snaps->maxWaiting = static_cast<std::size_t>(maxWaiting);
  sim::RmsSimulator simulator(core::Machine{430}, simOptions);
  util::WallTimer simTimer;
  const sim::SimulationReport report = simulator.run(core::fromSwf(swf));
  std::printf(
      "simulated %zu jobs, %zu self-tuning steps (%zu captured with %lld-%lld "
      "waiting) in %s; policy scheduling averaged %.3f ms per step\n\n",
      report.completed.size(), report.dynpStats.steps,
      report.snapshots.size(), static_cast<long long>(minWaiting),
      static_cast<long long>(maxWaiting),
      util::formatDuration(simTimer.elapsedSeconds()).c_str(),
      report.dynpStats.steps > 0
          ? report.dynpStats.totalPlanningSeconds * 1e3 /
                static_cast<double>(report.dynpStats.steps)
          : 0.0);
  if (report.snapshots.empty()) {
    std::puts("no snapshots captured; increase --trace-jobs");
    return 1;
  }

  // 2. Sample `rows` steps spanning the size range (sorted by waiting-set
  //    size, evenly spaced), then solve them in submission order.
  std::vector<const sim::StepSnapshot*> sorted;
  for (const auto& s : report.snapshots) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(),
            [](const sim::StepSnapshot* a, const sim::StepSnapshot* b) {
              return a->waiting.size() < b->waiting.size();
            });
  std::vector<sim::StepSnapshot> selected;
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(rows), sorted.size());
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t idx = want > 1 ? i * (sorted.size() - 1) / (want - 1) : 0;
    selected.push_back(*sorted[idx]);
  }
  std::sort(selected.begin(), selected.end(),
            [](const sim::StepSnapshot& a, const sim::StepSnapshot& b) {
              return a.time < b.time;
            });

  // 3. The study: Eq. 6 scaling with the configured budget, SLDwA metric.
  tip::StudyOptions study;
  study.scaling.totalMemoryBytes =
      util::parseMemorySize(memory).value_or(256ULL << 20);
  study.mip.timeLimitSeconds = timeLimit;
  study.mip.maxNodes = maxNodes;
  study.metric = core::MetricKind::SldWA;
  study.journal.path = journal;
  study.journal.resume = resume;
  tip::StudyResumeInfo resumeInfo;
  std::vector<tip::StudyRow> table1;
  try {
    table1 = tip::runStudy(selected, study, static_cast<unsigned>(threads),
                           &resumeInfo);
  } catch (const analysis::AuditError& e) {
    std::fprintf(stderr, "journal error: %s\n", e.what());
    return 3;
  }
  if (!journal.empty()) {
    std::printf("journal '%s': %zu/%zu rows replayed, %zu solved this run\n",
                journal.c_str(), resumeInfo.replayedRows,
                resumeInfo.totalSteps, resumeInfo.solvedRows);
    if (resumeInfo.tailDropped) {
      std::printf("journal warning: %s\n", resumeInfo.tailWarning.c_str());
    }
  }
  if (resumeInfo.interrupted) {
    std::fprintf(stderr,
                 "interrupted after %zu rows; journal flushed — re-run with "
                 "--journal %s --resume to continue\n",
                 table1.size(), journal.c_str());
    return 130;  // 128 + SIGINT, the conventional interrupted exit
  }
  if (!reportPath.empty()) {
    util::atomicWriteFile(reportPath, tip::studyReportText(table1));
    std::printf("canonical report written to '%s'\n", reportPath.c_str());
  }

  // 4. Print the paper's table.
  util::TextTable table({"submission time", "jobs", "makespan [sec]",
                         "acc. run time [sec]", "time scale [min]", "quality",
                         "perf. loss", "comp. time", "status", "nodes"});
  char buf[64];
  for (const tip::StudyRow& row : table1) {
    std::vector<std::string> cells;
    cells.push_back(util::formatThousands(row.submissionTime));
    cells.push_back(std::to_string(row.jobs));
    cells.push_back(util::formatThousands(row.makespan));
    cells.push_back(util::formatThousands(row.accRuntime));
    std::snprintf(buf, sizeof(buf), "%.1f",
                  static_cast<double>(row.timeScale) / 60.0);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.4f", row.quality);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%+.2f%%", row.perfLossPct);
    cells.push_back(buf);
    cells.push_back(util::formatHms(row.solveSeconds));
    cells.push_back(mip::mipStatusName(row.status));
    cells.push_back(std::to_string(row.nodes));
    table.addRow(std::move(cells));
  }
  // Quality and loss average the rows with an ILP answer; a policy-fallback
  // row is left out and counted.
  const tip::StudyAverages avg = tip::averageRows(table1);
  const std::size_t fallbacks = avg.rungCounts[static_cast<std::size_t>(
      tip::solveRungIndex(tip::SolveRung::PolicyFallback))];
  const bool answered = fallbacks < avg.rows;
  const std::string leftOut =
      std::to_string(fallbacks) + " fallback row" +
      (fallbacks == 1 ? "" : "s") + " left out";
  table.addRule();
  {
    std::vector<std::string> cells;
    cells.push_back("averages");
    std::snprintf(buf, sizeof(buf), "%.1f", avg.jobs);
    cells.push_back(buf);
    cells.push_back(util::formatThousands(
        static_cast<std::int64_t>(avg.makespan)));
    cells.push_back(util::formatThousands(
        static_cast<std::int64_t>(avg.accRuntime)));
    std::snprintf(buf, sizeof(buf), "%.1f", avg.timeScale / 60.0);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.4f", avg.quality);
    cells.push_back(answered ? buf : "n/a");
    std::snprintf(buf, sizeof(buf), "%+.2f%%", avg.perfLossPct);
    cells.push_back(answered ? buf : "n/a");
    cells.push_back(util::formatHms(avg.solveSeconds));
    cells.push_back(fallbacks > 0 ? leftOut : "-");
    cells.push_back("-");
    table.addRow(std::move(cells));
  }
  std::cout << table.render();

  // 5. The paper's framing numbers.
  const double policyMs =
      report.dynpStats.steps > 0
          ? report.dynpStats.totalPlanningSeconds * 1e3 /
                static_cast<double>(report.dynpStats.steps)
          : 0.0;
  std::snprintf(buf, sizeof(buf), "%+.2f%%", avg.perfLossPct);
  const std::string loss = (answered ? buf : "n/a") +
                           (fallbacks > 0 ? " (" + leftOut + ")" : "");
  std::printf(
      "\npaper reference: avg perf. loss 0.7%% at 5 min avg scale, 22-job "
      "avg steps, >5 h avg CPLEX time vs <10 ms policy time\n"
      "this run:        avg perf. loss %s at %.1f min avg scale, "
      "%.1f-job avg steps, %s avg ILP time vs %.3f ms policy time "
      "(x%.0f slower)\n",
      loss.c_str(), avg.timeScale / 60.0, avg.jobs,
      util::formatDuration(avg.solveSeconds).c_str(), policyMs,
      policyMs > 0 ? avg.solveSeconds * 1e3 / policyMs : 0.0);
  return 0;
}
