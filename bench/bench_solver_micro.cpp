// Solver-substrate micro-benchmarks (google-benchmark): the simplex and the
// branch & bound on random LPs/MIPs and on real time-indexed instances.
// These quantify the "CPLEX substitute" itself, independent of the study.
#include <benchmark/benchmark.h>

#include "dynsched/lp/simplex.hpp"
#include "dynsched/mip/mip.hpp"
#include "dynsched/core/planner.hpp"
#include "dynsched/tip/tim_model.hpp"
#include "dynsched/trace/synthetic.hpp"
#include "dynsched/util/rng.hpp"

using namespace dynsched;

namespace {

lp::LpModel randomLp(int vars, int rows, std::uint64_t seed) {
  util::Rng rng(seed);
  lp::LpModel m;
  std::vector<double> point;
  for (int j = 0; j < vars; ++j) {
    const double lb = rng.uniform(-5, 0);
    const double ub = lb + rng.uniform(1, 10);
    m.addVariable(lb, ub, rng.uniform(-3, 3));
    point.push_back(rng.uniform(lb, ub));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> entries;
    double activity = 0;
    for (int j = 0; j < vars; ++j) {
      if (!rng.bernoulli(0.4)) continue;
      const double coef = rng.uniform(-2, 2);
      entries.emplace_back(j, coef);
      activity += coef * point[static_cast<std::size_t>(j)];
    }
    if (entries.empty()) continue;
    m.addRow(-lp::kInf, activity + rng.uniform(0, 2), entries);
  }
  return m;
}

void BM_SimplexRandomLp(benchmark::State& state) {
  const lp::LpModel m = randomLp(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(1)), 500);
  long iterations = 0;
  for (auto _ : state) {
    const lp::LpSolution s = lp::solveLp(m);
    benchmark::DoNotOptimize(s.objective);
    iterations = s.iterations;
  }
  state.counters["simplex_iters"] = static_cast<double>(iterations);
}
BENCHMARK(BM_SimplexRandomLp)
    ->Args({50, 20})
    ->Args({200, 50})
    ->Args({1000, 100})
    ->Args({2000, 200})
    ->Unit(benchmark::kMillisecond);

void BM_MipKnapsack(benchmark::State& state) {
  util::Rng rng(13);
  mip::MipModel m;
  std::vector<std::pair<int, double>> entries;
  const int items = static_cast<int>(state.range(0));
  for (int i = 0; i < items; ++i) {
    const int col = m.addIntegerVariable(0, 1, -rng.uniform(5, 50));
    entries.emplace_back(col, rng.uniform(4, 30));
  }
  m.lp.addRow(-lp::kInf, 4.0 * items, entries);
  for (auto _ : state) {
    const mip::MipResult r = mip::solveMip(m);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_MipKnapsack)->Arg(12)->Arg(20)->Arg(30)->Unit(
    benchmark::kMillisecond);

/// A realistic time-indexed instance from the CTC-like mixture.
tip::TipInstance timIndexedInstance(std::size_t jobs, Time scale,
                                    std::uint64_t seed) {
  tip::TipInstance inst;
  util::Rng rng(seed);
  std::vector<core::RunningJob> running;
  NodeCount busy = 0;
  while (busy < 250) {
    const NodeCount w = static_cast<NodeCount>(rng.uniformInt(8, 64));
    if (busy + w > 350) break;
    running.push_back(core::RunningJob{static_cast<JobId>(running.size() + 1),
                                       w, rng.uniformInt(600, 14400)});
    busy += w;
  }
  inst.history = core::MachineHistory::fromRunningJobs(core::Machine{430}, 0,
                                                       running);
  inst.jobs = core::fromSwf(trace::ctcModel().generate(jobs, seed + 1));
  for (auto& j : inst.jobs) j.submit = 0;
  inst.now = 0;
  Time horizon = 0;
  for (const core::PolicyKind policy : core::kAllPolicies) {
    horizon = std::max(
        horizon,
        core::planSchedule(inst.history, inst.jobs, policy, 0).makespan(0));
  }
  inst.horizon = horizon;
  inst.timeScale = scale;
  return inst;
}

void BM_TimeIndexedRootLp(benchmark::State& state) {
  const tip::TipInstance inst = timIndexedInstance(
      static_cast<std::size_t>(state.range(0)), state.range(1), 900);
  const tip::Grid grid = tip::makeGrid(inst);
  const tip::TipModel model = tip::buildModel(inst, grid);
  for (auto _ : state) {
    const lp::LpSolution s = lp::solveLp(model.mip.lp);
    benchmark::DoNotOptimize(s.objective);
  }
  state.counters["cols"] = model.mip.lp.numVariables();
  state.counters["rows"] = model.mip.lp.numRows();
}
BENCHMARK(BM_TimeIndexedRootLp)
    ->Args({8, 600})
    ->Args({12, 600})
    ->Args({12, 300})
    ->Unit(benchmark::kMillisecond);

void BM_TimeIndexedMip(benchmark::State& state) {
  const tip::TipInstance inst = timIndexedInstance(
      static_cast<std::size_t>(state.range(0)), state.range(1), 901);
  const tip::Grid grid = tip::makeGrid(inst);
  const tip::TipModel model = tip::buildModel(inst, grid);
  mip::MipOptions options;
  options.branchGroups = model.jobColumns;
  options.timeLimitSeconds = 30;
  for (auto _ : state) {
    const mip::MipResult r = mip::solveMip(model.mip, options);
    benchmark::DoNotOptimize(r.objective);
  }
  state.counters["cols"] = model.mip.lp.numVariables();
}
BENCHMARK(BM_TimeIndexedMip)
    ->Args({8, 600})
    ->Args({12, 600})
    ->Unit(benchmark::kMillisecond);

void BM_GroupBranchingAblation(benchmark::State& state) {
  // Single-binary branching vs SOS1 group branching on the same instance
  // (DESIGN.md ablation: why the solver branches on start-time windows).
  // Pick a seed whose root relaxation is fractional, so branching actually
  // happens; cover cuts are disabled to isolate the branching effect.
  tip::TipInstance inst = timIndexedInstance(10, 300, 907);
  const tip::Grid grid = tip::makeGrid(inst);
  const tip::TipModel model = tip::buildModel(inst, grid);
  mip::MipOptions options;
  options.timeLimitSeconds = 60;
  options.coverCutRounds = 0;
  if (state.range(0) == 1) options.branchGroups = model.jobColumns;
  long nodes = 0;
  for (auto _ : state) {
    const mip::MipResult r = mip::solveMip(model.mip, options);
    benchmark::DoNotOptimize(r.objective);
    nodes = r.nodes;
  }
  state.counters["bb_nodes"] = static_cast<double>(nodes);
  state.SetLabel(state.range(0) == 1 ? "group-branching"
                                     : "single-binary-branching");
}
BENCHMARK(BM_GroupBranchingAblation)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
