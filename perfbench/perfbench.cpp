// perfbench: the measuring half of dynsched's benchmark.
//
// run.py builds this program, runs one workload, and turns what it writes
// (raw samples, deterministic counters, correctness checks and, when traced,
// spans) into the reported metrics. Usage:
//
//   perfbench <study|dynp-sim|serve-mix> --seed N --seconds S --trace 0|1
//             --out result.json
//
// The program under test receives only inputs generated here from --seed.
// With --trace 1 every call the benchmark makes into a dynsched layer's
// public function is wrapped in a span (name, start, end, parent, group);
// spans stay in memory and are written with the result at exit. Spans come
// from this file only; nothing inside src/ is instrumented. README.md next
// to this file documents the workloads, the metrics and the output schema.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dynsched/analysis/schedule_validator.hpp"
#include "dynsched/core/dynp.hpp"
#include "dynsched/core/job.hpp"
#include "dynsched/core/metrics.hpp"
#include "dynsched/core/planner.hpp"
#include "dynsched/lp/simplex.hpp"
#include "dynsched/mip/mip.hpp"
#include "dynsched/serve/client.hpp"
#include "dynsched/serve/request.hpp"
#include "dynsched/serve/server.hpp"
#include "dynsched/serve/service.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/compaction.hpp"
#include "dynsched/tip/order_bnb.hpp"
#include "dynsched/tip/request_adapter.hpp"
#include "dynsched/tip/study.hpp"
#include "dynsched/tip/supervised.hpp"
#include "dynsched/tip/tim_model.hpp"
#include "dynsched/trace/synthetic.hpp"
#include "dynsched/util/budget.hpp"
#include "dynsched/util/journal.hpp"
#include "dynsched/util/rng.hpp"
#include "dynsched/util/timer.hpp"

using namespace dynsched;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double microsSinceStart(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

double millisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------------ spans

struct Span {
  std::string name;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::int64_t group = -1;   ///< shared by all spans of one step or request
  double startUs = 0;
  double endUs = 0;
};

/// In-memory span recorder. Off: begin() returns -1 and records nothing, so
/// the untraced passes pay one branch per call site. The parent of a span
/// is the innermost open span on the same thread.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  std::int64_t begin(const char* name, std::int64_t group) {
    if (!on_) return -1;
    std::vector<std::int64_t>& open = openSpans();
    Span span;
    span.name = name;
    span.parent = open.empty() ? -1 : open.back();
    span.group = group;
    std::int64_t id = 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      id = static_cast<std::int64_t>(spans_.size());
      spans_.push_back(std::move(span));
    }
    open.push_back(id);
    // Stamp the start last so the bookkeeping above is not inside the span.
    const double start = microsSinceStart(Clock::now());
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].startUs = start;
    return id;
  }

  void end(std::int64_t id) {
    if (id < 0) return;
    const double end = microsSinceStart(Clock::now());
    openSpans().pop_back();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].endUs = end;
  }

  std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  static std::vector<std::int64_t>& openSpans() {
    thread_local std::vector<std::int64_t> open;
    return open;
  }

  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opened on construction, closed on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t group = -1)
      : tracer_(tracer), id_(tracer.begin(name, group)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Runs `call` inside a span and returns its result.
template <typename F>
auto traced(Tracer& tracer, const char* name, std::int64_t group, F&& call) {
  const Scope scope(tracer, name, group);
  return call();
}

// ------------------------------------------------------------------- JSON

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A JSON object built field by field; values are rendered on insertion.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, jsonNumber(v));
  }
  JsonObject& count(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, jsonString(v));
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ",";
      out += jsonNumber(v[i]);
    }
    return raw(key, out + "]");
  }
  std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",\n";
      out += jsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ----------------------------------------------------------------- result

/// Everything one run reports to run.py.
struct Result {
  std::vector<double> setupSeconds;  ///< one sample per repeated set-up
  std::vector<double> opMs;          ///< latency of each timed operation
  double throughput = 0;             ///< units of work per second
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::pair<std::string, std::string>> failedChecks;
  long long checksRun = 0;
  JsonObject info;      ///< workload headline numbers (untraced)
  JsonObject counters;  ///< per-layer counters that are not span times
  JsonObject samples;   ///< extra sample arrays (wait, lag, ...)

  void check(const std::string& name, bool ok, const std::string& detail) {
    ++checksRun;
    if (!ok) failedChecks.emplace_back(name, detail);
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

analysis::ValidationReport validate(Tracer& tracer, std::int64_t group,
                                    const core::Schedule& schedule,
                                    const core::MachineHistory& history,
                                    Time now) {
  return traced(tracer, "analysis.validate", group, [&] {
    return analysis::ScheduleValidator().validate(schedule, history, now);
  });
}

// ------------------------------------------------------------------ study
//
// The pinned Table 1 scenario of BENCH_exact.json: a 700-job CTC-like trace
// at trace seed 44, three captured steps (5, 5 and 14 jobs), a 600-node B&B
// cap and no wall limit. The inputs do not depend on --seed, so runs are
// comparable; --seed only permutes the order in which the steps are solved,
// which must not change any result.

constexpr std::size_t kStudyTraceJobs = 700;
constexpr std::uint64_t kStudyTraceSeed = 44;
constexpr std::size_t kStudySteps = 3;
constexpr long kStudyMaxNodes = 600;
constexpr double kNoWallLimit = 1000000;
constexpr NodeCount kCtcNodes = 430;

std::vector<sim::StepSnapshot> captureStudySteps(Tracer& tracer) {
  const trace::SwfTrace swf = traced(tracer, "trace.generate", -1, [] {
    return trace::ctcModel().generate(kStudyTraceJobs, kStudyTraceSeed);
  });
  sim::SimOptions options;
  options.kind = sim::SchedulerKind::DynP;
  options.snapshots.enabled = true;
  options.snapshots.minWaiting = 5;
  options.snapshots.maxWaiting = 14;
  options.faults = util::FaultPlan{};
  sim::RmsSimulator simulator(core::Machine{kCtcNodes}, options);
  const std::vector<core::Job> jobs = core::fromSwf(swf);
  const sim::SimulationReport report = traced(
      tracer, "sim.run", -1, [&] { return simulator.run(jobs); });
  if (report.snapshots.size() < kStudySteps) {
    throw std::runtime_error("study: too few captured steps");
  }
  // Evenly spaced over the captured steps, as bench_exact_solvers does.
  std::vector<sim::StepSnapshot> steps;
  const std::size_t last = report.snapshots.size() - 1;
  for (std::size_t i = 0; i < kStudySteps; ++i) {
    steps.push_back(report.snapshots[i * last / (kStudySteps - 1)]);
  }
  return steps;
}

tip::StudyOptions studyOptions() {
  tip::StudyOptions options;
  options.scaling.totalMemoryBytes = 256ULL << 20;
  options.mip.timeLimitSeconds = kNoWallLimit;
  options.mip.maxNodes = kStudyMaxNodes;
  options.faults = util::FaultPlan{};  // never read DYNSCHED_FAULTS
  return options;
}

tip::OrderBnbOptions orderBnbOptions() {
  tip::OrderBnbOptions options;
  options.timeLimitSeconds = kNoWallLimit;
  options.maxNodes = kStudyMaxNodes;
  return options;
}

/// What the decomposed, traced pipeline produced for one step.
struct TracedStep {
  long nodes = 0;
  long tokenNodes = 0;
  long lpIterations = 0;
  long heuristicSolutions = 0;
  double gap = 0;
  long rootIterations = 0;
  long rootRefactorizations = 0;
  int lpRows = 0;
  int lpCols = 0;
  tip::SolveRung rung = tip::SolveRung::PolicyFallback;
  double ilpValue = 0;
  std::size_t violations = 0;
  double seconds = 0;
};

/// One step through the layers' public functions, one span per call. It
/// mirrors supervisedBestSchedule on the ladder's first two rungs
/// (supervised.cpp); a step that would descend further is handed to
/// supervisedBestSchedule itself.
TracedStep tracedStep(Tracer& tracer, const sim::StepSnapshot& snap,
                      const tip::SupervisedOptions& options,
                      std::int64_t group) {
  TracedStep out;
  const Clock::time_point start = Clock::now();
  const Scope step(tracer, "bench.step", group);
  const tip::TipInstance instance = traced(
      tracer, "tip.make_instance", group,
      [&] { return tip::makeInstance(snap, options); });
  std::optional<tip::Grid> grid;
  std::optional<tip::TipModel> model;
  {
    const Scope build(tracer, "tip.build_model", group);
    grid.emplace(tip::makeGrid(instance));
    model.emplace(tip::buildModel(instance, *grid));
  }
  out.lpRows = model->mip.lp.numRows();
  out.lpCols = model->mip.lp.numVariables();
  const lp::LpSolution root = traced(tracer, "lp.solve_root", group, [&] {
    return lp::solveLp(model->mip.lp);
  });
  out.rootIterations = root.iterations;
  out.rootRefactorizations = root.refactorizations;

  util::CancelToken token(options.budget, util::FaultPlan{});
  mip::MipOptions mipOptions = tip::makeMipOptions(
      *model, instance, *grid, options.mip,
      options.warmStart ? &snap.bestSchedule : nullptr);
  mipOptions.cancel = &token;
  const mip::MipResult solved = traced(tracer, "mip.solve", group, [&] {
    return mip::solveMip(model->mip, mipOptions);
  });
  out.nodes = solved.nodes;
  out.tokenNodes = token.nodes();
  out.lpIterations = solved.lpIterations;
  out.heuristicSolutions = solved.heuristicSolutions;
  out.gap = solved.hasSolution() ? solved.gap() : 0;

  core::Schedule schedule;
  bool placed = false;
  if (solved.hasSolution()) {
    schedule = traced(tracer, "tip.compaction", group, [&] {
      return tip::compactFromSlots(instance, model->startSlots(solved.x));
    });
    const analysis::ValidationReport report =
        validate(tracer, group, schedule, instance.history, instance.now);
    out.violations += report.violations.size();
    placed = report.ok();
    out.rung = solved.status == mip::MipStatus::Optimal
                   ? tip::SolveRung::Optimal
                   : tip::SolveRung::IncumbentGap;
  }
  if (!placed) {
    const tip::SupervisedResult ladder =
        traced(tracer, "tip.supervised", group, [&] {
          return tip::supervisedBestSchedule(snap, options, group);
        });
    schedule = ladder.schedule;
    out.rung = ladder.rung;
    out.nodes = ladder.nodes;
    out.tokenNodes = ladder.nodes;
    out.lpIterations = ladder.lpIterations;
    out.violations +=
        validate(tracer, group, schedule, instance.history, instance.now)
            .violations.size();
  }
  const core::MetricEvaluator evaluator(instance.now,
                                        instance.history.machineSize());
  out.ilpValue = traced(tracer, "core.evaluate", group, [&] {
    return evaluator.evaluate(schedule, options.metric);
  });
  out.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

/// Order B&B on a step's instance, with its schedule validated.
tip::OrderBnbResult tracedOrderBnb(Tracer& tracer,
                                   const sim::StepSnapshot& snap,
                                   const tip::SupervisedOptions& options,
                                   std::int64_t group,
                                   std::size_t& violations) {
  const Scope scope(tracer, "bench.order_bnb_step", group);
  const tip::TipInstance instance =
      traced(tracer, "tip.make_instance", group,
             [&] { return tip::makeInstance(snap, options); });
  tip::OrderBnbResult solved = traced(tracer, "tip.order_bnb", group, [&] {
    return tip::solveByOrderBnb(instance, orderBnbOptions());
  });
  violations += validate(tracer, group, solved.schedule, instance.history,
                         instance.now)
                    .violations.size();
  return solved;
}

/// Per-layer counters summed over the traced steps of a run.
struct LayerTotals {
  long steps = 0, nodes = 0, lpIterations = 0, heuristics = 0;
  long rootIterations = 0, rootRefactorizations = 0, rows = 0, cols = 0;
  long orderNodes = 0, orderOptimal = 0;
  std::size_t violations = 0;
  double gapSum = 0;
  std::array<long, tip::kSolveRungs> rungs{};

  void add(const TracedStep& step, const tip::OrderBnbResult& exact) {
    ++steps;
    nodes += step.nodes;
    lpIterations += step.lpIterations;
    heuristics += step.heuristicSolutions;
    rootIterations += step.rootIterations;
    rootRefactorizations += step.rootRefactorizations;
    rows += step.lpRows;
    cols += step.lpCols;
    gapSum += step.gap;
    violations += step.violations;
    ++rungs[static_cast<std::size_t>(tip::solveRungIndex(step.rung))];
    orderNodes += exact.nodes;
    orderOptimal += exact.optimal ? 1 : 0;
  }

  void write(JsonObject& counters) const {
    const double n = static_cast<double>(std::max(steps, 1L));
    counters.count("lp.root_iterations", rootIterations)
        .count("lp.root_refactorizations", rootRefactorizations)
        .count("lp.rows", rows)
        .count("lp.cols", cols)
        .count("mip.nodes", nodes)
        .count("mip.lp_iterations", lpIterations)
        .count("mip.heuristic_solutions", heuristics)
        .num("mip.gap", gapSum / n)
        .count("tip.rung.optimal", rungs[0])
        .count("tip.rung.incumbent_gap", rungs[1])
        .count("tip.rung.coarsened", rungs[2])
        .count("tip.rung.fallback", rungs[3])
        .count("tip.order_bnb_nodes", orderNodes)
        .num("tip.order_bnb_optimal_share",
             static_cast<double>(orderOptimal) / n)
        .count("analysis.violations", static_cast<long long>(violations));
  }
};

void runStudy(std::uint64_t seed, double seconds, bool trace,
              Tracer& tracer, Result& result) {
  Tracer off(false);
  std::vector<sim::StepSnapshot> steps;
  for (int i = 0; i < 5; ++i) {
    // Set-up is repeated so its median is steady; only the last one's
    // spans are recorded.
    const util::WallTimer setup;
    steps = captureStudySteps(i == 4 ? tracer : off);
    result.setupSeconds.push_back(setup.elapsedSeconds());
  }
  const tip::StudyOptions options = studyOptions();
  std::vector<std::size_t> order(steps.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));

  // Untraced: whole passes of the step set through tip::runStep until the
  // window is used up (at least one pass).
  std::vector<tip::StudyRow> rows(steps.size());
  std::vector<double> passSeconds;
  const util::WallTimer window;
  do {
    double pass = 0;
    const bool first = passSeconds.empty();
    for (const std::size_t idx : order) {
      const util::WallTimer timer;
      tip::StudyRow row =
          tip::runStep(steps[idx], options, static_cast<long>(idx));
      const double elapsed = timer.elapsedSeconds();
      pass += elapsed;
      result.opMs.push_back(elapsed * 1e3);
      ++result.attempted;
      if (first) {
        rows[idx] = std::move(row);
      } else {
        result.check("study.repeat_step" + std::to_string(idx),
                     row.nodes == rows[idx].nodes &&
                         row.rung == rows[idx].rung &&
                         row.ilpValue == rows[idx].ilpValue,
                     "a repeated pass changed a node-capped result");
      }
    }
    passSeconds.push_back(pass);
  } while (window.elapsedSeconds() < seconds);

  // Second-precision optimum by order B&B (untraced, outside the timing).
  std::vector<tip::OrderBnbResult> exact(steps.size());
  for (std::size_t idx = 0; idx < steps.size(); ++idx) {
    const tip::TipInstance instance = tip::makeInstance(steps[idx], options);
    exact[idx] = tip::solveByOrderBnb(instance, orderBnbOptions());
    ++result.attempted;
    const analysis::ValidationReport report = analysis::ScheduleValidator()
        .validate(exact[idx].schedule, instance.history, instance.now);
    result.check("study.order_bnb_valid" + std::to_string(idx), report.ok(),
                 report.toString());
  }

  // Totals in step order, as BENCH_exact.json sums them.
  long ilpNodes = 0, exactNodes = 0, optimal = 0;
  double sumLoss = 0, sumIlp = 0;
  for (std::size_t idx = 0; idx < steps.size(); ++idx) {
    const tip::StudyRow& row = rows[idx];
    ilpNodes += row.nodes;
    exactNodes += exact[idx].nodes;
    sumLoss += row.perfLossPct;
    sumIlp += row.ilpValue;
    optimal += row.rung == tip::SolveRung::Optimal ? 1 : 0;
  }
  const double n = static_cast<double>(steps.size());
  result.info.nums("study_s", passSeconds)
      .num("ilp_sldwa", sumIlp / n)
      .num("optimal_share", static_cast<double>(optimal) / n)
      .count("ilpNodes", ilpNodes)
      .count("exactNodes", exactNodes)
      .num("avgScaledLossPct", sumLoss / n);
  result.throughput = static_cast<double>(ilpNodes) / median(passSeconds);
  if (!trace) return;

  // Traced: the same steps through each layer's public function.
  LayerTotals totals;
  double tracedSeconds = 0;
  for (const std::size_t idx : order) {
    const auto group = static_cast<std::int64_t>(idx);
    const TracedStep step = tracedStep(tracer, steps[idx], options, group);
    const tip::OrderBnbResult solved = tracedOrderBnb(
        tracer, steps[idx], options, group, totals.violations);
    totals.add(step, solved);
    tracedSeconds += step.seconds;
    const tip::StudyRow& row = rows[idx];
    const std::string tag = std::to_string(idx);
    result.check("study.traced_nodes" + tag,
                 step.tokenNodes == row.nodes && step.lpRows == row.lpRows &&
                     step.lpCols == row.lpColumns,
                 "traced pipeline nodes " + std::to_string(step.tokenNodes) +
                     " vs runStep " + std::to_string(row.nodes));
    result.check("study.traced_rung" + tag, step.rung == row.rung,
                 std::string("traced rung ") + tip::solveRungName(step.rung) +
                     " vs runStep " + tip::solveRungName(row.rung));
    result.check("study.traced_sldwa" + tag, step.ilpValue == row.ilpValue,
                 "traced SLDwA " + jsonNumber(step.ilpValue) + " vs runStep " +
                     jsonNumber(row.ilpValue));
    result.check("study.traced_order_bnb" + tag,
                 solved.nodes == exact[idx].nodes &&
                     solved.objective == exact[idx].objective,
                 "traced order B&B differs from the untraced one");
  }
  result.check("study.violations", totals.violations == 0,
               std::to_string(totals.violations) + " schedule violations");
  totals.write(result.counters);
  result.counters.count("sim.snapshots", static_cast<long long>(steps.size()))
      .num("overhead.study_s", tracedSeconds - median(passSeconds));
}

// --------------------------------------------------------------- dynp-sim
//
// Self-tuning dynP over a long, dense CTC-like trace: arrivals are packed
// tighter than CTC's 369 s mean interarrival until the waiting set at a
// tuning step averages about 22 jobs, the paper's step size. Near
// saturation the queue of one long trace swings with its seed, so the trace
// is a chain of independent CTC-like segments. Each segment's arrival times
// are scaled so that it offers exactly kDynpLoad of the machine, and a
// pause after it lets the machine drain. The segments are a fixed pool, so
// every seed simulates the same work; the seed decides their order, and so
// the policy dynP carries from one segment into the next. The simulator
// captures every tuning step; each is then replayed through
// DynPScheduler::selfTuningStep. No LP or MIP code runs here.
//
// The shared host's speed swings by a fifth from one second to the next, so
// every unit of work (a segment's simulation, a step's replay) is repeated
// in rounds across the whole window and timed by its fastest round. The
// figures are then medians and tails over the inputs, not over the host's
// stalls.

constexpr std::size_t kDynpSegments = 40;
constexpr std::size_t kDynpSegmentJobs = 1000;
constexpr std::uint64_t kDynpPoolSeed = 1;  ///< seed of the segment pool
constexpr double kDynpLoad = 1.3;  ///< offered work / machine capacity
constexpr Time kDynpDrainPause = 3 * 86400;  ///< longer than any backlog
constexpr std::size_t kDynpTracedSteps = 10000;

bool sameJobs(const std::vector<core::Job>& a, const std::vector<core::Job>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const core::Job& x, const core::Job& y) {
                      return x.id == y.id && x.submit == y.submit &&
                             x.width == y.width && x.estimate == y.estimate &&
                             x.actualRuntime == y.actualRuntime;
                    });
}

std::vector<core::Job> dynpTrace(Tracer& tracer, std::uint64_t seed) {
  const Scope scope(tracer, "trace.generate");
  const trace::SyntheticModel model = trace::ctcModel();
  std::vector<std::uint64_t> order(kDynpSegments);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 shuffler(seed);
  std::shuffle(order.begin(), order.end(), shuffler);
  std::vector<core::Job> jobs;
  Time offset = 0;
  for (const std::uint64_t k : order) {
    std::vector<core::Job> segment = core::fromSwf(
        model.generate(kDynpSegmentJobs, kDynpPoolSeed * kDynpSegments + k));
    double work = 0;
    for (const core::Job& job : segment) {
      work += static_cast<double>(job.width) *
              static_cast<double>(job.actualRuntime);
    }
    const Time first = segment.front().submit;
    const double span = static_cast<double>(segment.back().submit - first);
    const double scale =
        work / (kDynpLoad * static_cast<double>(kCtcNodes)) /
        std::max(span, 1.0);
    for (core::Job job : segment) {
      job.id = static_cast<JobId>(jobs.size() + 1);
      job.submit = offset + static_cast<Time>(std::llround(
                                static_cast<double>(job.submit - first) *
                                scale));
      jobs.push_back(job);
    }
    offset = jobs.back().submit + kDynpDrainPause;
  }
  return jobs;
}

void runDynpSim(std::uint64_t seed, double seconds, bool trace,
                Tracer& tracer, Result& result) {
  Tracer off(false);
  const util::WallTimer setup;
  const std::vector<core::Job> jobs = dynpTrace(tracer, seed);
  result.setupSeconds.push_back(setup.elapsedSeconds());
  // The set-up is repeated after every round below, so that its median sees
  // the host of the whole window; each repetition must give the same trace.
  std::size_t regenerations = 0, differing = 0;
  const auto regenerate = [&] {
    const util::WallTimer timer;
    const std::vector<core::Job> again = dynpTrace(off, seed);
    result.setupSeconds.push_back(timer.elapsedSeconds());
    ++regenerations;
    if (!sameJobs(again, jobs)) ++differing;
  };

  // One simulation of the whole chain captures every tuning step.
  sim::SimOptions options;
  options.kind = sim::SchedulerKind::DynP;
  options.faults = util::FaultPlan{};
  sim::SimOptions capture = options;
  capture.snapshots.enabled = true;
  capture.snapshots.minWaiting = 1;
  capture.snapshots.maxWaiting = jobs.size();
  capture.snapshots.maxCount = jobs.size();
  sim::RmsSimulator capturing(core::Machine{kCtcNodes}, capture);
  const sim::SimulationReport report = capturing.run(jobs);
  const std::vector<sim::StepSnapshot>& steps = report.snapshots;
  if (steps.empty()) throw std::runtime_error("dynp-sim: no tuning steps");

  double waiting = 0;
  for (const sim::StepSnapshot& snap : steps) {
    waiting += static_cast<double>(snap.waiting.size());
  }
  waiting /= static_cast<double>(steps.size());

  // The segments are independent (the machine drains between them), so each
  // is simulated on its own, as a resource manager runs it (no capture).
  std::vector<std::vector<core::Job>> segments;
  for (std::size_t k = 0; k < kDynpSegments; ++k) {
    const auto first = jobs.begin() + static_cast<std::ptrdiff_t>(
                                          k * kDynpSegmentJobs);
    segments.emplace_back(first,
                          first + static_cast<std::ptrdiff_t>(kDynpSegmentJobs));
  }

  // Rounds until the window is used up (at least one): every segment is
  // simulated and every captured step replayed, each timed by its fastest
  // round. The first round checks every step: the replayed per-policy values
  // equal the ones the simulator captured, and the chosen schedule is valid.
  const core::Machine machine{kCtcNodes};
  std::vector<double> segmentSeconds(segments.size(),
                                     std::numeric_limits<double>::infinity());
  std::vector<double> stepUs(steps.size(),
                             std::numeric_limits<double>::infinity());
  std::size_t incomplete = 0, switches = 0, replayed = 0, mismatches = 0,
              invalid = 0;
  int rounds = 0;
  const util::WallTimer window;
  do {
    for (std::size_t k = 0; k < segments.size(); ++k) {
      sim::RmsSimulator simulator(machine, options);
      const util::WallTimer simTimer;
      const sim::SimulationReport segment = traced(
          rounds == 0 ? tracer : off, "sim.run", static_cast<std::int64_t>(k),
          [&] { return simulator.run(segments[k]); });
      segmentSeconds[k] = std::min(segmentSeconds[k], simTimer.elapsedSeconds());
      if (segment.completed.size() != segments[k].size() ||
          segment.degradedSteps != 0) {
        ++incomplete;
      }
    }

    core::DynPScheduler scheduler(machine, core::DynPConfig{});
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const sim::StepSnapshot& snap = steps[i];
      // A resource manager steps on a machine state and waiting set it has
      // just built; copying them first puts them in cache as they would be.
      const core::MachineHistory history = snap.history;
      const std::vector<core::Job> waiting = snap.waiting;
      const Clock::time_point start = Clock::now();
      const core::SelfTuningResult step =
          scheduler.selfTuningStep(history, waiting, snap.time);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      stepUs[i] = std::min(stepUs[i], us);
      ++result.attempted;
      if (rounds == 0) {
        if (step.values != snap.values) ++mismatches;
        if (!analysis::ScheduleValidator()
                 .validate(step.chosenSchedule(), snap.history, snap.time)
                 .ok()) {
          ++invalid;
        }
      }
    }
    if (rounds == 0) {
      switches = scheduler.stats().switches;
      replayed = scheduler.stats().steps;
    }
    ++rounds;
    regenerate();
  } while (window.elapsedSeconds() < seconds && !trace);
  result.check("dynp.sim_complete", incomplete == 0,
               std::to_string(incomplete) +
                   " segment simulations left jobs undone or degraded");
  result.check("dynp.replay_values", mismatches == 0,
               std::to_string(mismatches) +
                   " steps replayed to different policy values");
  result.check("dynp.replay_valid", invalid == 0,
               std::to_string(invalid) + " invalid chosen schedules");
  result.check("dynp.same_trace", differing == 0,
               std::to_string(differing) + " of " +
                   std::to_string(regenerations) +
                   " regenerated traces differ from the first");
  result.failed += static_cast<long long>(invalid);
  result.throughput =
      static_cast<double>(jobs.size()) /
      std::accumulate(segmentSeconds.begin(), segmentSeconds.end(), 0.0);
  for (const double us : stepUs) result.opMs.push_back(us / 1e3);

  result.info.num("sim_jobs_per_s", result.throughput)
      .nums("segment_s", segmentSeconds)
      .count("rounds", rounds);
  result.counters.count("sim.replans", static_cast<long long>(report.replans))
      .count("sim.tuning_steps", static_cast<long long>(report.tuningSteps))
      .count("sim.snapshots", static_cast<long long>(steps.size()))
      .num("core.waiting_mean", waiting)
      .num("core.switch_share", replayed > 0
                                    ? static_cast<double>(switches) /
                                          static_cast<double>(replayed)
                                    : 0.0);
  if (!trace) return;

  // Traced replay: the step itself, then each policy's plan and evaluation
  // through the planner and evaluator, one span per call.
  core::DynPScheduler scheduler(machine, core::DynPConfig{});
  std::vector<double> tracedUs;
  for (std::size_t i = 0; i < std::min(steps.size(), kDynpTracedSteps); ++i) {
    const sim::StepSnapshot& snap = steps[i];
    const auto group = static_cast<std::int64_t>(i);
    const Scope bench(tracer, "bench.dynp_step", group);
    const core::MachineHistory history = snap.history;  // as untraced
    const std::vector<core::Job> waiting = snap.waiting;
    const Clock::time_point start = Clock::now();
    const core::SelfTuningResult step =
        traced(tracer, "core.self_tuning_step", group, [&] {
          return scheduler.selfTuningStep(history, waiting, snap.time);
        });
    tracedUs.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
    const core::MetricEvaluator evaluator(snap.time,
                                          snap.history.machineSize());
    for (std::size_t p = 0; p < step.policies.size(); ++p) {
      const core::Schedule plan = traced(tracer, "core.plan", group, [&] {
        return core::planSchedule(snap.history, snap.waiting,
                                  step.policies[p], snap.time);
      });
      const double value = traced(tracer, "core.evaluate", group, [&] {
        return evaluator.evaluate(plan, core::MetricKind::SldWA);
      });
      if (value != step.values[p]) ++mismatches;
    }
  }
  result.check("dynp.traced_values", mismatches == 0,
               "planner values differ from the self-tuning step's");
  stepUs.resize(tracedUs.size());  // the same steps, untraced
  result.counters.num("overhead.policy_step_us",
                      median(tracedUs) - median(stepUs));
}

// -------------------------------------------------------------- serve-mix
//
// An in-process serve::Server on a Unix socket with the answer journal on,
// driven by an open-loop generator: request i is due at t0 + i / rate,
// whether or not earlier answers have arrived, and its latency is measured
// from that due time. Two client connections and two solve slots stay
// within a 4-CPU host. Most requests are unique, small and node-capped (the
// shape of bench_serve_throughput's generator); a fixed share repeats a
// request sent well before, so it normally replays the answer cache.

constexpr NodeCount kServeNodes = 32;
constexpr long kServeMaxNodes = 30;
constexpr Time kServeTimeScale = 60;
constexpr int kServeClients = 2;
constexpr std::size_t kServeSlots = 2;
constexpr double kServeRate = 150.0;         ///< main open-loop rate [1/s]
constexpr double kServeDupShare = 0.2;       ///< share of repeated requests
constexpr std::size_t kDupLookbackMin = 60;  ///< repeats reach this far back
constexpr std::size_t kDupLookbackMax = 150;
constexpr std::size_t kDirectWorkers = 4;  ///< threads of the direct solves
constexpr std::uint64_t kServePoolSeed = 7;  ///< seed of the instance pool
constexpr std::uint64_t kSaturationPool = 8000;  ///< instances; wraps around
constexpr double kCycleSeconds = 8;  ///< open-loop stretch plus one burst
constexpr double kOpenLoopShare = 0.85;  ///< of the window, for stretches
constexpr std::size_t kMinStretch = 1000;  ///< so a p99 has 10 beyond it
constexpr std::size_t kBurstRequests = 1000;  ///< closed-loop requests
constexpr const char* kSocket = "serve.sock";
constexpr const char* kJournal = "serve.journal";

/// The index-th unique request of the seeded stream: an optional free
/// resource staircase plus 3-5 short jobs on a 32-node machine.
serve::ScheduleRequest makeRequest(std::uint64_t seed, std::uint64_t index) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  serve::ScheduleRequest request;
  request.clientRequestId = index;
  request.machine = core::Machine{kServeNodes};
  request.now = static_cast<Time>(1000 * (index + 1));
  request.metric = core::MetricKind::SldWA;
  request.maxNodes = kServeMaxNodes;
  if (rng.uniform() < 0.5) {
    const int steps = static_cast<int>(rng.uniformInt(1, 3));
    Time when = request.now;
    auto freeNodes =
        static_cast<NodeCount>(rng.uniformInt(1, kServeNodes - 1));
    for (int s = 0; s < steps; ++s) {
      request.history.push_back(core::MachineHistory::Entry{when, freeNodes});
      when += static_cast<Time>(rng.uniformInt(60, 600));
      freeNodes =
          static_cast<NodeCount>(rng.uniformInt(freeNodes, kServeNodes));
    }
    request.history.push_back(core::MachineHistory::Entry{when, kServeNodes});
  }
  const int jobCount = static_cast<int>(rng.uniformInt(3, 4));
  for (int j = 0; j < jobCount; ++j) {
    core::Job job;
    job.id = static_cast<JobId>(index * 1000 + static_cast<std::uint64_t>(j));
    job.submit = request.now - static_cast<Time>(rng.uniformInt(0, 300));
    job.width = static_cast<NodeCount>(rng.uniformInt(1, kServeNodes));
    job.estimate = static_cast<Time>(rng.uniformInt(120, 360));
    job.actualRuntime = static_cast<Time>(rng.uniformInt(60, job.estimate));
    request.jobs.push_back(job);
  }
  return request;
}

serve::ServiceOptions serviceOptions() {
  serve::ServiceOptions options;
  options.maxConcurrent = kServeSlots;
  options.maxQueueDepth = 8;
  options.cacheCapacity = 1 << 16;
  options.solve.forcedTimeScale = kServeTimeScale;
  options.faults = util::FaultPlan{};
  return options;
}

/// One request as the client saw it.
struct Sent {
  std::size_t index = 0;         ///< position in the stream
  double dueMs = 0;              ///< relative to the phase start
  double sendMs = 0;
  double doneMs = 0;
  bool ok = false;
  bool cached = false;
  bool traced = false;           ///< sent with tracing on
  double serverSeconds = 0;      ///< the response's solve seconds
  std::string canonical;         ///< canonicalResponseText of an Ok answer
  serve::ScheduleResponse response;
};

serve::Client makeClient(int id) {
  serve::ClientOptions options;
  options.unixPath = kSocket;
  options.timeoutMs = 30000;
  options.retry.maxAttempts = 1;  // a shed request counts as failed
  options.rngSeed = static_cast<std::uint64_t>(id) + 1;
  return serve::Client(options);
}

void sendOne(serve::Client& client, const serve::ScheduleRequest& request,
             Sent& sent, Clock::time_point t0) {
  sent.sendMs = millisBetween(t0, Clock::now());
  try {
    sent.response = client.schedule(request);
    sent.ok = sent.response.status == serve::ResponseStatus::Ok;
    sent.cached = sent.response.cached;
    sent.serverSeconds = sent.response.seconds;
    if (sent.ok) sent.canonical = serve::canonicalResponseText(sent.response);
  } catch (const std::exception&) {
    sent.ok = false;
  }
  sent.doneMs = millisBetween(t0, Clock::now());
}

/// Open loop: request k of `stream` is due at t0 + k / rate. Each client
/// thread takes the next request in due order and sends it at its due time
/// or, when the thread was busy, as soon as it is free.
std::vector<Sent> openLoop(const std::vector<serve::ScheduleRequest>& stream,
                           std::size_t first, std::size_t count,
                           double rate, Tracer& tracer) {
  std::vector<Sent> sent(count);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client = makeClient(c);
      for (std::size_t k = next++; k < count; k = next++) {
        Sent& s = sent[k];
        s.index = first + k;
        s.traced = tracer.on();
        s.dueMs = 1e3 * static_cast<double>(k) / rate;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(s.dueMs)));
        const Scope scope(tracer, "bench.client_request",
                          static_cast<std::int64_t>(s.index));
        sendOne(client, stream[s.index], s, t0);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return sent;
}

/// Closed loop: every client sends the next of requests first .. first +
/// count - 1 of `pool` (wrapping around) as soon as its previous answer
/// arrives. Returns the answers and the seconds until the last arrived.
std::pair<std::vector<Sent>, double> closedLoop(
    const std::vector<serve::ScheduleRequest>& pool, std::size_t first,
    std::size_t count) {
  std::vector<Sent> sent(count);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client = makeClient(c);
      for (std::size_t k = next++; k < count; k = next++) {
        Sent& s = sent[k];
        s.index = (first + k) % pool.size();
        s.dueMs = millisBetween(t0, Clock::now());
        sendOne(client, pool[s.index], s, t0);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return {std::move(sent), millisBetween(t0, Clock::now()) / 1e3};
}

/// The schedule of a served answer, re-attached to the request's jobs.
std::optional<core::Schedule> servedSchedule(
    const serve::ScheduleRequest& request,
    const serve::ScheduleResponse& response) {
  core::Schedule schedule;
  for (const serve::PlacedJob& placed : response.schedule) {
    const auto job = std::find_if(
        request.jobs.begin(), request.jobs.end(),
        [&](const core::Job& j) { return j.id == placed.id; });
    if (job == request.jobs.end()) return std::nullopt;
    schedule.add(*job, placed.start, placed.duration);
  }
  return schedule;
}

core::MachineHistory requestHistory(const serve::ScheduleRequest& request) {
  return request.history.empty()
             ? core::MachineHistory::empty(request.machine, request.now)
             : core::MachineHistory::fromEntries(request.history);
}

void runServeMix(std::uint64_t seed, double seconds, bool trace,
                 Tracer& tracer, Result& result) {
  namespace fs = std::filesystem;
  Tracer off(false);
  // The window is split into cycles of about kCycleSeconds. Each cycle sets
  // up a fresh server, sends it the same open-loop stretch at the main rate,
  // then a closed-loop burst, and stops it. Every request of the stretch is
  // thus timed once per cycle, and both kinds of measurement see the host of
  // the whole window.
  const auto cycles = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kCycleSeconds)));
  const auto stretch = std::max<std::size_t>(
      kMinStretch, static_cast<std::size_t>(std::llround(
                       kServeRate * kOpenLoopShare * seconds /
                       static_cast<double>(cycles))));

  // The stretch. Its unique instances are the first ones of a fixed pool,
  // so every seed asks for the same solves; the seed decides their order,
  // which positions repeat an earlier request (same instance, new client
  // id), and which request each repeats.
  std::mt19937_64 shuffler(seed);
  const auto repeatCount = static_cast<std::size_t>(
      std::llround(kServeDupShare * static_cast<double>(stretch)));
  std::vector<std::size_t> positions(stretch - kDupLookbackMax);
  std::iota(positions.begin(), positions.end(), kDupLookbackMax);
  std::shuffle(positions.begin(), positions.end(), shuffler);
  std::vector<bool> repeats(stretch, false);
  for (std::size_t k = 0; k < repeatCount; ++k) repeats[positions[k]] = true;
  std::vector<std::uint64_t> order(stretch - repeatCount);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), shuffler);
  std::vector<serve::ScheduleRequest> stream;
  util::Rng dupRng(seed);
  for (std::size_t i = 0, next = 0; i < stretch; ++i) {
    if (repeats[i]) {
      const auto back = static_cast<std::size_t>(dupRng.uniformInt(
          kDupLookbackMin, kDupLookbackMax));
      serve::ScheduleRequest repeat = stream[i - back];
      repeat.clientRequestId = i;
      stream.push_back(std::move(repeat));
    } else {
      stream.push_back(makeRequest(kServePoolSeed, order[next++]));
    }
  }
  // The bursts draw from the pool's next instances, shuffled.
  std::vector<serve::ScheduleRequest> saturationPool;
  for (std::uint64_t k = 0; k < kSaturationPool; ++k) {
    saturationPool.push_back(makeRequest(kServePoolSeed, order.size() + k));
  }
  std::shuffle(saturationPool.begin(), saturationPool.end(), shuffler);
  const serve::ScheduleRequest warmUp = makeRequest(kServePoolSeed ^ 0x77, 0);

  std::vector<Sent> sent, saturated;
  std::vector<double> burstRates;
  serve::HealthStats health;  // summed over the cycles' servers
  long long dupSolves = 0, journalBytes = 0;
  std::size_t journalMismatch = 0;
  for (std::size_t c = 0; c < cycles; ++c) {
    // Set-up: bind, open a fresh journal, answer one warm-up request.
    fs::remove(kSocket);
    fs::remove(kJournal);
    const util::WallTimer setup;
    serve::ServerOptions options;
    options.unixPath = kSocket;
    options.ioThreads = kServeClients + 1;
    options.pollIntervalMs = 20;
    options.service = serviceOptions();
    options.service.journal.path = kJournal;
    serve::Server server(options);
    std::thread runner([&server] { server.run(); });
    try {
      serve::Client client = makeClient(99);
      const serve::ScheduleResponse first = client.schedule(warmUp);
      result.setupSeconds.push_back(setup.elapsedSeconds());
      result.check("serve.warm_up", first.status == serve::ResponseStatus::Ok,
                   first.message);

      // The stretch, open loop. Traced runs trace its second half only, so
      // the first half is the untraced reference for the overhead.
      const std::size_t split = trace ? stretch / 2 : stretch;
      for (Sent& s : openLoop(stream, 0, split, kServeRate, off)) {
        sent.push_back(std::move(s));
      }
      if (split < stretch) {
        for (Sent& s :
             openLoop(stream, split, stretch - split, kServeRate, tracer)) {
          sent.push_back(std::move(s));
        }
      }
      // The burst: fresh unique requests, closed loop.
      auto [burst, burstSeconds] =
          closedLoop(saturationPool, c * kBurstRequests, kBurstRequests);
      std::size_t ok = 0;
      std::set<std::uint64_t> fingerprints{serve::requestFingerprint(warmUp)};
      for (const serve::ScheduleRequest& request : stream) {
        fingerprints.insert(serve::requestFingerprint(request));
      }
      for (Sent& s : burst) {
        ok += s.ok ? 1 : 0;
        fingerprints.insert(
            serve::requestFingerprint(saturationPool[s.index]));
        saturated.push_back(std::move(s));
      }
      burstRates.push_back(static_cast<double>(ok) / burstSeconds);

      const serve::HealthStats h = server.service().health();
      health.accepted += h.accepted;
      health.completed += h.completed;
      health.cacheHits += h.cacheHits;
      health.shed += h.shed;
      health.errors += h.errors;
      dupSolves += static_cast<long long>(h.accepted) -
                   static_cast<long long>(fingerprints.size());
      server.stop();
      runner.join();

      // The journal holds one answer record per admitted solve.
      const util::JournalReadResult journal = traced(
          tracer, "util.read_journal", -1,
          [] { return util::readJournal(kJournal); });
      std::uint64_t answers = 0;
      for (const util::JournalRecord& record : journal.records) {
        answers += record.type == serve::kServeAnswerRecord ? 1 : 0;
      }
      if (answers != h.completed - h.cacheHits) ++journalMismatch;
      std::error_code ec;
      const auto bytes = fs::file_size(kJournal, ec);
      journalBytes += ec ? 0 : static_cast<long long>(bytes);
    } catch (...) {
      server.stop();
      if (runner.joinable()) runner.join();
      throw;
    }
  }
  result.check("serve.journal_answers", journalMismatch == 0,
               std::to_string(journalMismatch) + " of " +
                   std::to_string(cycles) +
                   " journals hold another count of answers than solves");

  // Raw open-loop samples, cycle by cycle in stream order; run.py derives
  // latency from the due time, the generator lag, the wait and the on-time
  // share from them.
  std::vector<double> dueMs, sendMs, doneMs, solveMs, okFlags, tracedFlags;
  for (const Sent& s : sent) {
    dueMs.push_back(s.dueMs);
    sendMs.push_back(s.sendMs);
    doneMs.push_back(s.doneMs);
    // The response's seconds are the original solve's, also on a replay.
    solveMs.push_back(s.ok && !s.cached ? 1e3 * s.serverSeconds : -1.0);
    okFlags.push_back(s.ok ? 1.0 : 0.0);
    tracedFlags.push_back(s.traced ? 1.0 : 0.0);
  }
  // Saturation throughput: the fastest burst's answer rate, the burst the
  // shared host slowed least.
  std::size_t saturatedOk = 0;
  for (const Sent& s : saturated) saturatedOk += s.ok ? 1 : 0;
  result.throughput = *std::max_element(burstRates.begin(), burstRates.end());
  result.attempted = static_cast<long long>(saturated.size());
  result.failed = static_cast<long long>(saturated.size() - saturatedOk);

  // Every Ok answer: a valid schedule, and one canonical text per
  // fingerprint.
  std::map<std::uint64_t, const serve::ScheduleRequest*> uniqueRequests;
  std::map<std::uint64_t, std::string> servedText;
  std::size_t invalid = 0, textMismatch = 0;
  uniqueRequests[serve::requestFingerprint(warmUp)] = &warmUp;
  const auto inspect = [&](const Sent& s,
                           const serve::ScheduleRequest& request) {
    const std::uint64_t fp = serve::requestFingerprint(request);
    uniqueRequests.emplace(fp, &request);
    if (!s.ok) return;
    const auto [it, fresh] = servedText.emplace(fp, s.canonical);
    if (!fresh && it->second != s.canonical) ++textMismatch;
    const std::optional<core::Schedule> schedule =
        servedSchedule(request, s.response);
    if (!schedule || !analysis::ScheduleValidator()
                          .validate(*schedule, requestHistory(request),
                                    request.now)
                          .ok()) {
      ++invalid;
    }
  };
  for (const Sent& s : sent) inspect(s, stream[s.index]);
  for (const Sent& s : saturated) inspect(s, saturationPool[s.index]);
  result.check("serve.valid_answers", invalid == 0,
               std::to_string(invalid) + " served schedules failed validation");
  result.check("serve.consistent_answers", textMismatch == 0,
               std::to_string(textMismatch) +
                   " fingerprints answered with different texts");

  // Direct solves of every unique request on a fresh in-process service:
  // the served canonical text must equal the direct one.
  serve::ServiceOptions directOptions = serviceOptions();
  directOptions.maxConcurrent = kDirectWorkers;  // no slot waits
  serve::SchedulerService direct(directOptions);
  std::vector<const serve::ScheduleRequest*> work;
  for (const auto& [fp, request] : uniqueRequests) work.push_back(request);
  std::atomic<std::size_t> nextWork{0};
  std::atomic<std::size_t> directMismatch{0}, hitMismatch{0}, codecErrors{0};
  std::mutex totalsMu;
  LayerTotals totals;  // guarded by totalsMu
  std::size_t layerMismatch = 0;  // guarded by totalsMu
  std::vector<std::thread> workers;
  const std::uint64_t splitLimit = 200;  // pool instances split by layer
  for (std::size_t w = 0; w < kDirectWorkers; ++w) {
    workers.emplace_back([&] {
      for (std::size_t k = nextWork++; k < work.size(); k = nextWork++) {
        const serve::ScheduleRequest& request = *work[k];
        const auto group = static_cast<std::int64_t>(request.clientRequestId);
        const Scope bench(tracer, "bench.direct_request", group);
        const serve::ScheduleRequest decoded =
            traced(tracer, "serve.codec", group, [&] {
              return serve::decodeScheduleRequest(
                  serve::encodeScheduleRequest(request));
            });
        const std::uint64_t fp = traced(tracer, "serve.fingerprint", group,
                                        [&] {
                                          return serve::requestFingerprint(
                                              decoded);
                                        });
        if (fp != serve::requestFingerprint(request)) ++codecErrors;
        const serve::ScheduleResponse solved =
            traced(tracer, "serve.handle_solve", group,
                   [&] { return direct.handle(decoded); });
        const serve::ScheduleResponse replayed =
            traced(tracer, "serve.handle_hit", group,
                   [&] { return direct.handle(decoded); });
        const std::string text = serve::canonicalResponseText(solved);
        const auto served = servedText.find(fp);
        if (served != servedText.end() && served->second != text) {
          ++directMismatch;
        }
        if (!replayed.cached ||
            serve::canonicalResponseText(replayed) != text) {
          ++hitMismatch;
        }
        // Pool instances 0..splitLimit-1 are in every run's stream, so every
        // run splits the same requests and the counters repeat exactly.
        if (!trace || &request == &warmUp ||
            request.clientRequestId >= splitLimit) {
          continue;
        }
        // The solve path split into its two tip calls.
        sim::StepSnapshot snap;
        tip::SupervisedResult ladder;
        tip::SupervisedOptions options = direct.options().solve;
        options.metric = request.metric;
        options.budget.maxNodes = request.maxNodes;
        {
          const Scope solve(tracer, "serve.solve", group);
          snap = traced(tracer, "tip.request_snapshot", group, [&] {
            return tip::makeRequestSnapshot(requestHistory(request),
                                            request.jobs, request.now,
                                            request.metric);
          });
          ladder = traced(tracer, "tip.supervised", group, [&] {
            return tip::supervisedBestSchedule(snap, options, 0);
          });
        }
        std::size_t found =
            validate(tracer, group, ladder.schedule, snap.history, snap.time)
                .violations.size();
        // The same solve once more, one span per layer call, and order B&B
        // on the same instance.
        const TracedStep step = tracedStep(tracer, snap, options, group);
        const tip::OrderBnbResult exact =
            tracedOrderBnb(tracer, snap, options, group, found);
        const double ladderValue =
            core::MetricEvaluator(snap.time, snap.history.machineSize())
                .evaluate(ladder.schedule, options.metric);
        const std::lock_guard<std::mutex> lock(totalsMu);
        totals.add(step, exact);
        totals.violations += found;
        if (step.tokenNodes != ladder.nodes || step.rung != ladder.rung ||
            step.ilpValue != ladderValue) {
          ++layerMismatch;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  result.check("serve.traced_pipeline", layerMismatch == 0,
               std::to_string(layerMismatch) +
                   " traced solves differ from supervisedBestSchedule");
  result.check("serve.direct_equal", directMismatch == 0,
               std::to_string(directMismatch.load()) +
                   " served answers differ from a direct solve");
  result.check("serve.direct_hit", hitMismatch == 0,
               "a direct cache replay differs from its solve");
  result.check("serve.codec_roundtrip", codecErrors == 0,
               "encode/decode changed a request fingerprint");
  result.check("serve.health_errors", health.errors == 0 && health.shed == 0,
               std::to_string(health.errors) + " errors, " +
                   std::to_string(health.shed) + " shed");

  result.samples.nums("due_ms", dueMs)
      .nums("send_ms", sendMs)
      .nums("done_ms", doneMs)
      .nums("solve_ms", solveMs)
      .nums("ok", okFlags)
      .nums("traced", tracedFlags);
  result.info.num("rate", kServeRate)
      .count("cycles", static_cast<long long>(cycles))
      .count("stretch", static_cast<long long>(stretch))
      .nums("burst_rates", burstRates)
      .count("burst_requests", static_cast<long long>(kBurstRequests));
  result.counters
      .count("serve.accepted", static_cast<long long>(health.accepted))
      .count("serve.cache_hits", static_cast<long long>(health.cacheHits))
      .count("serve.dup_solves", dupSolves)
      .count("serve.shed", static_cast<long long>(health.shed))
      .count("serve.journal_bytes", journalBytes);
  totals.violations += invalid;
  totals.write(result.counters);
  result.check("serve.violations", totals.violations == 0,
               std::to_string(totals.violations) + " schedule violations");
  fs::remove(kJournal);
}

// ------------------------------------------------------------------- main

std::string spansJson(const std::vector<Span>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n";
    out += "[" + jsonString(s.name) + "," + std::to_string(s.parent) + "," +
           std::to_string(s.group) + "," + jsonNumber(s.startUs) + "," +
           jsonNumber(s.endUs) + "]";
  }
  return out + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <study|dynp-sim|serve-mix> --seed N "
               "--seconds S --trace 0|1 --out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--out") {
      out = value;
    } else {
      return usage();
    }
  }
  if (out.empty()) return usage();

  Tracer tracer(trace);
  Result result;
  try {
    if (workload == "study") {
      runStudy(seed, seconds, trace, tracer, result);
    } else if (workload == "dynp-sim") {
      runDynpSim(seed, seconds, trace, tracer, result);
    } else if (workload == "serve-mix") {
      runServeMix(seed, seconds, trace, tracer, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  std::string failed = "[";
  for (std::size_t i = 0; i < result.failedChecks.size(); ++i) {
    const auto& [name, detail] = result.failedChecks[i];
    failed += (i > 0 ? ", " : "") + std::string("[") + jsonString(name) +
              ", " + jsonString(detail) + "]";
  }
  JsonObject doc;
  doc.str("workload", workload)
      .count("seed", static_cast<long long>(seed))
      .flag("trace", trace)
      .raw("build", JsonObject()
                        .str("type", PERFBENCH_BUILD_TYPE)
                        .flag("audit", PERFBENCH_AUDIT != 0)
                        .render())
      .nums("setup_s", result.setupSeconds)
      .num("peak_rss_kb", peakRssKb())
      .nums("op_ms", result.opMs)
      .num("throughput", result.throughput)
      .count("attempted", result.attempted)
      .count("failed", result.failed)
      .count("checks_run", result.checksRun)
      .raw("failed_checks", failed + "]")
      .raw("info", result.info.render())
      .raw("counters", result.counters.render())
      .raw("samples", result.samples.render())
      .raw("spans", spansJson(tracer.spans()));
  std::ofstream file(out);
  file << doc.render() << "\n";
  if (!file) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
