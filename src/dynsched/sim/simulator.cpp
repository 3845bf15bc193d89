#include "dynsched/sim/simulator.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "dynsched/analysis/audit.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/logging.hpp"
#include "dynsched/util/signals.hpp"
#include "dynsched/util/timer.hpp"

namespace dynsched::sim {

namespace {

struct RunningEntry {
  core::Job job;
  Time start;
  Time actualEnd;
  Time estimatedEnd;
};

struct ActualEndLater {
  bool operator()(const RunningEntry& a, const RunningEntry& b) const {
    // Min-heap on (actualEnd, id); the id tiebreak makes completion order
    // deterministic when several jobs end in the same second.
    if (a.actualEnd != b.actualEnd) return a.actualEnd > b.actualEnd;
    return a.job.id > b.job.id;
  }
};

// The running set is a binary heap in a plain vector (std::push_heap /
// std::pop_heap, as std::priority_queue does it), so that replans can read
// it in place. front() is the next job to end.
void pushRunning(std::vector<RunningEntry>& running, RunningEntry entry) {
  running.push_back(std::move(entry));
  std::push_heap(running.begin(), running.end(), ActualEndLater{});
}

RunningEntry popRunning(std::vector<RunningEntry>& running) {
  std::pop_heap(running.begin(), running.end(), ActualEndLater{});
  RunningEntry entry = std::move(running.back());
  running.pop_back();
  return entry;
}

struct WaitingEntry {
  core::Job job;
  Time plannedStart = kNoTime;
};

// ---------------------------------------------------------------------------
// Journal (de)serialization. The checkpoint record carries the *entire*
// mutable state of the event loop — everything the deterministic simulation
// needs to continue exactly where a dead process stopped. MachineHistory
// never appears except inside captured snapshots: the loop rebuilds it from
// the running set on every replan.

void putJob(util::PayloadWriter& w, const core::Job& job) {
  w.i64(job.id);
  w.i64(job.submit);
  w.u32(static_cast<std::uint32_t>(job.width));
  w.i64(job.estimate);
  w.i64(job.actualRuntime);
}

core::Job takeJob(util::PayloadReader& r) {
  core::Job job;
  job.id = r.i64();
  job.submit = r.i64();
  job.width = static_cast<NodeCount>(r.u32());
  job.estimate = r.i64();
  job.actualRuntime = r.i64();
  return job;
}

core::PolicyKind takePolicy(util::PayloadReader& r) {
  const std::uint8_t byte = r.u8();
  core::PolicyKind policy;
  DYNSCHED_CHECK_MSG(core::policyFromIndex(byte, policy),
                     "sim checkpoint: bad policy byte "
                         << static_cast<int>(byte));
  return policy;
}

void putSnapshot(util::PayloadWriter& w, const StepSnapshot& snap) {
  w.i64(snap.time);
  const auto& entries = snap.history.entries();
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const core::MachineHistory::Entry& e : entries) {
    w.i64(e.time);
    w.u32(static_cast<std::uint32_t>(e.freeNodes));
  }
  w.u32(static_cast<std::uint32_t>(snap.waiting.size()));
  for (const core::Job& job : snap.waiting) putJob(w, job);
  w.u32(static_cast<std::uint32_t>(snap.values.size()));
  for (double v : snap.values) w.f64(v);
  w.u8(static_cast<std::uint8_t>(snap.bestPolicy));
  w.f64(snap.bestValue);
  w.i64(snap.maxPolicyMakespan);
  w.u32(static_cast<std::uint32_t>(snap.bestSchedule.size()));
  for (const core::ScheduledJob& s : snap.bestSchedule.entries()) {
    putJob(w, s.job);
    w.i64(s.start);
    w.i64(s.duration);
  }
}

StepSnapshot takeSnapshot(util::PayloadReader& r) {
  StepSnapshot snap;
  snap.time = r.i64();
  std::vector<core::MachineHistory::Entry> entries(r.u32());
  for (auto& e : entries) {
    e.time = r.i64();
    e.freeNodes = static_cast<NodeCount>(r.u32());
  }
  snap.history = core::MachineHistory::fromEntries(std::move(entries));
  snap.waiting.resize(r.u32());
  for (core::Job& job : snap.waiting) job = takeJob(r);
  snap.values.resize(r.u32());
  for (double& v : snap.values) v = r.f64();
  snap.bestPolicy = takePolicy(r);
  snap.bestValue = r.f64();
  snap.maxPolicyMakespan = r.i64();
  const std::uint32_t scheduled = r.u32();
  snap.bestSchedule.reserve(scheduled);
  for (std::uint32_t i = 0; i < scheduled; ++i) {
    const core::Job job = takeJob(r);
    const Time start = r.i64();
    const Time duration = r.i64();
    snap.bestSchedule.add(job, start, duration);
  }
  return snap;
}

/// Deterministic fingerprint binding a simulator journal to its run: the
/// machine, every option that influences the event sequence, and the trace.
std::uint64_t simFingerprint(const core::Machine& machine,
                             const SimOptions& options,
                             const std::vector<core::Job>& trace) {
  util::PayloadWriter w;
  w.u32(static_cast<std::uint32_t>(machine.nodes));
  w.u8(static_cast<std::uint8_t>(options.kind));
  w.u8(static_cast<std::uint8_t>(options.fixedPolicy));
  w.u8(static_cast<std::uint8_t>(options.dynp.metric));
  w.str(options.dynp.decider);
  w.u8(static_cast<std::uint8_t>(options.dynp.initialPolicy));
  w.u32(static_cast<std::uint32_t>(options.dynp.policies.size()));
  for (core::PolicyKind p : options.dynp.policies) {
    w.u8(static_cast<std::uint8_t>(p));
  }
  w.u32(static_cast<std::uint32_t>(options.reservations.size()));
  for (const core::Reservation& r : options.reservations) {
    w.i64(r.id);
    w.i64(r.start);
    w.i64(r.duration);
    w.u32(static_cast<std::uint32_t>(r.width));
  }
  w.boolean(options.retuneOnJobEnd);
  w.boolean(options.failSoft);
  w.boolean(options.snapshots.enabled);
  w.u64(options.snapshots.minWaiting);
  w.u64(options.snapshots.maxWaiting);
  w.u64(options.snapshots.everyNth);
  w.u64(options.snapshots.maxCount);
  w.str(options.faults.has_value() ? options.faults->describe() : "");
  w.u64(trace.size());
  for (const core::Job& job : trace) putJob(w, job);
  return util::fnv1a64(w.bytes().data(), w.bytes().size());
}

}  // namespace

const char* schedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::FixedPolicy: return "fixed-policy";
    case SchedulerKind::EasyBackfill: return "easy-backfill";
    case SchedulerKind::DynP: return "dynp";
  }
  return "?";
}

Time StepSnapshot::accumulatedRuntime() const {
  Time total = 0;
  for (const core::Job& job : waiting) total += job.estimate;
  return total;
}

RmsSimulator::RmsSimulator(core::Machine machine, SimOptions options)
    : machine_(machine), options_(std::move(options)) {
  DYNSCHED_CHECK(machine_.nodes > 0);
}

SimulationReport RmsSimulator::run(const std::vector<core::Job>& jobs) {
  util::WallTimer wall;
  SimulationReport report;
  if (jobs.empty()) return report;

  std::vector<core::Job> trace = jobs;
  std::stable_sort(trace.begin(), trace.end(),
                   [](const core::Job& a, const core::Job& b) {
                     if (a.submit != b.submit) return a.submit < b.submit;
                     return a.id < b.id;
                   });
  for (const core::Job& job : trace) {
    DYNSCHED_CHECK_MSG(job.width <= machine_.nodes,
                       "job " << job.id << " wider than the machine");
  }

  core::DynPScheduler dynp(machine_, options_.dynp);
  core::PolicyKind fixedPolicy = options_.fixedPolicy;

  // Admit the configured advance reservations against the empty machine
  // (in list order) before any job arrives.
  core::ReservationBook reservations;
  if (!options_.reservations.empty()) {
    Time epoch = trace.front().submit;
    for (const core::Reservation& r : options_.reservations) {
      epoch = std::min(epoch, r.start);
    }
    const auto emptyHistory = core::MachineHistory::empty(machine_, epoch);
    for (const core::Reservation& r : options_.reservations) {
      DYNSCHED_CHECK_MSG(reservations.admit(emptyHistory, r, epoch),
                         "reservation " << r.id << " does not fit");
    }
  }
  const bool haveReservations = !reservations.reservations().empty();

  std::size_t submitIdx = 0;
  std::vector<RunningEntry> running;  // heap: pushRunning / popRunning
  std::vector<WaitingEntry> waiting;
  std::size_t eligibleSteps = 0;  // for SnapshotOptions::everyNth

  // --- Crash-safety journal -------------------------------------------------
  const bool journaled = options_.journal.enabled();
  std::optional<util::JournalWriter> writer;
  std::uint64_t eventCounter = 0;       // processed event-loop iterations
  std::uint64_t lastCheckpointEvent = 0;

  const auto writeCheckpoint = [&] {
    util::PayloadWriter w;
    w.u64(eventCounter);
    w.u64(submitIdx);
    w.u64(eligibleSteps);
    w.u8(static_cast<std::uint8_t>(dynp.activePolicy()));
    const core::DynPStats& stats = dynp.stats();
    w.u64(stats.steps);
    w.u64(stats.switches);
    w.f64(stats.totalPlanningSeconds);
    w.u32(static_cast<std::uint32_t>(stats.chosenCount.size()));
    for (std::size_t c : stats.chosenCount) w.u64(c);
    w.u64(report.replans);
    w.u64(report.tuningSteps);
    w.u64(report.degradedSteps);
    w.u32(static_cast<std::uint32_t>(report.completed.size()));
    for (const CompletedJob& c : report.completed) {
      putJob(w, c.job);
      w.i64(c.start);
      w.i64(c.end);
    }
    w.u32(static_cast<std::uint32_t>(report.switches.size()));
    for (const PolicySwitch& s : report.switches) {
      w.i64(s.time);
      w.u8(static_cast<std::uint8_t>(s.from));
      w.u8(static_cast<std::uint8_t>(s.to));
    }
    // Running jobs in completion order, as the heap pops them.
    std::vector<RunningEntry> runningCopy = running;
    w.u32(static_cast<std::uint32_t>(runningCopy.size()));
    while (!runningCopy.empty()) {
      const RunningEntry r = popRunning(runningCopy);
      putJob(w, r.job);
      w.i64(r.start);
      w.i64(r.actualEnd);
      w.i64(r.estimatedEnd);
    }
    w.u32(static_cast<std::uint32_t>(waiting.size()));
    for (const WaitingEntry& e : waiting) {
      putJob(w, e.job);
      w.i64(e.plannedStart);
    }
    w.u32(static_cast<std::uint32_t>(report.snapshots.size()));
    for (const StepSnapshot& snap : report.snapshots) putSnapshot(w, snap);
    writer->write(kSimCheckpointRecord, kSimCheckpointVersion, w);
  };

  const auto restoreCheckpoint = [&](const std::string& payload) {
    util::PayloadReader r(payload);
    eventCounter = r.u64();
    submitIdx = static_cast<std::size_t>(r.u64());
    eligibleSteps = static_cast<std::size_t>(r.u64());
    const core::PolicyKind active = takePolicy(r);
    core::DynPStats stats;
    stats.steps = static_cast<std::size_t>(r.u64());
    stats.switches = static_cast<std::size_t>(r.u64());
    stats.totalPlanningSeconds = r.f64();
    stats.chosenCount.resize(r.u32());
    for (std::size_t& c : stats.chosenCount) {
      c = static_cast<std::size_t>(r.u64());
    }
    if (options_.kind == SchedulerKind::DynP) {
      dynp.restoreState(active, std::move(stats));
    }
    report.replans = static_cast<std::size_t>(r.u64());
    report.tuningSteps = static_cast<std::size_t>(r.u64());
    report.degradedSteps = static_cast<std::size_t>(r.u64());
    report.completed.resize(r.u32());
    for (CompletedJob& c : report.completed) {
      c.job = takeJob(r);
      c.start = r.i64();
      c.end = r.i64();
    }
    report.switches.resize(r.u32());
    for (PolicySwitch& s : report.switches) {
      s.time = r.i64();
      s.from = takePolicy(r);
      s.to = takePolicy(r);
    }
    const std::uint32_t nRunning = r.u32();
    for (std::uint32_t i = 0; i < nRunning; ++i) {
      RunningEntry entry;
      entry.job = takeJob(r);
      entry.start = r.i64();
      entry.actualEnd = r.i64();
      entry.estimatedEnd = r.i64();
      pushRunning(running, entry);
    }
    waiting.resize(r.u32());
    for (WaitingEntry& e : waiting) {
      e.job = takeJob(r);
      e.plannedStart = r.i64();
    }
    report.snapshots.clear();
    const std::uint32_t nSnapshots = r.u32();
    report.snapshots.reserve(nSnapshots);
    for (std::uint32_t i = 0; i < nSnapshots; ++i) {
      report.snapshots.push_back(takeSnapshot(r));
    }
    DYNSCHED_CHECK_MSG(submitIdx <= trace.size(),
                       "sim checkpoint submit cursor out of range");
  };

  if (journaled) {
    const std::uint64_t fingerprint =
        simFingerprint(machine_, options_, trace);
    util::PayloadWriter meta;
    meta.u64(fingerprint);
    meta.u64(trace.size());
    meta.u32(static_cast<std::uint32_t>(machine_.nodes));
    const std::string& path = options_.journal.path;
    try {
      util::OpenedJournal opened = util::openRunJournal(
          options_.journal, "simulator", kSimMetaRecord, fingerprint, meta,
          {{kSimMetaRecord, kSimMetaVersion},
           {kSimCheckpointRecord, kSimCheckpointVersion}});
      report.tailDropped = opened.replay.tailDropped;
      report.tailWarning = opened.replay.tailWarning;
      writer.emplace(std::move(opened.writer));
      const std::string* checkpoint = nullptr;
      for (const util::JournalRecord& record : opened.replay.records) {
        // The last valid checkpoint wins; openRunJournal checked the meta
        // record, and other types are additive extensions.
        if (record.type == kSimCheckpointRecord) checkpoint = &record.payload;
      }
      if (checkpoint != nullptr) {
        try {
          restoreCheckpoint(*checkpoint);
        } catch (const util::JournalError& e) {
          throw analysis::AuditError("simulator journal '" + path + "': " +
                                     e.what());
        } catch (const CheckError& e) {
          throw analysis::AuditError("simulator journal '" + path + "': " +
                                     e.what());
        }
        report.resumed = true;
        report.resumedAtEvent = eventCounter;
        lastCheckpointEvent = eventCounter;
        DYNSCHED_LOG(Info)
            << "resumed simulation from checkpoint at event " << eventCounter
            << " (" << report.completed.size()
            << " jobs already completed)";
      }
    } catch (const util::JournalError& e) {
      throw analysis::AuditError(e.what());
    }
    // From here on Ctrl-C must reach the checkpoint-and-flush path below.
    util::installInterruptHandlers();
  }
  // --------------------------------------------------------------------------

  std::vector<core::RunningJob> runningJobs;  // historyNow's buffer
  const auto historyNow = [&](Time now) {
    // The history aggregates releases, so heap order serves as well as
    // completion order.
    runningJobs.clear();
    for (const RunningEntry& r : running) {
      runningJobs.push_back(
          core::RunningJob{r.job.id, r.job.width, r.estimatedEnd});
    }
    return core::MachineHistory::fromRunningJobs(machine_, now, runningJobs);
  };

  // Planned starts by job id, for handing a schedule back to the waiting
  // set in O(n log n).
  std::vector<std::pair<JobId, Time>> plannedStarts;

  const auto replan = [&](Time now, bool tuningEvent) {
    ++report.replans;
    if (waiting.empty()) return;
    const core::MachineHistory history = historyNow(now);
    std::vector<core::Job> waitingJobs;
    waitingJobs.reserve(waiting.size());
    for (const WaitingEntry& w : waiting) waitingJobs.push_back(w.job);

    core::Schedule schedule;
    const core::ReservationBook* book =
        haveReservations ? &reservations : nullptr;
    if (options_.kind == SchedulerKind::DynP &&
        (tuningEvent || options_.retuneOnJobEnd)) {
      const long step = static_cast<long>(report.tuningSteps++);
      std::string failure;
      if (options_.faults.has_value() &&
          options_.faults->failsStep(step)) {
        failure = "injected step fault (" + options_.faults->describe() + ")";
        DYNSCHED_CHECK_MSG(options_.failSoft, failure);
      } else {
        // A tuning step that dies (a policy schedule failing its audit, an
        // internal invariant tripping) degrades this one decision instead of
        // killing hours of simulation — the online system it models would
        // keep scheduling with the active policy too.
        try {
          const core::PolicyKind before = dynp.activePolicy();
          core::SelfTuningResult result =
              dynp.selfTuningStep(history, waitingJobs, now, book);
          if (result.switched) {
            report.switches.push_back(
                PolicySwitch{now, before, result.chosenPolicy});
          }
          if (options_.snapshots.enabled &&
              waiting.size() >= options_.snapshots.minWaiting &&
              waiting.size() <= options_.snapshots.maxWaiting &&
              report.snapshots.size() < options_.snapshots.maxCount) {
            ++eligibleSteps;
            if ((eligibleSteps - 1) %
                    std::max<std::size_t>(
                        1, options_.snapshots.everyNth) == 0) {
              StepSnapshot snap;
              snap.time = now;
              snap.history = history;
              snap.waiting = waitingJobs;
              snap.values = result.values;
              snap.bestPolicy = result.chosenPolicy;
              snap.bestValue = result.bestValue();
              Time maxMakespan = now;
              for (const core::Schedule& s : result.schedules) {
                maxMakespan = std::max(maxMakespan, s.makespan(now));
              }
              snap.maxPolicyMakespan = maxMakespan;
              snap.bestSchedule = result.chosenSchedule();
              report.snapshots.push_back(std::move(snap));
            }
          }
          schedule = result.chosenSchedule();
        } catch (const analysis::AuditError& e) {
          if (!options_.failSoft) throw;
          failure = e.what();
        } catch (const CheckError& e) {
          if (!options_.failSoft) throw;
          failure = e.what();
        }
      }
      if (!failure.empty()) {
        ++report.degradedSteps;
        DYNSCHED_LOG(Warn)
            << "tuning step " << step << " at t=" << now
            << " degraded to policy " << core::policyName(dynp.activePolicy())
            << ": " << failure;
        schedule = book != nullptr
                       ? core::planSchedule(history, *book, waitingJobs,
                                            dynp.activePolicy(), now)
                       : core::planSchedule(history, waitingJobs,
                                            dynp.activePolicy(), now);
      }
    } else if (options_.kind == SchedulerKind::DynP) {
      // Non-tuning replan (job end): keep the active policy.
      schedule = book != nullptr
                     ? core::planSchedule(history, *book, waitingJobs,
                                          dynp.activePolicy(), now)
                     : core::planSchedule(history, waitingJobs,
                                          dynp.activePolicy(), now);
    } else if (options_.kind == SchedulerKind::EasyBackfill) {
      DYNSCHED_CHECK_MSG(!haveReservations,
                         "EASY mode does not support advance reservations");
      schedule = core::planEasyBackfill(history, waitingJobs, now);
    } else {
      schedule = book != nullptr
                     ? core::planSchedule(history, *book, waitingJobs,
                                          fixedPolicy, now)
                     : core::planSchedule(history, waitingJobs, fixedPolicy,
                                          now);
    }

    // The schedule the simulator will act on — audited here so fixed-policy,
    // EASY, and dynP paths all pass the same gate with the same history.
    DYNSCHED_AUDIT_SCHEDULE("sim.replan", schedule, history, now, book);

    plannedStarts.clear();
    for (const core::ScheduledJob& e : schedule.entries()) {
      plannedStarts.emplace_back(e.job.id, e.start);
    }
    const auto byId = [](const std::pair<JobId, Time>& a,
                         const std::pair<JobId, Time>& b) {
      return a.first < b.first;
    };
    // Stable, so a duplicated id maps to its first entry as find() would.
    std::stable_sort(plannedStarts.begin(), plannedStarts.end(), byId);
    for (WaitingEntry& w : waiting) {
      const auto it =
          std::lower_bound(plannedStarts.begin(), plannedStarts.end(),
                           std::pair<JobId, Time>{w.job.id, kNoTime}, byId);
      DYNSCHED_CHECK_MSG(it != plannedStarts.end() && it->first == w.job.id,
                         "replan lost job " << w.job.id);
      w.plannedStart = it->second;
    }
  };

  const Time kNone = kTimeInfinity;
  while (submitIdx < trace.size() || !running.empty() || !waiting.empty()) {
    if (journaled) {
      if (util::interruptRequested()) {
        // Degrade the interrupt to "checkpoint, flush, return partial
        // report" — a resumed run continues from exactly this state.
        writeCheckpoint();
        writer->flush();
        report.interrupted = true;
        util::clearInterrupt();
        DYNSCHED_LOG(Warn)
            << "simulation interrupted at event " << eventCounter
            << "; state checkpointed to '" << options_.journal.path
            << "' — resume to continue";
        break;
      }
      if (options_.journal.checkpointEvery > 0 &&
          eventCounter > lastCheckpointEvent &&
          eventCounter % options_.journal.checkpointEvery == 0) {
        writeCheckpoint();
        lastCheckpointEvent = eventCounter;
      }
    }
    const Time tSubmit =
        submitIdx < trace.size() ? trace[submitIdx].submit : kNone;
    const Time tEnd = !running.empty() ? running.front().actualEnd : kNone;
    Time tStart = kNone;
    for (const WaitingEntry& w : waiting) {
      DYNSCHED_CHECK_MSG(w.plannedStart != kNoTime,
                         "job " << w.job.id << " has no planned start");
      tStart = std::min(tStart, w.plannedStart);
    }
    const Time now = std::min({tSubmit, tEnd, tStart});
    DYNSCHED_CHECK(now != kNone);

    if (tEnd == now) {
      // Completions first: freed resources must be visible to replans at
      // the same instant.
      while (!running.empty() && running.front().actualEnd == now) {
        const RunningEntry r = popRunning(running);
        report.completed.push_back(CompletedJob{r.job, r.start, r.actualEnd});
      }
      replan(now, /*tuningEvent=*/false);
      ++eventCounter;
      continue;
    }
    if (tSubmit == now) {
      // One self-tuning step per submission (paper Section 4).
      waiting.push_back(WaitingEntry{trace[submitIdx]});
      ++submitIdx;
      replan(now, /*tuningEvent=*/true);
      ++eventCounter;
      continue;
    }
    // Start every job whose planned start has arrived.
    DYNSCHED_CHECK(tStart == now);
    bool startedAny = false;
    for (std::size_t i = 0; i < waiting.size();) {
      if (waiting[i].plannedStart == now) {
        const core::Job& job = waiting[i].job;
        pushRunning(running, RunningEntry{job, now, now + job.actualRuntime,
                                          now + job.estimate});
        waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(i));
        startedAny = true;
      } else {
        ++i;
      }
    }
    DYNSCHED_CHECK(startedAny);
    ++eventCounter;
  }

  if (journaled && !report.interrupted) {
    // A finished journal ends with a checkpoint of the final state, so a
    // (redundant) resume of a completed run replays straight to the end.
    writeCheckpoint();
    writer->flush();
  }

  if (!report.completed.empty()) {
    Time firstSubmit = report.completed.front().job.submit;
    Time lastEnd = 0;
    for (const CompletedJob& c : report.completed) {
      firstSubmit = std::min(firstSubmit, c.job.submit);
      lastEnd = std::max(lastEnd, c.end);
    }
    report.simulatedSpan = lastEnd - firstSubmit;
  }
  if (options_.kind == SchedulerKind::DynP) report.dynpStats = dynp.stats();
  report.wallSeconds = wall.elapsedSeconds();
  return report;
}

double SimulationReport::avgResponseTime() const {
  if (completed.empty()) return 0;
  double sum = 0;
  for (const CompletedJob& c : completed)
    sum += static_cast<double>(c.responseTime());
  return sum / static_cast<double>(completed.size());
}

double SimulationReport::avgWaitTime() const {
  if (completed.empty()) return 0;
  double sum = 0;
  for (const CompletedJob& c : completed)
    sum += static_cast<double>(c.waitTime());
  return sum / static_cast<double>(completed.size());
}

double SimulationReport::avgSlowdown() const {
  if (completed.empty()) return 0;
  double sum = 0;
  for (const CompletedJob& c : completed) {
    sum += static_cast<double>(c.responseTime()) /
           static_cast<double>(c.job.actualRuntime);
  }
  return sum / static_cast<double>(completed.size());
}

double SimulationReport::avgBoundedSlowdown(double tau) const {
  if (completed.empty()) return 0;
  double sum = 0;
  for (const CompletedJob& c : completed) {
    const double d = std::max(static_cast<double>(c.job.actualRuntime), tau);
    sum += std::max(static_cast<double>(c.responseTime()) / d, 1.0);
  }
  return sum / static_cast<double>(completed.size());
}

double SimulationReport::utilization(NodeCount machineSize) const {
  if (completed.empty() || simulatedSpan <= 0 || machineSize <= 0) return 0;
  double area = 0;
  for (const CompletedJob& c : completed) {
    area += static_cast<double>(c.end - c.start) *
            static_cast<double>(c.job.width);
  }
  return area / (static_cast<double>(simulatedSpan) *
                 static_cast<double>(machineSize));
}

std::string SimulationReport::summary(NodeCount machineSize) const {
  std::ostringstream os;
  os << "jobs=" << completed.size() << " span="
     << util::formatSimTime(simulatedSpan) << " replans=" << replans
     << " switches=" << switches.size();
  if (degradedSteps > 0) {
    os << " degraded=" << degradedSteps << "/" << tuningSteps;
  }
  os << "\n"
     << "  ART=" << avgResponseTime() << "s AWT=" << avgWaitTime()
     << "s SLD=" << avgSlowdown() << " BSLD=" << avgBoundedSlowdown()
     << " util=" << utilization(machineSize);
  return os.str();
}

}  // namespace dynsched::sim
