#include "dynsched/sim/simulator.hpp"

#include <algorithm>
#include <sstream>

#include "dynsched/analysis/audit.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/logging.hpp"
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
    if (options_.kind == SchedulerKind::DynP && tuningEvent) {
      const long step = static_cast<long>(report.tuningSteps++);
      std::string failure;
      if (options_.faults.has_value() &&
          options_.faults->failsStep(step)) {
        failure = "injected step fault (" + options_.faults->describe() + ")";
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
          schedule = result.chosenSchedule();
        } catch (const analysis::AuditError& e) {
          failure = e.what();
        } catch (const CheckError& e) {
          failure = e.what();
        }
      }
      if (!failure.empty()) {
        ++report.degradedSteps;
        DYNSCHED_LOG(Warn)
            << "tuning step " << step << " at t=" << now
            << " degraded to policy " << core::policyName(dynp.activePolicy())
            << ": " << failure;
        schedule = core::planSchedule(history, waitingJobs,
                                      dynp.activePolicy(), now, book);
      }
    } else if (options_.kind == SchedulerKind::EasyBackfill) {
      DYNSCHED_CHECK_MSG(!haveReservations,
                         "EASY mode does not support advance reservations");
      schedule = core::planEasyBackfill(history, waitingJobs, now);
    } else {
      // A fixed policy, or dynP replanning after a job end with the policy
      // its last tuning step chose.
      const core::PolicyKind policy = options_.kind == SchedulerKind::DynP
                                          ? dynp.activePolicy()
                                          : options_.fixedPolicy;
      schedule = core::planSchedule(history, waitingJobs, policy, now, book);
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
      continue;
    }
    if (tSubmit == now) {
      // One self-tuning step per submission (paper Section 4).
      waiting.push_back(WaitingEntry{trace[submitIdx]});
      ++submitIdx;
      replan(now, /*tuningEvent=*/true);
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
