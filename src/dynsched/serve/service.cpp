#include "dynsched/serve/service.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "dynsched/core/decider.hpp"
#include "dynsched/sim/simulator.hpp"
#include "dynsched/tip/request_adapter.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/logging.hpp"
#include "dynsched/util/timer.hpp"

namespace dynsched::serve {

namespace {

/// Latency samples kept for the p50/p99 in Health (bounded ring).
constexpr std::size_t kLatencyRingCapacity = 512;

}  // namespace

SchedulerService::SchedulerService(ServiceOptions options)
    : options_(std::move(options)),
      faults_(options_.faults ? *options_.faults : util::FaultPlan::fromEnv()) {
  DYNSCHED_CHECK_MSG(options_.maxConcurrent >= 1,
                     "service needs at least one solve slot");
  latencyRingMs_.reserve(kLatencyRingCapacity);
  if (!options_.journal.enabled()) return;

  const util::MutexLock lock(mu_);
  util::OpenedJournal opened = util::openRunJournal(
      options_.journal, "server", kServeMetaRecord, configFingerprint(),
      metaLocked(),
      {{kServeMetaRecord, kServeMetaVersion},
       {kServeAnswerRecord, kServeAnswerVersion}});
  const util::JournalReadResult& replay = opened.replay;
  std::uint64_t priorTorn = 0;
  std::uint64_t priorDropped = 0;
  for (const util::JournalRecord& record : replay.records) {
    util::PayloadReader r(record.payload);
    if (record.type == kServeMetaRecord) {
      r.u64();  // config fingerprint, checked by openRunJournal
      r.u64();  // recoveredAnswers at the time the meta was written
      priorTorn = r.u64();
      priorDropped = r.u64();
    } else if (record.type == kServeAnswerRecord) {
      const std::uint64_t fingerprint = r.u64();
      insertCacheLocked(fingerprint, decodeScheduleResponse(r.str()));
      ++recoveredAnswers_;
    }
    // Unknown types: skip (future serve records stay forward-readable).
  }
  stats_.tornTails = priorTorn + (replay.tailDropped ? 1 : 0);
  stats_.droppedTailBytes = priorDropped + replay.droppedBytes;
  stats_.recoveredAnswers = recoveredAnswers_;
  answersPersisted_ = recoveredAnswers_;
  journal_.emplace(std::move(opened.writer));
  // A fresh journal starts with its meta record; a recovery appends one
  // that carries the recovered counts.
  if (!replay.records.empty() || replay.tailDropped) writeMetaLocked();
}

SchedulerService::~SchedulerService() { drain(); }

std::uint64_t SchedulerService::estimateRequestBytes(
    const ScheduleRequest& request) {
  // Coarse, deterministic, and intentionally pessimistic: fixed per-request
  // overhead plus per-job model weight and per-history-entry staircase
  // weight. The real model size is enforced later by the solve budget.
  return (1ull << 16) + 2048ull * request.jobs.size() +
         64ull * request.history.size();
}

std::uint64_t SchedulerService::configFingerprint() const {
  util::PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(options_.solve.metric));
  w.boolean(options_.solve.warmStart);
  w.boolean(options_.solve.roundingHeuristic);
  w.i64(options_.solve.forcedTimeScale);
  w.f64(options_.solve.scaling.bytesPerEntry);
  w.u64(options_.solve.scaling.totalMemoryBytes);
  w.f64(options_.solve.scaling.solverOverheadFactor);
  w.i64(options_.solve.scaling.roundToSeconds);
  w.i64(options_.solve.scaling.minScale);
  w.f64(options_.solve.budget.wallSeconds);
  w.i64(options_.solve.budget.maxNodes);
  w.i64(options_.solve.budget.maxLpIterations);
  w.u64(options_.solve.budget.maxEstimatedBytes);
  w.f64(options_.defaultWallSeconds);
  w.i64(options_.defaultMaxNodes);
  return util::fnv1a64(w.bytes().data(), w.bytes().size());
}

void SchedulerService::insertCacheLocked(std::uint64_t fingerprint,
                                         const ScheduleResponse& response) {
  if (options_.cacheCapacity == 0) return;
  if (cache_.emplace(fingerprint, response).second) {
    cacheOrder_.push_back(fingerprint);
    while (cacheOrder_.size() > options_.cacheCapacity) {
      cache_.erase(cacheOrder_.front());
      cacheOrder_.pop_front();
    }
  }
}

util::PayloadWriter SchedulerService::metaLocked() const {
  util::PayloadWriter meta;
  meta.u64(configFingerprint());
  meta.u64(recoveredAnswers_);
  meta.u64(stats_.tornTails);
  meta.u64(stats_.droppedTailBytes);
  return meta;
}

void SchedulerService::writeMetaLocked() {
  journal_->write(kServeMetaRecord, kServeMetaVersion, metaLocked());
  journal_->flush();
}

void SchedulerService::recordLatencyLocked(double ms) {
  if (latencyRingMs_.size() < kLatencyRingCapacity) {
    latencyRingMs_.push_back(ms);
  } else {
    latencyRingMs_[latencyNext_] = ms;
  }
  latencyNext_ = (latencyNext_ + 1) % kLatencyRingCapacity;
}

ScheduleResponse SchedulerService::malformedResponse(const std::string& why) {
  ScheduleResponse response;
  response.status = ResponseStatus::Malformed;
  response.message = why;
  const util::MutexLock lock(mu_);
  ++stats_.malformed;
  return response;
}

ScheduleResponse SchedulerService::handle(const ScheduleRequest& request) {
  util::WallTimer timer;
  const std::uint64_t fingerprint = requestFingerprint(request);
  const std::uint64_t estimate = estimateRequestBytes(request);

  auto reject = [&](ResponseStatus status, const std::string& why) {
    ScheduleResponse response;
    response.clientRequestId = request.clientRequestId;
    response.fingerprint = fingerprint;
    response.status = status;
    response.message = why;
    return response;
  };

  long solveIndex = -1;
  {
    const util::MutexLock lock(mu_);
    if (draining_) {
      return reject(ResponseStatus::Draining,
                    "server is draining; retry against the restarted server");
    }
    const auto hit = cache_.find(fingerprint);
    if (hit != cache_.end()) {
      ScheduleResponse response = hit->second;
      response.clientRequestId = request.clientRequestId;
      response.cached = true;
      ++stats_.cacheHits;
      ++stats_.completed;
      recordLatencyLocked(timer.elapsedMilliseconds());
      return response;
    }
    const long admissionIndex = admissionCount_++;
    if (faults_.forceShedAt >= 0 && admissionIndex == faults_.forceShedAt) {
      ++stats_.shed;
      return reject(ResponseStatus::Overloaded,
                    "injected shed (DYNSCHED_FAULTS force-shed)");
    }
    if (estimate > options_.maxInFlightBytes) {
      ++stats_.shed;
      return reject(ResponseStatus::Overloaded,
                    "request alone exceeds the in-flight memory budget");
    }
    if (waiting_ >= options_.maxQueueDepth ||
        inFlightBytes_ + estimate > options_.maxInFlightBytes) {
      ++stats_.shed;
      return reject(ResponseStatus::Overloaded,
                    "admission queue or in-flight memory budget is full; "
                    "retry with backoff");
    }
    ++waiting_;
    while (running_ >= options_.maxConcurrent && !draining_) {
      slotFree_.wait(mu_);
    }
    --waiting_;
    if (draining_) {
      drained_.notify_all();
      return reject(ResponseStatus::Draining,
                    "server began draining while the request was queued");
    }
    ++running_;
    inFlightBytes_ += estimate;
    ++stats_.accepted;
    solveIndex = solveCount_++;
  }

  ScheduleResponse response = solveAdmitted(request, fingerprint, solveIndex);

  {
    const util::MutexLock lock(mu_);
    --running_;
    inFlightBytes_ -= estimate;
    slotFree_.notify_one();
    if (running_ == 0) drained_.notify_all();
    if (response.status == ResponseStatus::Ok) {
      ++stats_.completed;
      ++stats_.rungCount[tip::solveRungIndex(response.rung)];
      insertCacheLocked(fingerprint, response);
      if (journal_) {
        util::PayloadWriter record;
        record.u64(fingerprint);
        record.str(encodeScheduleResponse(response));
        journal_->write(kServeAnswerRecord, kServeAnswerVersion, record);
        journal_->flush();
        // kill-at-step indexes persisted answers globally (recovered ones
        // included), so the kill matrix can aim past a restart boundary.
        const long answerIndex = static_cast<long>(answersPersisted_);
        ++answersPersisted_;
        if (faults_.killsAtStep(answerIndex)) {
          DYNSCHED_LOG(Warn) << "fault injection: exiting after persisting "
                             << "answer " << answerIndex;
          std::_Exit(util::kKillFaultExitCode);
        }
      }
    } else {
      ++stats_.errors;
    }
    recordLatencyLocked(timer.elapsedMilliseconds());
  }
  return response;
}

ScheduleResponse SchedulerService::solveAdmitted(const ScheduleRequest& request,
                                                 std::uint64_t fingerprint,
                                                 long solveIndex) {
  ScheduleResponse response;
  response.clientRequestId = request.clientRequestId;
  response.fingerprint = fingerprint;
  try {
    core::MachineHistory history =
        request.history.empty()
            ? core::MachineHistory::empty(request.machine, request.now)
            : core::MachineHistory::fromEntries(request.history);
    DYNSCHED_CHECK_MSG(history.machineSize() == request.machine.nodes,
                       "request history does not end at the machine size");
    sim::StepSnapshot snapshot = tip::makeRequestSnapshot(
        std::move(history), request.jobs, request.now, request.metric);

    tip::SupervisedOptions solve = options_.solve;
    solve.metric = request.metric;
    if (request.wallSeconds > 0) {
      solve.budget.wallSeconds = request.wallSeconds;
    } else if (options_.defaultWallSeconds > 0) {
      solve.budget.wallSeconds = options_.defaultWallSeconds;
    }
    if (request.maxNodes > 0) {
      solve.budget.maxNodes = request.maxNodes;
    } else if (options_.defaultMaxNodes > 0) {
      solve.budget.maxNodes = options_.defaultMaxNodes;
    }
    if (faults_.workerStallAt >= 0 && solveIndex == faults_.workerStallAt) {
      // The stalled worker's deadline fires on the first cancellation check,
      // so the solve walks the ladder down to a deterministic fallback —
      // exactly what a wedged solver thread must degrade to.
      util::FaultPlan stalled;
      stalled.deadlineNow = true;
      solve.faults = stalled;
    } else if (!solve.faults.has_value()) {
      solve.faults = faults_;
    }

    const tip::SupervisedResult solved =
        tip::supervisedBestSchedule(snapshot, solve, solveIndex);

    response.status = ResponseStatus::Ok;
    response.rung = solved.rung;
    response.stopReason = solved.stopReason;
    response.gap = solved.gap;
    response.timeScale = solved.timeScale;
    response.bestPolicy = snapshot.bestPolicy;
    response.policyValue = snapshot.bestValue;
    const core::MetricEvaluator evaluator(request.now,
                                          request.machine.nodes);
    response.solvedValue = evaluator.evaluate(solved.schedule, request.metric);
    response.seconds = solved.seconds;
    response.provenance = solved.provenance;
    response.schedule.reserve(solved.schedule.entries().size());
    for (const core::ScheduledJob& entry : solved.schedule.entries()) {
      response.schedule.push_back(
          PlacedJob{entry.job.id, entry.start, entry.duration});
    }
  } catch (const std::exception& err) {
    response.status = ResponseStatus::Error;
    response.message = err.what();
    response.schedule.clear();
  }
  return response;
}

HealthStats SchedulerService::health() const {
  const util::MutexLock lock(mu_);
  HealthStats stats = stats_;
  stats.queueDepth = static_cast<std::uint32_t>(waiting_);
  stats.inFlight = static_cast<std::uint32_t>(running_);
  stats.draining = draining_;
  stats.recoveredAnswers = recoveredAnswers_;
  if (!latencyRingMs_.empty()) {
    std::vector<double> sorted = latencyRingMs_;
    std::sort(sorted.begin(), sorted.end());
    const auto quantile = [&](double q) {
      const std::size_t index = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[std::min(index, sorted.size() - 1)];
    };
    stats.p50Ms = quantile(0.50);
    stats.p99Ms = quantile(0.99);
  }
  return stats;
}

void SchedulerService::drain() {
  const util::MutexLock lock(mu_);
  if (!draining_) {
    draining_ = true;
    slotFree_.notify_all();
  }
  while (running_ > 0 || waiting_ > 0) {
    drained_.wait(mu_);
  }
  if (journal_) writeMetaLocked();
}

bool SchedulerService::draining() const {
  const util::MutexLock lock(mu_);
  return draining_;
}

}  // namespace dynsched::serve
