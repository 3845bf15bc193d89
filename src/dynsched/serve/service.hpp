// The scheduler service: admission control, deadline-supervised solves, an
// idempotent answer cache, and crash-safe persistence.
//
// SchedulerService is the transport-free heart of the daemon (server.hpp
// adds the socket). One handle() call runs one request end to end on the
// calling thread:
//
//   admission  — a bounded waiting queue plus an in-flight memory budget;
//                when either is exceeded the request is shed with an
//                explicit Overloaded response (no unbounded buffering,
//                no silent drop). `force-shed=N` injects a shed.
//   cache      — answers are keyed by the request's FNV-1a fingerprint; a
//                retried request replays the cached answer without touching
//                the solver (idempotency), bounded FIFO eviction.
//   solve      — the request budget (deadline/nodes, or the server
//                defaults) feeds tip::supervisedBestSchedule, so an
//                expiring request walks the Optimal → IncumbentGap →
//                CoarsenedRetry → PolicyFallback ladder and returns the
//                best rung reached with provenance — never an empty
//                timeout. `worker-stall=N` forces the Nth solve onto the
//                ladder deterministically.
//   journal    — every answer is appended to a run journal (the study's
//                framing) and fsynced; restart rebuilds the cache from it
//                (util::openRunJournal, the study's resume protocol),
//                tolerating torn tails and reporting "recovered N answers,
//                dropped M bytes" through the meta record and Health stats.
//                `kill-at-step=N` exits with 137 right after persisting
//                answer N — the serve kill-matrix primitive.
//
// Locking discipline: `mu_` guards admission counters, stats, the cache,
// and the journal writer. It is never held across a solve — solves run
// between two short critical sections, bounded by the slot condvar.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dynsched/serve/request.hpp"
#include "dynsched/tip/supervised.hpp"
#include "dynsched/util/budget.hpp"
#include "dynsched/util/journal.hpp"
#include "dynsched/util/mutex.hpp"
#include "dynsched/util/thread_annotations.hpp"

namespace dynsched::serve {

/// Serve-journal record types (namespaced 20..29) and schema versions.
inline constexpr std::uint16_t kServeMetaRecord = 20;
inline constexpr std::uint16_t kServeAnswerRecord = 21;
inline constexpr std::uint16_t kServeMetaVersion = 1;
inline constexpr std::uint16_t kServeAnswerVersion = 1;

struct ServiceOptions {
  /// Solves allowed to run concurrently; further admitted requests wait.
  std::size_t maxConcurrent = 2;
  /// Admitted requests allowed to wait for a slot; beyond this, shed.
  std::size_t maxQueueDepth = 8;
  /// Estimated bytes of admitted-but-unfinished requests; beyond, shed.
  std::uint64_t maxInFlightBytes = 256u << 20;
  /// Per-request budget defaults when the request carries none.
  double defaultWallSeconds = 0;
  long defaultMaxNodes = 0;
  /// Answer-cache entries kept in memory (FIFO eviction).
  std::size_t cacheCapacity = 1024;
  /// Base solver configuration (budget fields act as further defaults).
  tip::SupervisedOptions solve;
  /// Answer persistence; path empty = in-memory only.
  util::RunJournalOptions journal;
  /// Fault plan override for tests. nullopt: read DYNSCHED_FAULTS once.
  std::optional<util::FaultPlan> faults;
};

class SchedulerService {
 public:
  /// Opens (or resumes) the answer journal through util::openRunJournal and
  /// rebuilds the cache. Throws util::JournalError when the file is
  /// unreadable, or when a resumed journal belongs to a different service
  /// configuration or was written by a newer build.
  explicit SchedulerService(ServiceOptions options);
  ~SchedulerService();
  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Handles one request start to finish on the calling thread (admission,
  /// cache, solve, journal). Thread-safe; blocks while the solve runs.
  /// Request-level trouble never throws — it is encoded in the response
  /// status — so the daemon cannot crash on a bad request.
  ScheduleResponse handle(const ScheduleRequest& request)
      DYNSCHED_EXCLUDES(mu_);

  /// A response for an undecodable request payload (counted as malformed).
  ScheduleResponse malformedResponse(const std::string& why)
      DYNSCHED_EXCLUDES(mu_);

  HealthStats health() const DYNSCHED_EXCLUDES(mu_);

  /// Graceful drain: new requests get Draining, waiters are woken, running
  /// solves are awaited, the final meta record is written and the journal
  /// flushed. Idempotent.
  void drain() DYNSCHED_EXCLUDES(mu_);

  bool draining() const DYNSCHED_EXCLUDES(mu_);

  /// Answers replayed from the journal at construction (recovery).
  std::uint64_t recoveredAnswers() const { return recoveredAnswers_; }

  const ServiceOptions& options() const { return options_; }

 private:
  /// Coarse deterministic admission estimate of a request's in-flight
  /// memory (NOT the solver's model estimate — the ladder enforces the
  /// real cap via SolveBudget::maxEstimatedBytes).
  static std::uint64_t estimateRequestBytes(const ScheduleRequest& request);

  std::uint64_t configFingerprint() const;
  void insertCacheLocked(std::uint64_t fingerprint,
                         const ScheduleResponse& response)
      DYNSCHED_REQUIRES(mu_);
  /// The meta record payload: config fingerprint plus recovery counts.
  util::PayloadWriter metaLocked() const DYNSCHED_REQUIRES(mu_);
  /// Appends the meta record and fsyncs the journal.
  void writeMetaLocked() DYNSCHED_REQUIRES(mu_);
  void recordLatencyLocked(double ms) DYNSCHED_REQUIRES(mu_);
  ScheduleResponse solveAdmitted(const ScheduleRequest& request,
                                 std::uint64_t fingerprint, long solveIndex)
      DYNSCHED_EXCLUDES(mu_);

  ServiceOptions options_;
  util::FaultPlan faults_;
  std::uint64_t recoveredAnswers_ = 0;

  mutable util::Mutex mu_;
  util::CondVar slotFree_;
  util::CondVar drained_;
  bool draining_ DYNSCHED_GUARDED_BY(mu_) = false;
  std::size_t running_ DYNSCHED_GUARDED_BY(mu_) = 0;
  std::size_t waiting_ DYNSCHED_GUARDED_BY(mu_) = 0;
  std::uint64_t inFlightBytes_ DYNSCHED_GUARDED_BY(mu_) = 0;
  long solveCount_ DYNSCHED_GUARDED_BY(mu_) = 0;
  long admissionCount_ DYNSCHED_GUARDED_BY(mu_) = 0;
  std::uint64_t answersPersisted_ DYNSCHED_GUARDED_BY(mu_) = 0;

  std::unordered_map<std::uint64_t, ScheduleResponse> cache_
      DYNSCHED_GUARDED_BY(mu_);
  std::deque<std::uint64_t> cacheOrder_ DYNSCHED_GUARDED_BY(mu_);
  std::optional<util::JournalWriter> journal_ DYNSCHED_GUARDED_BY(mu_);

  HealthStats stats_ DYNSCHED_GUARDED_BY(mu_);
  std::vector<double> latencyRingMs_ DYNSCHED_GUARDED_BY(mu_);
  std::size_t latencyNext_ DYNSCHED_GUARDED_BY(mu_) = 0;
};

}  // namespace dynsched::serve
