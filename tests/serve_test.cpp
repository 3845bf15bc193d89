// Serving-layer tests: wire framing (CRC, length caps), request/response
// codecs and the idempotency fingerprint, SchedulerService admission /
// shedding / caching / journal recovery / drain semantics, a live
// Unix-socket round trip through Server + Client including injected
// transport faults and malformed payloads, and the kept-connection rules:
// the client against a test-owned Listener, the server under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <latch>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dynsched/serve/client.hpp"
#include "dynsched/serve/frame.hpp"
#include "dynsched/serve/net_socket.hpp"
#include "dynsched/serve/request.hpp"
#include "dynsched/serve/server.hpp"
#include "dynsched/serve/service.hpp"
#include "dynsched/util/budget.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/journal.hpp"

namespace dynsched::serve {
namespace {

/// A small deterministic instance that solves in milliseconds: 3 jobs on an
/// 8-node machine under a node-limited budget (no wall clock — tests must
/// be timing-free).
ScheduleRequest makeRequest(std::uint64_t id, Time now = 1000) {
  ScheduleRequest request;
  request.clientRequestId = id;
  request.machine = core::Machine{8};
  request.now = now;
  request.metric = core::MetricKind::SldWA;
  request.maxNodes = 200;
  request.jobs = {
      core::Job{1, now - 100, 2, 600, 300},
      core::Job{2, now - 50, 4, 900, 450},
      core::Job{3, now - 10, 8, 300, 200},
  };
  return request;
}

/// Service options isolated from the environment: an explicit (empty) fault
/// plan so DYNSCHED_FAULTS in the outer shell cannot leak into a test.
ServiceOptions quietServiceOptions() {
  ServiceOptions options;
  options.faults = util::FaultPlan{};
  return options;
}

std::string tempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

// ---------------------------------------------------------------- framing

TEST(ServeFrame, RoundTripsThroughTheWireEncoding) {
  Frame frame;
  frame.type = kScheduleRequestFrame;
  frame.payload = "schedule me";
  const std::string wire = encodeFrame(frame);
  ASSERT_GE(wire.size(), kFrameHeaderBytes);

  const FrameHeader header =
      decodeFrameHeader(std::string_view(wire).substr(0, kFrameHeaderBytes));
  EXPECT_EQ(header.type, kScheduleRequestFrame);
  EXPECT_EQ(header.version, kFrameVersion);
  EXPECT_EQ(header.payloadLength, frame.payload.size());

  const Frame back =
      assembleFrame(header, wire.substr(kFrameHeaderBytes));
  EXPECT_EQ(back.type, frame.type);
  EXPECT_EQ(back.version, frame.version);
  EXPECT_EQ(back.payload, frame.payload);
}

TEST(ServeFrame, CorruptedPayloadFailsTheChecksum) {
  Frame frame;
  frame.type = kScheduleResponseFrame;
  frame.payload = "an answer";
  std::string wire = encodeFrame(frame);
  wire.back() = static_cast<char>(wire.back() ^ 0x01);

  const FrameHeader header =
      decodeFrameHeader(std::string_view(wire).substr(0, kFrameHeaderBytes));
  EXPECT_THROW(assembleFrame(header, wire.substr(kFrameHeaderBytes)),
               util::JournalError);
}

TEST(ServeFrame, ImplausiblePayloadLengthIsRejectedBeforeTheRead) {
  Frame frame;
  frame.type = kHealthRequestFrame;
  std::string wire = encodeFrame(frame);
  // Patch payloadLength (LE u32 at offset 0) to kMaxFramePayloadBytes + 1.
  wire[0] = '\x01';
  wire[1] = '\x00';
  wire[2] = '\x00';
  wire[3] = '\x04';
  EXPECT_THROW(
      decodeFrameHeader(std::string_view(wire).substr(0, kFrameHeaderBytes)),
      util::JournalError);
}

// ----------------------------------------------------------------- codecs

TEST(ServeCodec, ScheduleRequestRoundTrips) {
  ScheduleRequest request = makeRequest(42, 5000);
  request.history = {core::MachineHistory::Entry{5000, 3},
                     core::MachineHistory::Entry{5600, 8}};
  request.wallSeconds = 1.5;

  const ScheduleRequest back =
      decodeScheduleRequest(encodeScheduleRequest(request));
  EXPECT_EQ(back.clientRequestId, 42u);
  EXPECT_EQ(back.machine.nodes, request.machine.nodes);
  EXPECT_EQ(back.now, request.now);
  ASSERT_EQ(back.history.size(), 2u);
  EXPECT_EQ(back.history[1].time, 5600);
  EXPECT_EQ(back.history[1].freeNodes, 8);
  ASSERT_EQ(back.jobs.size(), request.jobs.size());
  EXPECT_EQ(back.jobs[1].id, request.jobs[1].id);
  EXPECT_EQ(back.jobs[1].width, request.jobs[1].width);
  EXPECT_EQ(back.jobs[1].estimate, request.jobs[1].estimate);
  EXPECT_EQ(back.metric, request.metric);
  EXPECT_DOUBLE_EQ(back.wallSeconds, 1.5);
  EXPECT_EQ(back.maxNodes, 200);
}

TEST(ServeCodec, ScheduleRequestRejectsTruncationAndTrailingBytes) {
  const std::string payload = encodeScheduleRequest(makeRequest(1));
  EXPECT_THROW(decodeScheduleRequest(payload.substr(0, payload.size() - 1)),
               util::JournalError);
  EXPECT_THROW(decodeScheduleRequest(payload + "x"), CheckError);
}

TEST(ServeCodec, ScheduleRequestRejectsAnUnknownMetricByte) {
  util::PayloadWriter w;
  w.u64(0);   // clientRequestId
  w.u32(4);   // machine nodes
  w.i64(0);   // now
  w.u32(0);   // history entries
  w.u32(0);   // jobs
  w.u8(255);  // metric — out of range
  w.f64(0);
  w.i64(0);
  EXPECT_THROW(decodeScheduleRequest(w.bytes()), CheckError);
}

TEST(ServeCodec, FingerprintIgnoresTheClientRequestId) {
  ScheduleRequest a = makeRequest(1);
  ScheduleRequest b = makeRequest(2);  // same instance, different id
  EXPECT_EQ(requestFingerprint(a), requestFingerprint(b));
  b.now += 60;
  EXPECT_NE(requestFingerprint(a), requestFingerprint(b));
}

TEST(ServeCodec, ScheduleResponseRoundTrips) {
  ScheduleResponse response;
  response.clientRequestId = 9;
  response.fingerprint = 0xfeedfacecafebeefULL;
  response.status = ResponseStatus::Ok;
  response.cached = true;
  response.rung = tip::SolveRung::IncumbentGap;
  response.stopReason = util::CancelReason::NodeLimit;
  response.gap = 0.125;
  response.timeScale = 60;
  response.bestPolicy = core::PolicyKind::Fcfs;
  response.policyValue = 2.5;
  response.solvedValue = 2.25;
  response.seconds = 0.75;
  response.provenance = "rung trace";
  response.schedule = {PlacedJob{1, 1000, 600}, PlacedJob{2, 1600, 900}};

  const ScheduleResponse back =
      decodeScheduleResponse(encodeScheduleResponse(response));
  EXPECT_EQ(back.clientRequestId, 9u);
  EXPECT_EQ(back.fingerprint, response.fingerprint);
  EXPECT_EQ(back.status, ResponseStatus::Ok);
  EXPECT_TRUE(back.cached);
  EXPECT_EQ(back.rung, tip::SolveRung::IncumbentGap);
  EXPECT_EQ(back.stopReason, util::CancelReason::NodeLimit);
  EXPECT_DOUBLE_EQ(back.gap, 0.125);
  EXPECT_EQ(back.timeScale, 60);
  EXPECT_DOUBLE_EQ(back.solvedValue, 2.25);
  EXPECT_EQ(back.provenance, "rung trace");
  ASSERT_EQ(back.schedule.size(), 2u);
  EXPECT_EQ(back.schedule[1].id, 2);
  EXPECT_EQ(back.schedule[1].start, 1600);
  EXPECT_EQ(back.schedule[1].duration, 900);
}

TEST(ServeCodec, ScheduleResponseRejectsABadStatusByte) {
  ScheduleResponse response;
  response.status = ResponseStatus::Ok;
  std::string payload = encodeScheduleResponse(response);
  payload[16] = 99;  // status u8 sits after two u64 fields
  EXPECT_THROW(decodeScheduleResponse(payload), CheckError);
}

TEST(ServeCodec, CanonicalTextExcludesTimingAndTheCacheBit) {
  ScheduleResponse a;
  a.clientRequestId = 1;
  a.fingerprint = 7;
  a.status = ResponseStatus::Ok;
  a.schedule = {PlacedJob{1, 0, 10}};
  ScheduleResponse b = a;
  b.clientRequestId = 2;  // replayed under a different correlation id
  b.cached = true;
  b.seconds = 123.0;
  EXPECT_EQ(canonicalResponseText(a), canonicalResponseText(b));

  ScheduleResponse shed;
  shed.status = ResponseStatus::Overloaded;
  shed.message = "queue full";
  const std::string text = canonicalResponseText(shed);
  EXPECT_NE(text.find("status overloaded"), std::string::npos);
  EXPECT_NE(text.find("queue full"), std::string::npos);
  EXPECT_EQ(text.find("rung"), std::string::npos);
}

TEST(ServeCodec, HealthStatsRoundTrip) {
  HealthStats stats;
  stats.accepted = 10;
  stats.completed = 9;
  stats.shed = 2;
  stats.malformed = 1;
  stats.errors = 3;
  stats.cacheHits = 4;
  stats.queueDepth = 5;
  stats.inFlight = 6;
  stats.draining = true;
  stats.rungCount[0] = 7;
  stats.rungCount[3] = 8;
  stats.p50Ms = 1.5;
  stats.p99Ms = 9.5;
  stats.recoveredAnswers = 11;
  stats.tornTails = 1;
  stats.droppedTailBytes = 13;

  const HealthStats back = decodeHealthStats(encodeHealthStats(stats));
  EXPECT_EQ(back.accepted, 10u);
  EXPECT_EQ(back.completed, 9u);
  EXPECT_EQ(back.shed, 2u);
  EXPECT_EQ(back.malformed, 1u);
  EXPECT_EQ(back.errors, 3u);
  EXPECT_EQ(back.cacheHits, 4u);
  EXPECT_EQ(back.queueDepth, 5u);
  EXPECT_EQ(back.inFlight, 6u);
  EXPECT_TRUE(back.draining);
  EXPECT_EQ(back.rungCount[0], 7u);
  EXPECT_EQ(back.rungCount[3], 8u);
  EXPECT_DOUBLE_EQ(back.p50Ms, 1.5);
  EXPECT_EQ(back.recoveredAnswers, 11u);
  EXPECT_EQ(back.tornTails, 1u);
  EXPECT_EQ(back.droppedTailBytes, 13u);
}

// ---------------------------------------------------------------- service

TEST(SchedulerServiceTest, SolvesAndReplaysFromTheAnswerCache) {
  SchedulerService service(quietServiceOptions());
  const ScheduleRequest request = makeRequest(1);

  const ScheduleResponse first = service.handle(request);
  ASSERT_EQ(first.status, ResponseStatus::Ok);
  EXPECT_FALSE(first.cached);
  EXPECT_EQ(first.fingerprint, requestFingerprint(request));
  EXPECT_FALSE(first.schedule.empty());
  EXPECT_FALSE(first.provenance.empty());

  // The same instance under a new correlation id is the same request.
  ScheduleRequest retry = request;
  retry.clientRequestId = 99;
  const ScheduleResponse second = service.handle(retry);
  EXPECT_EQ(second.status, ResponseStatus::Ok);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.clientRequestId, 99u);
  EXPECT_EQ(canonicalResponseText(first), canonicalResponseText(second));

  const HealthStats stats = service.health();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cacheHits, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(SchedulerServiceTest, ShedsWhenTheMemoryBudgetIsExceeded) {
  ServiceOptions options = quietServiceOptions();
  options.maxInFlightBytes = 1;  // nothing fits
  SchedulerService service(options);

  const ScheduleResponse response = service.handle(makeRequest(1));
  EXPECT_EQ(response.status, ResponseStatus::Overloaded);
  EXPECT_FALSE(response.message.empty());
  const HealthStats stats = service.health();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(SchedulerServiceTest, ForceShedFaultShedsExactlyTheTargetedAdmission) {
  ServiceOptions options = quietServiceOptions();
  util::FaultPlan plan;
  plan.forceShedAt = 0;
  options.faults = plan;
  SchedulerService service(options);

  const ScheduleResponse first = service.handle(makeRequest(1));
  EXPECT_EQ(first.status, ResponseStatus::Overloaded);
  EXPECT_NE(first.message.find("injected"), std::string::npos);

  const ScheduleResponse second = service.handle(makeRequest(2, 2000));
  EXPECT_EQ(second.status, ResponseStatus::Ok);
  EXPECT_EQ(service.health().shed, 1u);
}

TEST(SchedulerServiceTest, WorkerStallWalksTheLadderInsteadOfTimingOut) {
  ServiceOptions options = quietServiceOptions();
  util::FaultPlan plan;
  plan.workerStallAt = 0;
  options.faults = plan;
  SchedulerService service(options);

  // The stalled solve's budget expires immediately; the ladder hands back
  // the best degraded rung (incumbent, coarsened, or fallback — never the
  // optimal rung, and never an empty timeout).
  const ScheduleResponse response = service.handle(makeRequest(1));
  ASSERT_EQ(response.status, ResponseStatus::Ok);
  EXPECT_NE(response.rung, tip::SolveRung::Optimal);
  EXPECT_FALSE(response.schedule.empty());
  const HealthStats stats = service.health();
  EXPECT_EQ(stats.rungCount[tip::solveRungIndex(response.rung)], 1u);
  EXPECT_EQ(stats.rungCount[tip::solveRungIndex(tip::SolveRung::Optimal)], 0u);
}

TEST(SchedulerServiceTest, BadHistoryYieldsAStructuredErrorNotACrash) {
  SchedulerService service(quietServiceOptions());
  ScheduleRequest request = makeRequest(1);
  // Valid staircase that does not end at the machine size (8).
  request.history = {core::MachineHistory::Entry{1000, 2},
                     core::MachineHistory::Entry{1600, 4}};
  const ScheduleResponse response = service.handle(request);
  EXPECT_EQ(response.status, ResponseStatus::Error);
  EXPECT_FALSE(response.message.empty());
  EXPECT_TRUE(response.schedule.empty());
  EXPECT_EQ(service.health().errors, 1u);
}

TEST(SchedulerServiceTest, DrainRejectsNewRequestsAndIsIdempotent) {
  SchedulerService service(quietServiceOptions());
  service.drain();
  EXPECT_TRUE(service.draining());
  const ScheduleResponse response = service.handle(makeRequest(1));
  EXPECT_EQ(response.status, ResponseStatus::Draining);
  service.drain();  // second drain must not deadlock
}

TEST(SchedulerServiceTest, MalformedResponseIsCounted) {
  SchedulerService service(quietServiceOptions());
  const ScheduleResponse response = service.malformedResponse("bad payload");
  EXPECT_EQ(response.status, ResponseStatus::Malformed);
  EXPECT_NE(response.message.find("bad payload"), std::string::npos);
  EXPECT_EQ(service.health().malformed, 1u);
}

TEST(SchedulerServiceTest, JournalRecoveryReplaysPersistedAnswers) {
  const std::string path = tempPath("serve_recovery.journal");
  std::string firstText;
  {
    ServiceOptions options = quietServiceOptions();
    options.journal.path = path;
    SchedulerService service(options);
    firstText = canonicalResponseText(service.handle(makeRequest(1, 1000)));
    ASSERT_EQ(service.handle(makeRequest(2, 2000)).status, ResponseStatus::Ok);
    service.drain();
  }
  {
    ServiceOptions options = quietServiceOptions();
    options.journal.path = path;
    options.journal.resume = true;
    SchedulerService service(options);
    EXPECT_EQ(service.recoveredAnswers(), 2u);

    // The recovered cache replays without touching the solver.
    const ScheduleResponse replay = service.handle(makeRequest(1, 1000));
    EXPECT_EQ(replay.status, ResponseStatus::Ok);
    EXPECT_TRUE(replay.cached);
    EXPECT_EQ(canonicalResponseText(replay), firstText);

    const HealthStats stats = service.health();
    EXPECT_EQ(stats.recoveredAnswers, 2u);
    EXPECT_EQ(stats.accepted, 0u);
    EXPECT_EQ(stats.tornTails, 0u);
  }
  std::remove(path.c_str());
}

TEST(SchedulerServiceTest, TornJournalTailIsToleratedAndReported) {
  const std::string path = tempPath("serve_torn.journal");
  {
    ServiceOptions options = quietServiceOptions();
    options.journal.path = path;
    SchedulerService service(options);
    ASSERT_EQ(service.handle(makeRequest(1)).status, ResponseStatus::Ok);
    service.drain();
  }
  {
    // Simulate a crash mid-append: garbage bytes after the last record.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "XXXXX";
  }
  {
    ServiceOptions options = quietServiceOptions();
    options.journal.path = path;
    options.journal.resume = true;
    SchedulerService service(options);
    EXPECT_EQ(service.recoveredAnswers(), 1u);
    const HealthStats stats = service.health();
    EXPECT_EQ(stats.tornTails, 1u);
    EXPECT_EQ(stats.droppedTailBytes, 5u);
    EXPECT_TRUE(service.handle(makeRequest(1)).cached);
  }
  std::remove(path.c_str());
}

TEST(SchedulerServiceTest, ResumeRejectsAJournalFromAnotherConfiguration) {
  const std::string path = tempPath("serve_config.journal");
  {
    ServiceOptions options = quietServiceOptions();
    options.journal.path = path;
    SchedulerService service(options);
    ASSERT_EQ(service.handle(makeRequest(1)).status, ResponseStatus::Ok);
    service.drain();
  }
  ServiceOptions mismatched = quietServiceOptions();
  mismatched.journal.path = path;
  mismatched.journal.resume = true;
  mismatched.defaultMaxNodes = 77;  // part of the config fingerprint
  EXPECT_THROW(SchedulerService service(mismatched), util::JournalError);
  std::remove(path.c_str());
}

TEST(SchedulerServiceTest, ConcurrentRequestsBalanceTheAccounting) {
  // One solve slot and a queue of one under four threads that start
  // together: requests from a pool of three instances solve, replay the
  // cache, solve again after waiting behind a copy of themselves, or are
  // shed. force-shed=0 sheds the first admission. Each thread sends every
  // request twice in a row, so the thread whose solve answered gets a cache
  // hit on the repeat.
  const std::string path = tempPath("serve_accounting.journal");
  ServiceOptions options = quietServiceOptions();
  options.maxConcurrent = 1;
  options.maxQueueDepth = 1;
  // A 5 s grid: each solve takes milliseconds, long enough to overlap.
  options.solve.forcedTimeScale = 5;
  options.journal.path = path;
  util::FaultPlan plan;
  plan.forceShedAt = 0;
  options.faults = plan;
  const std::vector<ScheduleRequest> pool = {
      makeRequest(1, 1000), makeRequest(2, 2000), makeRequest(3, 3000)};
  constexpr std::size_t kThreads = 4, kRounds = 3;

  std::vector<std::vector<ResponseStatus>> statuses(kThreads);
  HealthStats stats;
  {
    SchedulerService service(options);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (std::size_t i = 0; i < kRounds * pool.size(); ++i) {
          const ScheduleRequest& request = pool[(t + i) % pool.size()];
          for (int repeat = 0; repeat < 2; ++repeat) {
            statuses[t].push_back(service.handle(request).status);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    stats = service.health();
    service.drain();
  }

  std::uint64_t ok = 0, overloaded = 0;
  for (const auto& thread : statuses) {
    for (const ResponseStatus status : thread) {
      EXPECT_TRUE(status == ResponseStatus::Ok ||
                  status == ResponseStatus::Overloaded);
      ok += status == ResponseStatus::Ok ? 1 : 0;
      overloaded += status == ResponseStatus::Overloaded ? 1 : 0;
    }
  }
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.completed, stats.accepted + stats.cacheHits);
  EXPECT_EQ(stats.shed, overloaded);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GE(stats.shed, 1u);
  EXPECT_GE(stats.cacheHits, 1u);

  // One journaled answer per admitted solve, duplicates included.
  const util::JournalReadResult journal = util::readJournal(path);
  std::uint64_t answers = 0;
  for (const util::JournalRecord& record : journal.records) {
    answers += record.type == kServeAnswerRecord ? 1 : 0;
  }
  EXPECT_EQ(answers, stats.accepted);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- socket

/// Runs `server` on its own thread. stop() asks the server to drain and
/// joins the thread; the destructor does the same, so a failed ASSERT_*
/// that leaves a test early cannot abort the binary through a joinable
/// std::thread.
class ServerThread {
 public:
  explicit ServerThread(Server& server)
      : server_(server), runner_([&server] { server.run(); }) {}
  ~ServerThread() { stop(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  void stop() {
    if (!runner_.joinable()) return;
    server_.stop();
    runner_.join();
  }

 private:
  Server& server_;
  std::thread runner_;
};

/// Client options of the socket tests: a generous response wait and no
/// real backoff sleeps.
ClientOptions socketClientOptions(const std::string& socketPath) {
  ClientOptions options;
  options.unixPath = socketPath;
  options.timeoutMs = 10000;
  options.sleep = [](double) {};
  return options;
}

/// A test-owned listener's answer to `request`: Ok, told apart by `message`.
Frame answerFrame(const Frame& request, const std::string& message) {
  ScheduleResponse response;
  response.clientRequestId =
      decodeScheduleRequest(request.payload).clientRequestId;
  response.status = ResponseStatus::Ok;
  response.message = message;
  return Frame{kScheduleResponseFrame, kFrameVersion,
               encodeScheduleResponse(response)};
}

TEST(ServeSocket, RoundTripsRequestsHealthAndDrainOverAUnixSocket) {
  resetNetFaults();
  const std::string socketPath = tempPath("serve_rt.sock");
  ServerOptions options;
  options.unixPath = socketPath;
  options.ioThreads = 2;
  options.pollIntervalMs = 20;
  options.service = quietServiceOptions();
  Server server(options);
  ServerThread runner(server);

  Client client(socketClientOptions(socketPath));
  const ScheduleResponse first = client.schedule(makeRequest(1));
  ASSERT_EQ(first.status, ResponseStatus::Ok);
  EXPECT_FALSE(first.schedule.empty());

  ScheduleRequest retry = makeRequest(1);
  retry.clientRequestId = 2;
  const ScheduleResponse replay = client.schedule(retry);
  EXPECT_TRUE(replay.cached);
  EXPECT_EQ(canonicalResponseText(first), canonicalResponseText(replay));

  const HealthStats stats = client.health();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.cacheHits, 1u);

  runner.stop();
  EXPECT_TRUE(server.service().draining());
  EXPECT_EQ(server.service().handle(makeRequest(3, 9999)).status,
            ResponseStatus::Draining);
  resetNetFaults();
}

TEST(ServeSocket, MalformedAndUnknownFramesGetStructuredResponses) {
  resetNetFaults();
  const std::string socketPath = tempPath("serve_bad.sock");
  ServerOptions options;
  options.unixPath = socketPath;
  options.ioThreads = 1;
  options.pollIntervalMs = 20;
  options.service = quietServiceOptions();
  Server server(options);
  ServerThread runner(server);

  {
    Socket raw = connectUnix(socketPath);
    Frame garbage;
    garbage.type = kScheduleRequestFrame;
    garbage.payload = "not a request";
    raw.sendFrame(garbage);
    auto reply = raw.recvFrame(10000);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, kScheduleResponseFrame);
    EXPECT_EQ(decodeScheduleResponse(reply->payload).status,
              ResponseStatus::Malformed);

    // The CRC verified, so the stream is still in sync — an unknown frame
    // type on the same connection also gets a structured answer.
    Frame unknown;
    unknown.type = 77;
    raw.sendFrame(unknown);
    auto second = raw.recvFrame(10000);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(decodeScheduleResponse(second->payload).status,
              ResponseStatus::Malformed);
  }

  runner.stop();
  EXPECT_GE(server.service().health().malformed, 1u);
  resetNetFaults();
}

TEST(ServeSocket, ShortWriteFaultIsSurvivedByTheRetryPolicy) {
  resetNetFaults();
  const std::string socketPath = tempPath("serve_fault.sock");
  ServerOptions options;
  options.unixPath = socketPath;
  options.ioThreads = 1;
  options.pollIntervalMs = 20;
  options.service = quietServiceOptions();
  Server server(options);
  ServerThread runner(server);

  // Arm after the server ctor (which arms the empty service plan): the very
  // first frame write in the process — the client's request — is torn.
  util::FaultPlan plan;
  plan.shortWriteAt = 0;
  armNetFaults(plan);

  Client client(socketClientOptions(socketPath));
  const ScheduleResponse response = client.schedule(makeRequest(1));
  EXPECT_EQ(response.status, ResponseStatus::Ok);

  runner.stop();
  resetNetFaults();
}

TEST(ServeSocket, ClientKeepsOneConnectionAcrossRequests) {
  resetNetFaults();
  const std::string socketPath = tempPath("serve_keep.sock");
  Listener listener = Listener::listenUnix(socketPath);
  ClientOptions options = socketClientOptions(socketPath);
  options.timeoutMs = 5000;
  options.retry.maxAttempts = 1;
  Client client(options);

  int answered = 0;
  std::vector<std::string> messages;
  {
    // The listener accepts once and answers every frame on that socket.
    std::jthread server([&] {
      std::optional<Socket> socket = listener.acceptOnce(10000);
      if (!socket) return;
      while (answered < 4) {
        const std::optional<Frame> frame = socket->recvFrame(10000);
        if (!frame) return;
        ++answered;
        if (frame->type == kHealthRequestFrame) {
          HealthStats stats;
          stats.completed = 3;
          socket->sendFrame(Frame{kHealthResponseFrame, kFrameVersion,
                                  encodeHealthStats(stats)});
        } else {
          socket->sendFrame(
              answerFrame(*frame, "answer " + std::to_string(answered)));
        }
      }
    });
    for (std::uint64_t id = 1; id <= 3; ++id) {
      messages.push_back(client.schedule(makeRequest(id)).message);
    }
    EXPECT_EQ(client.health().completed, 3u);
  }
  EXPECT_EQ(answered, 4);
  EXPECT_EQ(messages, (std::vector<std::string>{"answer 1", "answer 2",
                                                "answer 3"}));
  EXPECT_FALSE(listener.acceptOnce(0).has_value());
}

TEST(ServeSocket, AClosedKeptConnectionIsRedialedOnceOutsideTheBudget) {
  resetNetFaults();
  const std::string socketPath = tempPath("serve_redial.sock");
  Listener listener = Listener::listenUnix(socketPath);
  ClientOptions options = socketClientOptions(socketPath);
  options.timeoutMs = 5000;
  options.retry.maxAttempts = 1;
  Client client(options);

  std::string first, second;
  bool thirdFailed = false;
  {
    // Each connection gets one answer, then the listener closes it without
    // reading the next request. The third connection closes unanswered.
    std::jthread server([&] {
      for (const std::string message : {"first", "second", ""}) {
        std::optional<Socket> socket = listener.acceptOnce(10000);
        if (!socket) return;
        const std::optional<Frame> frame = socket->recvFrame(10000);
        if (!frame || message.empty()) return;
        socket->sendFrame(answerFrame(*frame, message));
      }
    });
    first = client.schedule(makeRequest(1)).message;
    // One attempt only: the kept connection is dead, the redial is free.
    second = client.schedule(makeRequest(2)).message;
    // The redial's own failure spends the one attempt: no second redial.
    try {
      client.schedule(makeRequest(3));
    } catch (const NetError&) {
      thirdFailed = true;
    }
  }
  EXPECT_EQ(first, "first");
  EXPECT_EQ(second, "second");
  EXPECT_TRUE(thirdFailed);
  EXPECT_FALSE(listener.acceptOnce(0).has_value());
}

TEST(ServeSocket, ATimedOutRequestNeverReadsItsLateReply) {
  resetNetFaults();
  const std::string socketPath = tempPath("serve_late.sock");
  Listener listener = Listener::listenUnix(socketPath);
  ClientOptions options = socketClientOptions(socketPath);
  options.timeoutMs = 500;
  options.retry.maxAttempts = 2;
  Client client(options);

  std::string answer;
  bool oldSocketClosed = false;
  {
    std::jthread server([&] {
      std::optional<Socket> old = listener.acceptOnce(10000);
      if (!old) return;
      const std::optional<Frame> request = old->recvFrame(10000);
      if (!request) return;
      // Hold request 1 until the client timed out on it and sent it again,
      // on a fresh connection or on this one; then answer it here.
      std::optional<Socket> fresh;
      bool resentHere = false;
      for (int poll = 0; poll < 1000 && !fresh && !resentHere; ++poll) {
        fresh = listener.acceptOnce(10);
        if (!fresh && old->valid()) {
          resentHere = old->recvFrame(10).has_value();
        }
      }
      try {
        old->sendFrame(answerFrame(*request, "late"));
      } catch (const NetError&) {
        // The client closed this connection, as it should.
      }
      oldSocketClosed =
          !old->valid() || (!old->recvFrame(1000) && !old->valid());
      if (!fresh) return;
      const std::optional<Frame> retry = fresh->recvFrame(10000);
      if (retry) fresh->sendFrame(answerFrame(*retry, "retry"));
    });
    try {
      answer = client.schedule(makeRequest(1)).message;
    } catch (const NetError& err) {
      answer = err.what();
    }
  }
  EXPECT_EQ(answer, "retry");
  EXPECT_TRUE(oldSocketClosed);
}

/// One handler thread and two clients with one attempt each: client B's
/// single request must be answered while client A keeps its connection,
/// whether A sends back to back or sits idle, and A, which gave its thread
/// up, is answered again through its one free redial. B waits far less
/// than the server's poll interval, so an idle A must give its thread up
/// as soon as B's connection is queued, not at its next idle poll.
void expectAQueuedConnectionIsServed(bool busy) {
  resetNetFaults();
  const std::string socketPath = tempPath("serve_turns.sock");
  ServerOptions serverOptions;
  serverOptions.unixPath = socketPath;
  serverOptions.ioThreads = 1;
  serverOptions.pollIntervalMs = 1000;
  serverOptions.service = quietServiceOptions();
  // A 60 s grid: each solve takes milliseconds.
  serverOptions.service.solve.forcedTimeScale = 60;
  Server server(serverOptions);
  ServerThread runner(server);

  ClientOptions options = socketClientOptions(socketPath);
  options.retry.maxAttempts = 1;
  Client a(options);
  options.timeoutMs = 400;
  Client b(options);
  // A's answer leaves its kept connection on the only handler thread.
  ASSERT_EQ(a.schedule(makeRequest(1)).status, ResponseStatus::Ok);

  std::atomic<bool> bAnswered{false};
  std::atomic<int> aSent{0}, aNotOk{0};
  ResponseStatus bStatus = ResponseStatus::Error;
  {
    std::jthread busyA;
    if (busy) {
      busyA = std::jthread([&] {
        while (!bAnswered.load()) {
          try {
            aNotOk += a.schedule(makeRequest(1)).status != ResponseStatus::Ok;
          } catch (const NetError&) {
            ++aNotOk;
          }
          ++aSent;
        }
      });
      while (aSent.load() == 0) std::this_thread::yield();
    }
    try {
      bStatus = b.schedule(makeRequest(2, 2000)).status;
    } catch (const NetError& err) {
      ADD_FAILURE() << "client B: " << err.what();
    }
    bAnswered = true;
  }
  EXPECT_EQ(bStatus, ResponseStatus::Ok);
  EXPECT_EQ(aNotOk.load(), 0);
  EXPECT_EQ(a.schedule(makeRequest(3, 3000)).status, ResponseStatus::Ok);
  runner.stop();
}

TEST(ServeSocket, AKeptConnectionNeverStarvesAQueuedOne) {
  {
    SCOPED_TRACE("client A sends back to back");
    expectAQueuedConnectionIsServed(/*busy=*/true);
  }
  {
    SCOPED_TRACE("client A sits idle");
    expectAQueuedConnectionIsServed(/*busy=*/false);
  }
}

}  // namespace
}  // namespace dynsched::serve
