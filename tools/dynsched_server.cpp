// dynsched-server: the scheduler-as-a-service daemon.
//
// Listens on a Unix-domain socket (or TCP loopback), answers framed
// ScheduleRequests through the supervised degradation ladder, sheds load
// beyond the admission limits, journals every answer for idempotent replay,
// and drains gracefully on SIGTERM/SIGINT (finish in-flight work, flush the
// journal, exit 0). Restarting with --resume rebuilds the answer cache from
// the journal, tolerating a torn tail from a crash.
//
//   dynsched-server --socket /tmp/dynsched.sock --journal answers.journal
//       --resume --max-concurrent 2 --default-max-nodes 20000
#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "dynsched/serve/server.hpp"
#include "dynsched/util/flags.hpp"
#include "dynsched/util/signals.hpp"

using namespace dynsched;

int main(int argc, char** argv) {
  util::FlagSet flags("dynsched-server");
  auto& socketPath = flags.addString(
      "socket", "", "Unix-domain socket path (empty: TCP loopback)");
  auto& tcpPort = flags.addInt(
      "tcp-port", 0, "TCP port when --socket is empty (0 picks a free port)");
  auto& journal = flags.addString(
      "journal", "", "answer journal path (empty = in-memory cache only)");
  auto& resume = flags.addBool(
      "resume", false, "replay answers from --journal before serving");
  auto& maxConcurrent =
      flags.addInt("max-concurrent", 2, "solves allowed to run concurrently");
  auto& maxQueue = flags.addInt(
      "max-queue", 8, "admitted requests allowed to wait for a solve slot");
  auto& maxInflightMb = flags.addInt(
      "max-inflight-mb", 256, "in-flight memory admission budget [MiB]");
  auto& cacheCapacity =
      flags.addInt("cache-capacity", 1024, "answer-cache entries (FIFO)");
  auto& defaultWallSeconds = flags.addDouble(
      "default-wall-seconds", 0.0,
      "per-request deadline when the request carries none (0 = unlimited)");
  auto& defaultMaxNodes = flags.addInt(
      "default-max-nodes", 0,
      "per-request B&B node budget when the request carries none");
  auto& ioThreads =
      flags.addInt("io-threads", 4, "connection-handler threads");
  auto& maxConnections = flags.addInt(
      "max-connections", 32, "connections served concurrently before shedding");
  if (!flags.parse(argc, argv)) return 0;
  if (resume && journal.empty()) {
    std::fprintf(stderr, "--resume requires --journal PATH\n");
    return 2;
  }
  if (socketPath.empty() && tcpPort == 0) {
    // Allowed (a free port is picked), but scripts need to know it.
    std::fprintf(stderr,
                 "note: no --socket and --tcp-port 0; the picked port is "
                 "printed below\n");
  }

  try {
    serve::ServerOptions options;
    options.unixPath = socketPath;
    options.tcpPort = static_cast<std::uint16_t>(tcpPort);
    options.maxConnections = static_cast<std::size_t>(maxConnections);
    options.ioThreads = static_cast<std::size_t>(ioThreads);
    options.service.maxConcurrent = static_cast<std::size_t>(maxConcurrent);
    options.service.maxQueueDepth = static_cast<std::size_t>(maxQueue);
    options.service.maxInFlightBytes =
        static_cast<std::uint64_t>(maxInflightMb) << 20;
    options.service.cacheCapacity = static_cast<std::size_t>(cacheCapacity);
    options.service.defaultWallSeconds = defaultWallSeconds;
    options.service.defaultMaxNodes = static_cast<long>(defaultMaxNodes);
    options.service.journal.path = journal;
    options.service.journal.resume = resume;

    serve::Server server(std::move(options));
    std::fprintf(stderr, "dynsched-server: listening on %s (recovered %llu answers)\n",
                 socketPath.empty()
                     ? ("127.0.0.1:" + std::to_string(server.port())).c_str()
                     : socketPath.c_str(),
                 static_cast<unsigned long long>(
                     server.service().recoveredAnswers()));
    if (socketPath.empty()) {
      std::printf("%u\n", static_cast<unsigned>(server.port()));
      std::fflush(stdout);
    }

    // SIGTERM/SIGINT set the interrupt flag; the accept loop observes it
    // and drains. The guard restores prior dispositions on exit.
    util::SignalGuard signalGuard;
    server.run();
    std::fprintf(stderr, "dynsched-server: drained, exiting\n");
    return 0;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "dynsched-server: %s\n", err.what());
    return 1;
  }
}
