// The socket front end of the scheduler service.
//
// Server owns the listener and a ThreadPool of connection handlers; the
// accept loop runs on the caller's thread (run()) until stop() is called or
// an interrupt (SIGINT/SIGTERM via util::signals) is observed, then drains:
// accepting stops, queued and running solves finish or ladder down, every
// connection flushes its last response, the answer journal gets its final
// meta record, and run() returns — the process exits 0.
//
// A connection is served on one handler thread for as long as its client
// keeps it open, so a client's later requests skip connect, accept and the
// pool queue. It keeps the thread only while no accepted connection waits
// for one: when more connections are active than there are handler
// threads, a handler closes its connection after the answer it just sent,
// and an answered connection that sits idle is closed as soon as a
// connection is queued (the accept loop shuts the read side of the one
// idle longest down, which wakes its handler). Under contention every
// connection thus gets one answer per turn, in pool order, and the
// client's redial queues behind the waiting connections.
//
// Transport trouble on one connection (torn frame, injected short read,
// dying peer) closes that connection and nothing else; the client's retry
// policy re-sends and the answer cache replays idempotently. An undecodable
// request payload gets a structured Malformed response — the frame CRC has
// already verified, so the stream is still in sync and the connection
// survives.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "dynsched/serve/net_socket.hpp"
#include "dynsched/serve/service.hpp"
#include "dynsched/util/mutex.hpp"
#include "dynsched/util/thread_pool.hpp"

namespace dynsched::serve {

struct ServerOptions {
  /// Unix-domain socket path; empty switches to TCP loopback.
  std::string unixPath;
  /// TCP port when unixPath is empty (0 picks a free port).
  std::uint16_t tcpPort = 0;
  /// Connections served concurrently; beyond this a connection is answered
  /// with one Overloaded response and closed (the client backs off).
  std::size_t maxConnections = 32;
  /// Connection-handler threads (each runs one connection at a time). A
  /// kept connection gives its thread up after an answer, or at once when
  /// it sits idle after one, while more connections are active than this.
  std::size_t ioThreads = 4;
  /// Poll granularity of accepts and idle reads — bounds how long drain
  /// waits for a quiet connection to notice.
  int pollIntervalMs = 100;
  ServiceOptions service;
};

class Server {
 public:
  /// Binds the listener (so port() is valid before run()) and arms the
  /// serve-path net faults from the service's fault plan. Throws NetError
  /// on bind failure, CheckError/JournalError from service recovery.
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept loop; returns after a graceful drain. Call from one thread.
  void run();

  /// Asks run() to begin the graceful drain (thread-safe; idempotent).
  void stop() { stopRequested_.store(true, std::memory_order_relaxed); }

  /// The bound TCP port (after tcpPort = 0), or 0 for Unix listeners.
  std::uint16_t port() const { return listener_.port(); }

  SchedulerService& service() { return service_; }

 private:
  void serveConnection(Socket socket);
  /// True while an accepted connection waits for a handler thread.
  bool connectionWaiting() const;
  /// Parks an answered, idle connection where wakeParked() can reach it.
  /// False, parking nothing, when a connection already waits.
  bool park(Socket& socket) DYNSCHED_EXCLUDES(parkedMutex_);
  void unpark(Socket& socket) DYNSCHED_EXCLUDES(parkedMutex_);
  /// While a connection waits, shuts the read side of the longest-parked
  /// connection down, so its handler closes it and takes the waiting one.
  void wakeParked() DYNSCHED_EXCLUDES(parkedMutex_);

  ServerOptions options_;
  SchedulerService service_;
  Listener listener_;
  util::ThreadPool pool_;
  std::atomic<bool> stopRequested_{false};
  std::atomic<std::size_t> activeConnections_{0};
  util::Mutex parkedMutex_;
  std::vector<Socket*> parked_ DYNSCHED_GUARDED_BY(parkedMutex_);
};

}  // namespace dynsched::serve
