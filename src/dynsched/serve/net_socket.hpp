// RAII sockets and framed I/O for the scheduler service.
//
// This is the ONLY place in the tree that touches the socket syscalls
// (dynsched-lint DSL008 enforces it): everything above deals in Frames and
// structured NetError failures. The wrappers own the robustness details a
// long-running daemon needs —
//
//   * EINTR handling everywhere (the interrupt handlers install without
//     SA_RESTART on purpose, so a SIGTERM unblocks reads at a poll point);
//   * poll-bounded reads and accepts, so drain can interrupt a connection
//     that has gone quiet instead of blocking forever;
//   * deterministic fault injection: the DYNSCHED_FAULTS serve-path kinds
//     (accept-fail=N, short-read=N, short-write=N) are armed here and fire
//     on exact per-process event counters, simulating a dying peer or a
//     failing accept(2) bit-reproducibly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dynsched/serve/frame.hpp"

namespace dynsched::util {
struct FaultPlan;
}

namespace dynsched::serve {

/// Structured transport failure: connect/accept/read/write errors, timeouts
/// waiting for a response, torn frames from a dying peer, injected faults.
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

/// Arms the serve-path fault counters (accept-fail / short-read /
/// short-write) from a fault plan. The counters are process-wide — the Nth
/// accept, the Nth frame read, the Nth frame write — matching the plan's
/// counter-indexed semantics. Tests call resetNetFaults() between cases.
void armNetFaults(const util::FaultPlan& plan);
void resetNetFaults();

/// A connected stream socket (move-only, closes on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  bool valid() const { return fd_ >= 0; }
  void close();

  /// Sends one frame (header + payload), writing until every byte is out.
  /// Throws NetError on a write error, a closed peer, or an injected
  /// short-write fault (which writes a torn prefix first, so the peer
  /// observes exactly what a dying client produces).
  void sendFrame(const Frame& frame);

  /// Receives one frame. Returns nullopt on a clean EOF *between* frames
  /// (the peer closed after a complete exchange; the socket closes itself,
  /// so valid() distinguishes this from a timeout) or when `timeoutMs`
  /// expires with no data (>= 0; < 0 waits forever). A torn frame — EOF or
  /// timeout mid-frame, checksum mismatch, implausible length, injected
  /// short-read — throws NetError.
  std::optional<Frame> recvFrame(int timeoutMs);

  /// Waits up to `timeoutMs` for the socket to turn readable (data, EOF or
  /// a read-side shutdown). False on timeout or EINTR. Never closes.
  bool waitReadable(int timeoutMs);

  /// Shuts the read side down: a wait on this socket in another thread
  /// returns at once, and its reads return EOF once the bytes already
  /// received are consumed. The caller must know that no other thread
  /// closes the socket meanwhile.
  void shutdownRead();

 private:
  int fd_ = -1;
};

/// A listening socket (Unix-domain or TCP loopback). Move-only; unlinks the
/// Unix socket path on destruction.
class Listener {
 public:
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Binds and listens on a Unix-domain socket path (unlinking a stale
  /// socket file first). Throws NetError on failure.
  static Listener listenUnix(const std::string& path, int backlog = 16);

  /// Binds and listens on 127.0.0.1:port (port 0 picks a free port).
  static Listener listenTcp(std::uint16_t port, int backlog = 16);

  /// Waits up to `timeoutMs` for a connection (< 0 waits forever). Returns
  /// nullopt on timeout or on a benign transient accept failure
  /// (ECONNABORTED and friends — logged, loop continues); throws NetError
  /// only on errors that mean the listener itself is broken. An injected
  /// accept-fail fault surfaces as the transient kind: one accept fails
  /// loudly, the daemon keeps serving.
  std::optional<Socket> acceptOnce(int timeoutMs);

  /// The bound TCP port (after listenTcp(0)), or 0 for Unix listeners.
  std::uint16_t port() const { return port_; }

 private:
  Listener(int fd, std::string unixPath, std::uint16_t port)
      : fd_(fd), unixPath_(std::move(unixPath)), port_(port) {}

  int fd_ = -1;
  std::string unixPath_;
  std::uint16_t port_ = 0;
};

/// Connects to a Unix-domain / TCP-loopback server. Throws NetError.
Socket connectUnix(const std::string& path);
Socket connectTcp(std::uint16_t port);

}  // namespace dynsched::serve
