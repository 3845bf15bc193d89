#include "dynsched/serve/net_socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "dynsched/util/budget.hpp"
#include <system_error>
#include <utility>

#include "dynsched/util/journal.hpp"
#include "dynsched/util/logging.hpp"

namespace dynsched::serve {

namespace {

std::string errnoText(int err) {
  return std::generic_category().message(err);
}

// Serve-path fault state: counter-indexed, process-wide, armed once by the
// daemon (or a test) from a FaultPlan. Relaxed atomics — the counters only
// need to be exact per event stream, not ordered against anything else.
std::atomic<long> g_acceptFailAt{-1};
std::atomic<long> g_shortReadAt{-1};
std::atomic<long> g_shortWriteAt{-1};
std::atomic<long> g_acceptCount{0};
std::atomic<long> g_frameReadCount{0};
std::atomic<long> g_frameWriteCount{0};

bool faultFires(std::atomic<long>& armedAt, std::atomic<long>& counter) {
  const long at = armedAt.load(std::memory_order_relaxed);
  const long n = counter.fetch_add(1, std::memory_order_relaxed);
  return at >= 0 && n == at;
}

/// Waits for readability. Returns false on timeout or EINTR (the caller
/// re-checks its stop condition — this is the drain poll point); throws on
/// poll errors.
bool waitReadable(int fd, int timeoutMs) {
  struct pollfd pfd {};
  pfd.fd = fd;
  pfd.events = POLLIN;
  const int rc = ::poll(&pfd, 1, timeoutMs);
  if (rc > 0) return true;
  if (rc == 0) return false;  // timeout
  if (errno == EINTR) return false;
  throw NetError("poll failed: " + errnoText(errno));
}

}  // namespace

void armNetFaults(const util::FaultPlan& plan) {
  g_acceptFailAt.store(plan.acceptFailAt, std::memory_order_relaxed);
  g_shortReadAt.store(plan.shortReadAt, std::memory_order_relaxed);
  g_shortWriteAt.store(plan.shortWriteAt, std::memory_order_relaxed);
}

void resetNetFaults() {
  g_acceptFailAt.store(-1, std::memory_order_relaxed);
  g_shortReadAt.store(-1, std::memory_order_relaxed);
  g_shortWriteAt.store(-1, std::memory_order_relaxed);
  g_acceptCount.store(0, std::memory_order_relaxed);
  g_frameReadCount.store(0, std::memory_order_relaxed);
  g_frameWriteCount.store(0, std::memory_order_relaxed);
}

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket::~Socket() { close(); }

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

/// Writes the whole buffer, looping over short counts and EINTR.
/// MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the daemon.
void writeAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError("send failed: " + errnoText(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// How a bounded exact-size read ended. Timeout and Eof are only possible
/// before the first byte (and only when allowed); anything later throws.
enum class ReadOutcome { Got, Timeout, Eof };

/// Reads exactly `size` bytes. Timeout/Eof before the first byte are benign
/// when `eofAllowedAtStart` (between frames); mid-buffer they throw — that
/// is a torn frame.
ReadOutcome readExact(int fd, char* out, std::size_t size, int timeoutMs,
                      bool eofAllowedAtStart) {
  std::size_t got = 0;
  while (got < size) {
    if (!waitReadable(fd, timeoutMs)) {
      if (got == 0 && eofAllowedAtStart) return ReadOutcome::Timeout;
      throw NetError("timed out mid-frame after " + std::to_string(got) +
                     " of " + std::to_string(size) + " bytes");
    }
    const ssize_t n = ::recv(fd, out + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError("recv failed: " + errnoText(errno));
    }
    if (n == 0) {
      if (got == 0 && eofAllowedAtStart) return ReadOutcome::Eof;
      throw NetError("peer closed mid-frame after " + std::to_string(got) +
                     " of " + std::to_string(size) + " bytes (torn frame)");
    }
    got += static_cast<std::size_t>(n);
  }
  return ReadOutcome::Got;
}

}  // namespace

void Socket::sendFrame(const Frame& frame) {
  const std::string bytes = encodeFrame(frame);
  if (faultFires(g_shortWriteAt, g_frameWriteCount)) {
    // Simulate a peer dying mid-write: flush a torn prefix so the receiver
    // observes a real short frame, then fail the local call.
    writeAll(fd_, bytes.data(), bytes.size() / 2);
    close();
    throw NetError("injected short write (torn frame sent to peer)");
  }
  writeAll(fd_, bytes.data(), bytes.size());
}

std::optional<Frame> Socket::recvFrame(int timeoutMs) {
  char headerBytes[kFrameHeaderBytes];
  const ReadOutcome outcome = readExact(fd_, headerBytes, sizeof headerBytes,
                                        timeoutMs, /*eofAllowedAtStart=*/true);
  if (outcome == ReadOutcome::Eof) {
    // Clean end of the conversation: close, so valid() tells the caller's
    // loop "peer finished" apart from "still quiet" (a plain timeout).
    close();
    return std::nullopt;
  }
  if (outcome == ReadOutcome::Timeout) return std::nullopt;
  if (faultFires(g_shortReadAt, g_frameReadCount)) {
    // Simulate the local side losing the connection mid-frame: the header
    // was consumed, the payload never arrives.
    close();
    throw NetError("injected short read (connection lost mid-frame)");
  }
  FrameHeader header;
  try {
    header = decodeFrameHeader(
        std::string_view(headerBytes, sizeof headerBytes));
  } catch (const util::JournalError& err) {
    throw NetError(std::string("bad frame header: ") + err.what());
  }
  std::string payload(header.payloadLength, '\0');
  if (header.payloadLength > 0) {
    (void)readExact(fd_, payload.data(), payload.size(), timeoutMs,
                    /*eofAllowedAtStart=*/false);
  }
  try {
    return assembleFrame(header, std::move(payload));
  } catch (const util::JournalError& err) {
    throw NetError(std::string("bad frame: ") + err.what());
  }
}

bool Socket::waitReadable(int timeoutMs) {
  return serve::waitReadable(fd_, timeoutMs);
}

void Socket::shutdownRead() {
  // ENOTCONN (the peer is already gone) leaves nothing to wake.
  (void)::shutdown(fd_, SHUT_RD);
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      unixPath_(std::move(other.unixPath_)),
      port_(other.port_) {
  other.fd_ = -1;
  other.unixPath_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    if (!unixPath_.empty()) ::unlink(unixPath_.c_str());
    fd_ = other.fd_;
    unixPath_ = std::move(other.unixPath_);
    port_ = other.port_;
    other.fd_ = -1;
    other.unixPath_.clear();
  }
  return *this;
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (!unixPath_.empty()) ::unlink(unixPath_.c_str());
}

Listener Listener::listenUnix(const std::string& path, int backlog) {
  struct sockaddr_un addr {};
  if (path.size() + 1 > sizeof addr.sun_path) {
    throw NetError("unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw NetError("socket failed: " + errnoText(errno));
  ::unlink(path.c_str());  // a stale socket file from a crashed run
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) <
      0) {
    const int err = errno;
    ::close(fd);
    throw NetError("bind " + path + " failed: " + errnoText(err));
  }
  if (::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw NetError("listen on " + path + " failed: " + errnoText(err));
  }
  return Listener(fd, path, 0);
}

Listener Listener::listenTcp(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw NetError("socket failed: " + errnoText(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) <
      0) {
    const int err = errno;
    ::close(fd);
    throw NetError("bind 127.0.0.1:" + std::to_string(port) +
                   " failed: " + errnoText(err));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    const int err = errno;
    ::close(fd);
    throw NetError("getsockname failed: " + errnoText(err));
  }
  if (::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    throw NetError("listen failed: " + errnoText(err));
  }
  return Listener(fd, "", ntohs(addr.sin_port));
}

std::optional<Socket> Listener::acceptOnce(int timeoutMs) {
  if (!waitReadable(fd_, timeoutMs)) return std::nullopt;
  if (faultFires(g_acceptFailAt, g_acceptCount)) {
    // The connection stays queued in the backlog; the next accept picks it
    // up, so the client sees a delayed answer, never a lost one.
    DYNSCHED_LOG(Warn) << "serve: injected accept failure (fault plan); "
                          "connection left in backlog";
    return std::nullopt;
  }
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    // Transient per-connection failures: the peer gave up between poll and
    // accept. The listener itself is fine — keep serving.
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK) {
      return std::nullopt;
    }
    throw NetError("accept failed: " + errnoText(errno));
  }
  return Socket(fd);
}

Socket connectUnix(const std::string& path) {
  struct sockaddr_un addr {};
  if (path.size() + 1 > sizeof addr.sun_path) {
    throw NetError("unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw NetError("socket failed: " + errnoText(errno));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const int err = errno;
    ::close(fd);
    throw NetError("connect " + path + " failed: " + errnoText(err));
  }
  return Socket(fd);
}

Socket connectTcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw NetError("socket failed: " + errnoText(errno));
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const int err = errno;
    ::close(fd);
    throw NetError("connect 127.0.0.1:" + std::to_string(port) +
                   " failed: " + errnoText(err));
  }
  return Socket(fd);
}

}  // namespace dynsched::serve
