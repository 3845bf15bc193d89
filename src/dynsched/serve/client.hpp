// Retrying client of the scheduler service.
//
// A Client keeps one connection open across its schedule() and health()
// calls and dials only when it holds none, so an uncontended request costs
// one frame each way: no connect, accept or close, and no wait in the
// server's connection queue. One schedule() call is one logical request:
// the client sends the frame on its connection and awaits the answer,
// retrying transport failures and Overloaded sheds under the bounded
// decorrelated-jitter policy of retry.hpp. Two rules keep the kept
// connection safe:
//
//   * a transport failure on a connection that already carried an exchange
//     (a NetError, or a clean EOF before the reply: the server closed it to
//     give its handler thread to a waiting connection, or went away) is
//     re-sent once at once on a fresh connection, outside the retry budget;
//   * a timeout closes the connection, so a late reply can never answer the
//     next request, and counts as an attempt, as does any failure of a
//     fresh connection.
//
// Re-sending and retrying are safe because requests are idempotent — the
// fingerprint maps a re-sent request onto the server's answer cache, which
// replays the original answer instead of re-solving. When every attempt
// fails the outcome is still structured: the last shed/drain response is
// returned as-is, and a pure transport failure throws NetError naming the
// final cause.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dynsched/serve/net_socket.hpp"
#include "dynsched/serve/request.hpp"
#include "dynsched/serve/retry.hpp"
#include "dynsched/util/rng.hpp"

namespace dynsched::serve {

struct ClientOptions {
  /// Unix-domain socket path; empty switches to TCP loopback `tcpPort`.
  std::string unixPath;
  std::uint16_t tcpPort = 0;
  /// Per-response wait; a quiet server past this is a retryable failure and
  /// closes the connection.
  int timeoutMs = 30000;
  RetryPolicy retry;
  /// Seed of the jitter stream (bit-reproducible retry schedules).
  std::uint64_t rngSeed = 0x5eedULL;
  /// Injected sleep for tests (fake clock); default sleeps for real.
  SleepFn sleep;
};

/// One kept connection and its retry state. Not thread-safe: use one Client
/// per thread, each with its own connection.
class Client {
 public:
  explicit Client(ClientOptions options);

  /// Sends one request, retrying per the policy. Returns the final response
  /// (Ok, or the last structured rejection when retries were exhausted on
  /// Overloaded/Draining). Throws NetError when every attempt failed at the
  /// transport layer without a single structured answer.
  ScheduleResponse schedule(const ScheduleRequest& request);

  /// Fetches the server's health stats (same retry policy).
  HealthStats health();

 private:
  Socket dial();

  /// One attempt's frame exchange on the kept connection, under the two
  /// rules of the file comment. Returns nullopt on a timeout; throws
  /// NetError when a fresh connection fails.
  std::optional<Frame> exchange(const Frame& frame);

  ClientOptions options_;
  util::Rng rng_;
  Socket connection_;  ///< the kept connection; invalid while none is open
};

}  // namespace dynsched::serve
