#include "dynsched/serve/client.hpp"

#include <utility>

namespace dynsched::serve {

Client::Client(ClientOptions options)
    : options_(std::move(options)), rng_(options_.rngSeed) {
  if (!options_.sleep) options_.sleep = sleepSeconds;
}

Socket Client::dial() {
  if (!options_.unixPath.empty()) return connectUnix(options_.unixPath);
  return connectTcp(options_.tcpPort);
}

std::optional<Frame> Client::exchange(const Frame& frame) {
  // At most two passes: the kept connection, then one fresh connection.
  for (;;) {
    const bool kept = connection_.valid();
    if (!kept) connection_ = dial();
    std::optional<Frame> reply;
    try {
      connection_.sendFrame(frame);
      reply = connection_.recvFrame(options_.timeoutMs);
    } catch (const NetError&) {
      connection_.close();
      if (!kept) throw;
      continue;
    }
    if (reply) return reply;
    if (connection_.valid()) {
      // Timed out: drop the connection, so its late reply can never answer
      // the next request.
      connection_.close();
      return std::nullopt;
    }
    // A clean EOF before the reply (recvFrame closed the socket).
    if (!kept) throw NetError("server closed the connection before replying");
  }
}

ScheduleResponse Client::schedule(const ScheduleRequest& request) {
  const Frame frame{kScheduleRequestFrame, kFrameVersion,
                    encodeScheduleRequest(request)};
  std::optional<ScheduleResponse> last;
  std::string lastTransportError = "no attempt made";
  const auto attempt = [&]() -> bool {
    try {
      std::optional<Frame> reply = exchange(frame);
      if (!reply) {
        lastTransportError = "timed out waiting for the response";
        return false;
      }
      if (reply->type != kScheduleResponseFrame) {
        lastTransportError =
            "unexpected frame type " + std::to_string(reply->type);
        return false;
      }
      // Decode failures (version skew) propagate: re-sending the same
      // request cannot fix them, so they are not retryable.
      last = decodeScheduleResponse(reply->payload);
      return last->status != ResponseStatus::Overloaded &&
             last->status != ResponseStatus::Draining;
    } catch (const NetError& err) {
      lastTransportError = err.what();
      return false;
    }
  };
  const RetryOutcome outcome =
      retryWithBackoff(options_.retry, rng_.split(), options_.sleep, attempt);
  if (outcome.succeeded || last.has_value()) return *last;
  throw NetError("request failed after " + std::to_string(outcome.attempts) +
                 " attempts: " + lastTransportError);
}

HealthStats Client::health() {
  const Frame frame{kHealthRequestFrame, kFrameVersion, std::string()};
  std::optional<HealthStats> stats;
  std::string lastTransportError = "no attempt made";
  const auto attempt = [&]() -> bool {
    try {
      std::optional<Frame> reply = exchange(frame);
      if (!reply || reply->type != kHealthResponseFrame) {
        lastTransportError = "no health response";
        return false;
      }
      stats = decodeHealthStats(reply->payload);
      return true;
    } catch (const NetError& err) {
      lastTransportError = err.what();
      return false;
    }
  };
  const RetryOutcome outcome =
      retryWithBackoff(options_.retry, rng_.split(), options_.sleep, attempt);
  if (outcome.succeeded) return *stats;
  throw NetError("health probe failed after " +
                 std::to_string(outcome.attempts) +
                 " attempts: " + lastTransportError);
}

}  // namespace dynsched::serve
