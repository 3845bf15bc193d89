#include "dynsched/serve/server.hpp"

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dynsched/util/error.hpp"
#include "dynsched/util/logging.hpp"
#include "dynsched/util/signals.hpp"

namespace dynsched::serve {

namespace {

Listener bindListener(const ServerOptions& options) {
  if (!options.unixPath.empty()) {
    return Listener::listenUnix(options.unixPath);
  }
  return Listener::listenTcp(options.tcpPort);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(options_.service),
      listener_(bindListener(options_)),
      pool_(static_cast<unsigned>(
          options_.ioThreads < 1 ? 1 : options_.ioThreads)) {
  armNetFaults(service_.options().faults
                   ? *service_.options().faults
                   : util::FaultPlan::fromEnv());
}

Server::~Server() { pool_.shutdown(); }

void Server::run() {
  std::vector<std::future<void>> connections;
  while (!stopRequested_.load(std::memory_order_relaxed) &&
         !util::interruptRequested()) {
    std::optional<Socket> accepted = listener_.acceptOnce(
        options_.pollIntervalMs);
    // Prune finished connections so a long-running daemon's bookkeeping
    // stays bounded by the live connection count.
    std::erase_if(connections, [](std::future<void>& connection) {
      return connection.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
    if (!accepted) continue;
    if (activeConnections_.load(std::memory_order_relaxed) >=
        options_.maxConnections) {
      // One structured Overloaded answer, then close: the client's retry
      // policy backs off exactly as it does for an admission shed.
      ScheduleResponse shed;
      shed.status = ResponseStatus::Overloaded;
      shed.message = "connection limit reached; retry with backoff";
      try {
        accepted->sendFrame(Frame{kScheduleResponseFrame, kFrameVersion,
                                  encodeScheduleResponse(shed)});
      } catch (const NetError& err) {
        DYNSCHED_LOG(Warn) << "shed notification failed: " << err.what();
      }
      continue;
    }
    activeConnections_.fetch_add(1, std::memory_order_relaxed);
    auto socket = std::make_shared<Socket>(std::move(*accepted));
    connections.push_back(pool_.submit([this, socket] {
      serveConnection(std::move(*socket));
      activeConnections_.fetch_sub(1, std::memory_order_relaxed);
    }));
    wakeParked();
  }
  // Graceful drain: stop accepting (done — we left the loop), finish or
  // ladder down everything in flight, let every connection flush its final
  // response, then checkpoint the journal.
  service_.drain();
  for (std::future<void>& connection : connections) connection.wait();
  pool_.shutdown();
}

bool Server::connectionWaiting() const {
  return activeConnections_.load(std::memory_order_relaxed) > pool_.size();
}

bool Server::park(Socket& socket) {
  const util::MutexLock lock(parkedMutex_);
  if (connectionWaiting()) return false;
  parked_.push_back(&socket);
  return true;
}

void Server::unpark(Socket& socket) {
  const util::MutexLock lock(parkedMutex_);
  std::erase(parked_, &socket);
}

void Server::wakeParked() {
  const util::MutexLock lock(parkedMutex_);
  if (parked_.empty() || !connectionWaiting()) return;
  // The longest-parked connection goes first. Its handler cannot close the
  // socket before it unparks, which takes this lock.
  parked_.front()->shutdownRead();
  parked_.erase(parked_.begin());
}

void Server::serveConnection(Socket socket) {
  bool answered = false;
  try {
    while (socket.valid()) {
      // Once answered, the connection gives its thread up to a waiting
      // connection: at once if one waits (so under contention every
      // connection gets one answer per turn, in pool order), and otherwise
      // it idles parked, where the accept loop wakes it when one is queued.
      bool readable = true;
      if (answered) {
        if (!park(socket)) return;
        try {
          readable = socket.waitReadable(options_.pollIntervalMs);
        } catch (const NetError&) {
          unpark(socket);  // before the socket closes on the way out
          throw;
        }
        unpark(socket);
      }
      std::optional<Frame> frame;
      if (readable) frame = socket.recvFrame(options_.pollIntervalMs);
      if (!frame) {
        // Clean EOF ends the connection (a woken parked one reads EOF too);
        // a poll timeout ends it once the server is draining (a quiet
        // client must not block drain).
        if (service_.draining() ||
            stopRequested_.load(std::memory_order_relaxed) ||
            util::interruptRequested()) {
          return;
        }
        continue;
      }
      if (frame->type == kScheduleRequestFrame) {
        ScheduleResponse response;
        try {
          const ScheduleRequest request = decodeScheduleRequest(
              frame->payload);
          response = service_.handle(request);
          response.clientRequestId = request.clientRequestId;
        } catch (const util::JournalError& err) {
          response = service_.malformedResponse(err.what());
        } catch (const CheckError& err) {
          response = service_.malformedResponse(err.what());
        }
        socket.sendFrame(Frame{kScheduleResponseFrame, kFrameVersion,
                               encodeScheduleResponse(response)});
        // After a drain began, close once the in-flight answer is flushed —
        // a chatty client must not keep the connection alive forever.
        if (service_.draining()) return;
      } else if (frame->type == kHealthRequestFrame) {
        socket.sendFrame(Frame{kHealthResponseFrame, kFrameVersion,
                               encodeHealthStats(service_.health())});
      } else {
        const ScheduleResponse response = service_.malformedResponse(
            "unknown frame type " + std::to_string(frame->type));
        socket.sendFrame(Frame{kScheduleResponseFrame, kFrameVersion,
                               encodeScheduleResponse(response)});
      }
      answered = true;
    }
  } catch (const NetError& err) {
    // One connection's transport trouble (torn frame, injected fault, dying
    // peer) never touches the others: log, close, let the client retry.
    DYNSCHED_LOG(Warn) << "connection closed: " << err.what();
  }
}

}  // namespace dynsched::serve
