#include "serve/client.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/env.hpp"
#include "common/require.hpp"
#include "serve/frame_io.hpp"

namespace adse::serve {

namespace {

using eval::EvalRequest;
using eval::EvalResponse;
using eval::EvalStatus;
namespace wire = eval::wire;

EvalResponse failed_response(EvalStatus status, std::string message) {
  EvalResponse out;
  out.status = status;
  out.error = std::move(message);
  return out;
}

}  // namespace

ClientOptions ClientOptions::from_env() {
  ClientOptions options;
  options.socket_path = serve_socket_path();
  return options;
}

EvalClient::EvalClient(ClientOptions options) : options_(std::move(options)) {
  ADSE_REQUIRE_MSG(!options_.socket_path.empty(),
                   "client needs a socket path");
}

EvalClient::~EvalClient() { disconnect(); }

bool EvalClient::ensure_connected() {
  if (fd_ >= 0) return true;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) return false;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  // One connect attempt per retry budget slot: a daemon restarting after a
  // drain needs a beat to unlink + rebind before its successor accepts.
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.retry_backoff_ms));
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      fd_ = fd;
      reader_.clear();
      return true;
    }
    ::close(fd);
  }
  return false;
}

void EvalClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.clear();
}

bool EvalClient::read_frame(wire::Frame& frame, EvalStatus& status) {
  // The deadline starts when the client first has to wait: a frame already
  // in the receive buffer costs no clock read.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  while (true) {
    const wire::DecodeStatus decode = reader_.next(frame);
    if (decode == wire::DecodeStatus::kOk) return true;
    if (decode != wire::DecodeStatus::kNeedMore) {
      // Corrupt response stream — unrecoverable, same as the server side.
      status = wire::decode_status_to_eval(decode);
      return false;
    }

    const auto now = std::chrono::steady_clock::now();
    if (!deadline) {
      deadline = now + std::chrono::milliseconds(
                           options_.timeout_ms > 0 ? options_.timeout_ms
                                                   : 1 << 30);
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(*deadline - now);
    if (remaining.count() <= 0) {
      status = EvalStatus::kTimeout;
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(
                            std::min<long long>(remaining.count(), 1 << 30)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) {
      status = EvalStatus::kTimeout;
      return false;
    }
    const ssize_t n = reader_.receive(fd_);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      status = EvalStatus::kDisconnected;
      return false;
    }
  }
}

std::vector<EvalResponse> EvalClient::evaluate(
    std::span<const EvalRequest> requests) {
  std::vector<EvalResponse> out(requests.size());
  std::vector<bool> answered(requests.size(), false);
  if (requests.empty()) return out;

  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (!ensure_connected()) break;

    // Pipeline phase: every unanswered request goes out before the first
    // response is read, under consecutive fresh frame ids per attempt (a
    // response from a pre-retry incarnation can never be mistaken for a new
    // one). index_of[id - first_id] is the request a frame id answers.
    const std::uint64_t first_id = next_id_;
    std::vector<std::size_t> index_of;
    batch_.clear();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (answered[i]) continue;
      index_of.push_back(i);
      wire::append_request(batch_, next_id_++, requests[i]);
    }
    if (!send_all(fd_, batch_.data(), batch_.size())) {
      disconnect();
      continue;  // retry budget spent on the reconnect
    }

    // The unanswered request a frame id names, or nullopt (stale/unknown).
    const auto pending_index =
        [&](std::uint64_t id) -> std::optional<std::size_t> {
      if (id < first_id || id - first_id >= index_of.size()) return {};
      const std::size_t index = index_of[id - first_id];
      if (answered[index]) return {};
      return index;
    };
    // Answers every request still pending with one failure.
    const auto fail_pending = [&](EvalStatus status,
                                  const std::string& message) {
      for (const std::size_t index : index_of) {
        if (answered[index]) continue;
        out[index] = failed_response(status, message);
        answered[index] = true;
      }
    };

    std::size_t pending = index_of.size();
    bool retry = false;
    while (pending > 0 && !retry) {
      wire::Frame frame;
      EvalStatus fail = EvalStatus::kInternal;
      if (!read_frame(frame, fail)) {
        if (fail == EvalStatus::kDisconnected) {
          retry = true;  // daemon died/drained under us: reconnect + resend
          disconnect();
          break;
        }
        // Timeout or corrupt stream: answer everything still pending with
        // the failure and stop — retrying a timeout would double the wait,
        // and a corrupt stream has no frame boundaries left to retry on.
        fail_pending(fail,
                     std::string("no response: ") + eval::status_name(fail));
        disconnect();
        return out;
      }

      if (frame.type == wire::FrameType::kEvalResponse) {
        const auto index = pending_index(frame.id);
        if (!index) continue;  // stale duplicate: ignore
        // Decoded in place: the payload views the receive buffer.
        if (!wire::decode_response(frame.payload, out[*index])) {
          out[*index] = failed_response(EvalStatus::kBadFrame,
                                        "malformed response payload");
        }
        answered[*index] = true;
        --pending;
      } else if (frame.type == wire::FrameType::kError) {
        eval::EvalError error;
        if (!wire::decode_error(frame.payload, error)) {
          error = {EvalStatus::kBadFrame, "malformed error payload"};
        }
        if (error.status == EvalStatus::kDraining) {
          // The daemon is shutting down; whatever is still pending gets
          // resent to its successor (the warm store makes that cheap).
          retry = true;
          disconnect();
          break;
        }
        if (const auto index = pending_index(frame.id)) {
          out[*index] = failed_response(error.status, error.message);
          answered[*index] = true;
          --pending;
        } else {
          // Connection-level error (id 0): everything pending is dead.
          fail_pending(error.status, error.message);
          disconnect();
          return out;
        }
      }
      // Control frames (stray pong) are ignored.
    }
    if (!retry) return out;
  }

  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!answered[i]) {
      out[i] = failed_response(EvalStatus::kDisconnected,
                               "daemon unreachable after retries");
    }
  }
  return out;
}

bool EvalClient::control_roundtrip(wire::FrameType send_type,
                                   wire::FrameType want_type,
                                   std::string* payload) {
  if (!ensure_connected()) return false;
  const std::uint64_t id = next_id_++;
  const std::string frame_bytes = wire::encode_frame(send_type, id, {});
  if (!send_all(fd_, frame_bytes.data(), frame_bytes.size())) {
    disconnect();
    return false;
  }
  while (true) {
    wire::Frame frame;
    EvalStatus fail = EvalStatus::kInternal;
    if (!read_frame(frame, fail)) {
      disconnect();
      return false;
    }
    if (frame.type == want_type && frame.id == id) {
      if (payload != nullptr) payload->assign(frame.payload);
      return true;
    }
    if (frame.type == wire::FrameType::kError) {
      disconnect();
      return false;
    }
    // Anything else (late eval responses from an abandoned batch): skip.
  }
}

bool EvalClient::ping() {
  return control_roundtrip(wire::FrameType::kPing, wire::FrameType::kPong,
                           nullptr);
}

std::string EvalClient::stats() {
  std::string payload;
  if (!control_roundtrip(wire::FrameType::kStats,
                         wire::FrameType::kStatsReply, &payload)) {
    return {};
  }
  return payload;
}

bool EvalClient::drain_server() {
  return control_roundtrip(wire::FrameType::kDrain, wire::FrameType::kPong,
                           nullptr);
}

}  // namespace adse::serve
