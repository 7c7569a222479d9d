#pragma once
/// \file client.hpp
/// Socket client for the eval daemon — the other half of the
/// client/server-neutral `eval::Evaluator` interface: code written against
/// `Evaluator` runs unchanged whether it holds an in-process `EvalService`
/// or an `EvalClient` talking to a shared daemon.
///
/// The client is blocking but *pipelined*: `evaluate(span)` writes every
/// request frame before reading the first response, so a batch keeps all N
/// daemon workers busy from one client thread. Responses are matched to
/// requests by frame id and returned in request order.
///
/// Failure handling (per request, never an exception):
///   * per-request timeout            -> EvalStatus::kTimeout
///   * connection lost mid-batch      -> bounded reconnect + resend of the
///     unanswered requests; kDisconnected when retries are exhausted
///   * server draining (kDraining)    -> same bounded retry against the
///     next daemon instance (the restart-reuse path: its warm store answers
///     everything without fresh sims)
///   * torn/corrupt frame from server -> kBadFrame and connection teardown
///
/// One EvalClient is single-threaded by design; concurrent client threads
/// each open their own (connections are cheap, the daemon shards by config
/// hash anyway).

#include <cstdint>
#include <string>
#include <vector>

#include "eval/api.hpp"
#include "eval/wire.hpp"
#include "serve/frame_io.hpp"

namespace adse::serve {

struct ClientOptions {
  /// Unix-socket path of the daemon (ADSE_SERVE_SOCKET via from_env()).
  std::string socket_path;
  /// Per-request timeout; <= 0 waits forever (tests use short ones).
  int timeout_ms = 30000;
  /// Reconnect + resend attempts after a drain or lost connection.
  int max_retries = 3;
  /// Milliseconds between connect attempts (a freshly-killed daemon's
  /// successor needs a beat to bind).
  int retry_backoff_ms = 50;

  static ClientOptions from_env();
};

class EvalClient final : public eval::Evaluator {
 public:
  explicit EvalClient(ClientOptions options);
  ~EvalClient() override;

  EvalClient(const EvalClient&) = delete;
  EvalClient& operator=(const EvalClient&) = delete;

  /// True once a connection is (lazily) established. evaluate()/ping()
  /// connect on demand; this exists for tests.
  bool connected() const { return fd_ >= 0; }

  /// Pipelined batch evaluation over the socket. Always returns
  /// requests.size() responses in request order; transport failures land in
  /// the affected responses' status, never throw.
  std::vector<eval::EvalResponse> evaluate(
      std::span<const eval::EvalRequest> requests) override;

  /// Round-trips a ping; false when the daemon is unreachable.
  bool ping();

  /// Fetches the daemon's metrics snapshot (obs registry JSON). Empty on
  /// transport failure.
  std::string stats();

  /// Asks the daemon to drain and exit; true when the daemon acked.
  bool drain_server();

 private:
  /// Ensures a live connection, with bounded retry. False = unreachable.
  bool ensure_connected();
  void disconnect();

  /// Sends one control frame and waits for the expected reply type.
  bool control_roundtrip(eval::wire::FrameType send_type,
                         eval::wire::FrameType want_type, std::string* payload);

  /// Reads until one complete frame is decoded or the stream dies. The
  /// deadline (timeout_ms) starts when the first receive has to wait. The
  /// frame's payload views the receive buffer and stays valid until the
  /// next read_frame. Returns false on timeout/disconnect/corruption;
  /// `status` reports which.
  bool read_frame(eval::wire::Frame& frame, eval::EvalStatus& status);

  ClientOptions options_;
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  FrameReader reader_;  ///< unparsed bytes carried across read_frame calls
  std::string batch_;   ///< one attempt's request frames; keeps its capacity
};

}  // namespace adse::serve
