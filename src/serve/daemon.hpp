#pragma once
/// \file daemon.hpp
/// Eval-as-a-service: a daemon owning one `EvalService` (memo shards, result
/// store, optional fused surrogate) and serving evaluations to any number of
/// client processes over a unix-domain socket — the shape the paper's
/// 180,006-config campaign ran in (evaluation as a remote, shared service on
/// 640 cluster cores) and NeuroScalar's "simulation serving" framing.
///
/// Threading model (DESIGN.md §15):
///
///   acceptor ──> one reader thread per connection ──> N worker queues
///                                   │                      │
///                control frames     │                      └─ worker calls
///                (ping/stats/drain) ┘                         EvalService
///
/// Requests are sharded to worker `wire::request_shard_hash(r) % N`, so
/// identical configs from different clients serialize on one worker and
/// coalesce on the service's claim-latch memo — M clients asking for the same
/// point cost exactly one backend run, same guarantee as in-process callers.
///
/// The read path pays per batch of frames, not per request: a reader decodes
/// every frame of one receive in place, groups its eval requests by shard and
/// hands each group to its worker under one lock with one notify. A worker
/// wakes, swaps out its whole queue, answers each job with `evaluate` on a
/// span of one, and packs the responses for each connection into one buffer
/// written with one send under that connection's write lock. A run of memo
/// or store hits shares one send; any other response (a backend run, a
/// joined run, an error) is sent at once with everything pending, so no
/// answer waits behind a later run in the batch. Readers never block on
/// evaluations.
///
/// Drain (SIGTERM or a kDrain frame): stop accepting, answer new eval
/// frames with kDraining, let the workers finish every queued request, flush
/// the store, then close connections and unlink the socket. A client that
/// sees kDraining retries against the next daemon; nothing in flight is
/// dropped. The signal handler itself only writes one byte to a self-pipe —
/// the watcher thread does the actual drain, so no async-signal-unsafe call
/// runs in signal context.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/fused.hpp"
#include "eval/service.hpp"
#include "eval/wire.hpp"

namespace adse::serve {

struct DaemonOptions {
  /// Unix-socket path the daemon listens on. A stale socket file from a
  /// crashed daemon is unlinked on bind.
  std::string socket_path;
  /// Worker threads serving evaluations; 0 inherits ADSE_SERVE_WORKERS
  /// (itself defaulting to ADSE_THREADS).
  int workers = 0;
  /// Eval-service configuration (store path, pool threads, registry, ...).
  eval::ServiceConfig service;
  /// Serve the routed (surrogate-gated) path: requests with allow_surrogate
  /// may be answered by a fused model trained online on this daemon's own
  /// real-sim results. Off = every request simulates (bit-identical).
  bool routed = false;
  /// Install a SIGTERM handler that triggers a graceful drain.
  bool handle_sigterm = false;
  bool verbose = false;

  /// Env-derived defaults: ADSE_SERVE_SOCKET, ADSE_SERVE_WORKERS, and the
  /// service knobs via ServiceConfig::from_env() (store under cache dir).
  static DaemonOptions from_env();
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  /// Drains (if still running) and joins everything.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds + listens and starts the acceptor/watcher/worker threads.
  /// Returns once the socket accepts connections (clients may connect
  /// immediately after).
  void start();

  /// Blocks until the daemon has drained (kDrain frame, SIGTERM, or a
  /// drain() call from another thread).
  void wait();

  /// Graceful drain; idempotent, callable from any thread (including a
  /// reader's control path — the teardown runs on the watcher thread).
  void drain();

  const std::string& socket_path() const { return options_.socket_path; }
  std::size_t workers() const { return workers_.size(); }
  eval::EvalService& service() { return *service_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mutex;  ///< responses from N workers interleave
    std::atomic<bool> open{true};
    std::thread reader;
  };

  struct Job {
    std::shared_ptr<Connection> conn;
    std::uint64_t frame_id = 0;
    eval::EvalRequest request;
  };

  /// One connection's share of a worker's batch: its encoded responses.
  struct Outgoing {
    Connection* conn = nullptr;
    std::string bytes;
  };

  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Job> queue;
    bool busy = false;  ///< a swapped-out batch is still being answered
    std::thread thread;
    obs::Counter* dispatched = nullptr;  ///< "serve.shardN.dispatched"
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop(std::size_t index);
  void watcher_loop();
  void drain_impl();

  /// Decodes one eval request frame into its shard's group (`groups` has one
  /// entry per worker); a malformed request is answered kBadRequest at once.
  void group_request(const std::shared_ptr<Connection>& conn,
                     const eval::wire::Frame& frame,
                     std::vector<std::vector<Job>>& groups);

  /// Hands every non-empty group to its worker (one lock, one notify each),
  /// or answers the whole group kDraining once the daemon drains.
  void flush_groups(const std::shared_ptr<Connection>& conn,
                    std::vector<std::vector<Job>>& groups);

  /// Handles one intact control frame from `conn`; returns false when the
  /// connection must close (error frames already sent).
  bool handle_control(const std::shared_ptr<Connection>& conn,
                      const eval::wire::Frame& frame);

  /// Answers one swapped-out batch of jobs. Each connection's responses go
  /// out in one send at the end of the batch, or earlier, right after any
  /// response that was not a memo or store hit. `outgoing` is the worker's
  /// reusable buffers.
  void answer(std::vector<Job>& jobs, std::vector<Outgoing>& outgoing);

  /// Sends encoded frames on the connection under its write lock; a failed
  /// send marks the connection closed.
  void send_bytes(Connection& conn, std::string_view bytes);

  /// Serializes + sends one frame on the connection (write-locked).
  void send_frame(const std::shared_ptr<Connection>& conn,
                  eval::wire::FrameType type, std::uint64_t id,
                  std::string_view payload);

  void send_error(const std::shared_ptr<Connection>& conn, std::uint64_t id,
                  eval::EvalStatus status, const std::string& message);

  DaemonOptions options_;
  std::unique_ptr<eval::EvalService> service_;
  std::unique_ptr<eval::FusedModel> fused_;  ///< present when options_.routed
  std::mutex fused_mutex_;  ///< routed singles from N workers serialize

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: signal handler -> watcher
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_workers_{false};
  std::atomic<bool> drained_{false};
  std::mutex drained_mutex_;
  std::condition_variable drained_cv_;

  std::thread acceptor_;
  std::thread watcher_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  obs::Counter* connections_total_ = nullptr;
  obs::Counter* frames_bad_ = nullptr;
  obs::Counter* requests_served_ = nullptr;
  obs::Counter* requests_rejected_ = nullptr;
  obs::Histogram* request_ns_ = nullptr;
};

}  // namespace adse::serve
