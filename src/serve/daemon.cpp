#include "serve/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iterator>
#include <stdexcept>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/env.hpp"
#include "common/require.hpp"
#include "obs/log.hpp"
#include "serve/frame_io.hpp"

namespace adse::serve {

namespace {

using eval::EvalError;
using eval::EvalRequest;
using eval::EvalResponse;
using eval::EvalStatus;
using eval::ResultSource;
namespace wire = eval::wire;

/// SIGTERM self-pipe write end. A signal handler may only touch
/// async-signal-safe state; write(2) to a pre-opened pipe is the classic
/// safe hand-off to the watcher thread, which does the real drain.
std::atomic<int> g_sigterm_pipe_fd{-1};

void sigterm_handler(int) {
  const int fd = g_sigterm_pipe_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'd';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

}  // namespace

DaemonOptions DaemonOptions::from_env() {
  DaemonOptions options;
  options.socket_path = serve_socket_path();
  options.workers = static_cast<int>(serve_workers());
  options.service = eval::ServiceConfig::from_env();
  options.service.store_path = cache_dir() + "/eval_store.bin";
  return options;
}

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  ADSE_REQUIRE_MSG(!options_.socket_path.empty(),
                   "daemon needs a socket path");
  service_ = std::make_unique<eval::EvalService>(options_.service);
  if (options_.routed) {
    fused_ = std::make_unique<eval::FusedModel>(
        options_.service.fused_options());
  }
  auto& registry = service_->metrics();
  connections_total_ = &registry.counter("serve.connections");
  frames_bad_ = &registry.counter("serve.frames_bad");
  requests_served_ = &registry.counter("serve.requests");
  requests_rejected_ = &registry.counter("serve.rejected");
  request_ns_ = &registry.histogram("serve.request_ns");
}

Daemon::~Daemon() {
  if (listen_fd_ >= 0) {
    drain();
    wait();
  }
  if (watcher_.joinable()) watcher_.join();
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void Daemon::start() {
  ADSE_REQUIRE_MSG(listen_fd_ < 0, "daemon already started");

  ADSE_REQUIRE_MSG(::pipe(wake_pipe_) == 0, "self-pipe creation failed");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ADSE_REQUIRE_MSG(options_.socket_path.size() < sizeof(addr.sun_path),
                   "socket path too long: " << options_.socket_path);
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ADSE_REQUIRE_MSG(listen_fd_ >= 0, "socket() failed: " << strerror(errno));
  // A crashed daemon leaves its socket file behind; binding over it is the
  // recovery path (connect() to the stale file fails, so no live daemon can
  // be squatting on it).
  ::unlink(options_.socket_path.c_str());
  ADSE_REQUIRE_MSG(
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind(" << options_.socket_path << ") failed: " << strerror(errno));
  ADSE_REQUIRE_MSG(::listen(listen_fd_, 128) == 0,
                   "listen failed: " << strerror(errno));

  const int n = options_.workers > 0
                    ? options_.workers
                    : (serve_workers() > 0
                           ? static_cast<int>(serve_workers())
                           : static_cast<int>(num_threads()));
  for (int w = 0; w < n; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->dispatched = &service_->metrics().counter(
        "serve.shard" + std::to_string(w) + ".dispatched");
    workers_.push_back(std::move(worker));
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }

  if (options_.handle_sigterm) {
    g_sigterm_pipe_fd.store(wake_pipe_[1], std::memory_order_relaxed);
    struct sigaction action{};
    action.sa_handler = sigterm_handler;
    ::sigaction(SIGTERM, &action, nullptr);
  }

  watcher_ = std::thread([this] { watcher_loop(); });
  acceptor_ = std::thread([this] { accept_loop(); });

  if (options_.verbose) {
    obs::logf(obs::LogLevel::kInfo,
              "[serve] listening on %s (%zu workers%s)\n",
              options_.socket_path.c_str(), workers_.size(),
              options_.routed ? ", routed" : "");
  }
}

void Daemon::wait() {
  std::unique_lock<std::mutex> lock(drained_mutex_);
  drained_cv_.wait(lock, [this] { return drained_.load(); });
}

void Daemon::drain() {
  // Hand off to the watcher thread: drain_impl joins readers and the
  // acceptor, so it must never run on one of them (a reader handling a
  // kDrain frame calls this).
  const char byte = 'd';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Daemon::watcher_loop() {
  char byte;
  while (true) {
    const ssize_t n = ::read(wake_pipe_[0], &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    break;  // a byte (drain request) or pipe closed — either way, drain
  }
  drain_impl();
}

void Daemon::drain_impl() {
  if (drained_.load()) return;
  draining_.store(true);

  // Stop the acceptor: shutdown unblocks accept(2) with an error.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();

  // Let every queued request finish. Readers reject new evaluations once
  // `draining_` is set (checked under the worker mutex), so the queues only
  // shrink from here.
  for (auto& worker : workers_) {
    std::unique_lock<std::mutex> lock(worker->mutex);
    worker->cv.wait(lock,
                    [&worker] { return worker->queue.empty() && !worker->busy; });
  }
  stop_workers_.store(true);
  for (auto& worker : workers_) worker->cv.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }

  service_->flush();

  // Now tear down the connections; clients see EOF after the last response.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) {
    conn->open.store(false);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
    ::close(conn->fd);
  }
  ::close(listen_fd_);
  ::unlink(options_.socket_path.c_str());

  if (options_.verbose) {
    obs::logf(obs::LogLevel::kInfo, "[serve] drained: %s\n",
              service_->summary_line().c_str());
  }
  {
    std::lock_guard<std::mutex> lock(drained_mutex_);
    drained_.store(true);
  }
  drained_cv_.notify_all();
}

void Daemon::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (drain)
    }
    if (draining_.load()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    connections_total_->add(1);
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void Daemon::reader_loop(std::shared_ptr<Connection> conn) {
  FrameReader reader;
  // One receive's eval requests, grouped by shard (one entry per worker).
  std::vector<std::vector<Job>> groups(workers_.size());
  while (conn->open.load()) {
    const ssize_t n = reader.receive(conn->fd);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: client went away

    // Decode every complete frame of this receive in place.
    while (true) {
      wire::Frame frame;
      const wire::DecodeStatus status = reader.next(frame);
      if (status == wire::DecodeStatus::kNeedMore) break;
      if (status != wire::DecodeStatus::kOk) {
        // Corrupt stream: no resync is possible (frame boundaries are
        // gone), so mirror the result store's torn-tail discipline — queue
        // what arrived intact, tell the client what happened, then close.
        flush_groups(conn, groups);
        frames_bad_->add(1);
        send_error(conn, 0, wire::decode_status_to_eval(status),
                   std::string("frame rejected: ") +
                       wire::decode_status_name(status));
        conn->open.store(false);
        break;
      }
      if (frame.type == wire::FrameType::kEvalRequest) {
        group_request(conn, frame, groups);
        continue;
      }
      // Requests that came before a control frame are queued before it is
      // handled, so evals pipelined ahead of a kDrain are still served.
      flush_groups(conn, groups);
      if (!handle_control(conn, frame)) {
        conn->open.store(false);
        break;
      }
    }
    flush_groups(conn, groups);
  }
  conn->open.store(false);
  // Half-close so the peer sees EOF (a unix socket still delivers the error
  // frame already written above before the EOF). Workers that race a late
  // response onto this fd find the connection closed and drop it.
  ::shutdown(conn->fd, SHUT_RDWR);
}

void Daemon::group_request(const std::shared_ptr<Connection>& conn,
                           const wire::Frame& frame,
                           std::vector<std::vector<Job>>& groups) {
  EvalRequest request;
  std::uint64_t shard_hash = 0;
  if (!wire::decode_request(frame.payload, request, &shard_hash)) {
    // The frame checksum held, so the stream is intact — reject the
    // malformed or out-of-range request but keep the connection.
    frames_bad_->add(1);
    send_error(conn, frame.id, EvalStatus::kBadRequest,
               "malformed request payload");
    return;
  }
  const std::size_t shard =
      static_cast<std::size_t>(shard_hash % workers_.size());
  groups[shard].push_back({conn, frame.id, std::move(request)});
}

void Daemon::flush_groups(const std::shared_ptr<Connection>& conn,
                          std::vector<std::vector<Job>>& groups) {
  for (std::size_t shard = 0; shard < groups.size(); ++shard) {
    std::vector<Job>& group = groups[shard];
    if (group.empty()) continue;
    const std::size_t count = group.size();
    Worker& worker = *workers_[shard];
    bool rejected = false;
    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      // Checked under the queue lock so drain's empty-wait (same lock)
      // either sees this group or this thread sees `draining_`.
      rejected = draining_.load();
      if (!rejected) {
        worker.queue.insert(worker.queue.end(),
                            std::make_move_iterator(group.begin()),
                            std::make_move_iterator(group.end()));
      }
    }
    if (rejected) {
      requests_rejected_->add(count);
      std::string bytes;
      for (const Job& job : group) {
        wire::append_frame(
            bytes, wire::FrameType::kError, job.frame_id,
            wire::encode_error({EvalStatus::kDraining, "server is draining"}));
      }
      send_bytes(*conn, bytes);
    } else {
      worker.dispatched->add(count);
      // notify_all: drain's empty-wait shares this cv, and a notify_one
      // that woke the drain thread instead would leave the worker asleep.
      worker.cv.notify_all();
    }
    group.clear();
  }
}

bool Daemon::handle_control(const std::shared_ptr<Connection>& conn,
                            const wire::Frame& frame) {
  switch (frame.type) {
    case wire::FrameType::kPing:
      send_frame(conn, wire::FrameType::kPong, frame.id, {});
      return true;
    case wire::FrameType::kStats:
      send_frame(conn, wire::FrameType::kStatsReply, frame.id,
                 service_->metrics().render_json());
      return true;
    case wire::FrameType::kDrain:
      // Ack first — the drain below closes this connection.
      send_frame(conn, wire::FrameType::kPong, frame.id, {});
      drain();
      return true;
    default:
      // A frame type only servers send (or an unknown one): the peer is
      // confused about the protocol — close.
      frames_bad_->add(1);
      send_error(conn, frame.id, EvalStatus::kBadFrame,
                 "unexpected frame type");
      return false;
  }
}

void Daemon::worker_loop(std::size_t index) {
  Worker& worker = *workers_[index];
  std::vector<Job> jobs;
  std::vector<Outgoing> outgoing;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(worker.mutex);
      worker.cv.wait(lock, [&] {
        return !worker.queue.empty() || stop_workers_.load();
      });
      if (worker.queue.empty()) return;  // stop requested, queue drained
      jobs.swap(worker.queue);
      worker.busy = true;
    }
    answer(jobs, outgoing);
    jobs.clear();
    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      worker.busy = false;
    }
    worker.cv.notify_all();  // wake drain's empty-wait
  }
}

void Daemon::answer(std::vector<Job>& jobs, std::vector<Outgoing>& outgoing) {
  // outgoing[0, used) holds the connections with unsent responses in
  // first-seen order; entries past `used` keep their buffers' capacity.
  // The jobs keep every connection alive until this returns.
  std::size_t used = 0;
  const auto send_pending = [&] {
    for (std::size_t i = 0; i < used; ++i) {
      send_bytes(*outgoing[i].conn, outgoing[i].bytes);
      outgoing[i].conn = nullptr;
    }
    used = 0;
  };
  for (Job& job : jobs) {
    const auto started = std::chrono::steady_clock::now();
    EvalResponse response;
    try {
      const std::span<const EvalRequest> one(&job.request, 1);
      eval::EvalPolicy policy;
      std::unique_lock<std::mutex> lock(fused_mutex_, std::defer_lock);
      if (fused_ != nullptr && job.request.allow_surrogate) {
        // Routed: FusedModel refits are not thread-safe across workers, so
        // routed singles serialize on the model mutex. Real-sim time dwarfs
        // the gate, and surrogate answers are microseconds.
        lock.lock();
        policy.fused = fused_.get();
      }
      response = std::move(service_->evaluate(one, policy).front());
    } catch (const std::exception& err) {
      // Model failures come back as data; nothing else may end the worker.
      response = EvalResponse{};
      response.status = EvalStatus::kInternal;
      response.error = err.what();
    }
    requests_served_->add(1);
    request_ns_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - started)
            .count()));

    if (job.conn->open.load()) {
      const auto it = std::find_if(
          outgoing.begin(),
          outgoing.begin() + static_cast<std::ptrdiff_t>(used),
          [&job](const Outgoing& out) { return out.conn == job.conn.get(); });
      Outgoing* out = nullptr;
      if (it != outgoing.begin() + static_cast<std::ptrdiff_t>(used)) {
        out = &*it;
      } else {
        if (used == outgoing.size()) outgoing.emplace_back();
        out = &outgoing[used++];
        out->conn = job.conn.get();
        out->bytes.clear();
      }
      wire::append_response(out->bytes, job.frame_id, response);
    }
    // Hits take microseconds, so a run of them shares one send per
    // connection. Anything else may have waited on a backend run: send it
    // and everything pending now, so no answer waits behind a later run in
    // this batch and a client's per-frame deadline covers one run at most.
    const bool hit = response.ok() && (response.source == ResultSource::kMemo ||
                                       response.source == ResultSource::kStore);
    if (!hit) send_pending();
  }
  send_pending();
}

void Daemon::send_frame(const std::shared_ptr<Connection>& conn,
                        wire::FrameType type, std::uint64_t id,
                        std::string_view payload) {
  send_bytes(*conn, wire::encode_frame(type, id, payload));
}

void Daemon::send_bytes(Connection& conn, std::string_view bytes) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (!conn.open.load()) return;
  if (!send_all(conn.fd, bytes.data(), bytes.size())) conn.open.store(false);
}

void Daemon::send_error(const std::shared_ptr<Connection>& conn,
                        std::uint64_t id, EvalStatus status,
                        const std::string& message) {
  send_frame(conn, wire::FrameType::kError, id,
             wire::encode_error({status, message}));
}

}  // namespace adse::serve
