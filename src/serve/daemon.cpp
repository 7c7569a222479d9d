#include "serve/daemon.hpp"

#include <csignal>
#include <cstring>
#include <chrono>
#include <stdexcept>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/env.hpp"
#include "common/require.hpp"
#include "obs/log.hpp"

namespace adse::serve {

namespace {

using eval::EvalError;
using eval::EvalRequest;
using eval::EvalResponse;
using eval::EvalStatus;
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

/// Sends all of `data`, tolerating short writes. MSG_NOSIGNAL: a peer that
/// vanished turns into an error return, not a process-wide SIGPIPE.
bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
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
  std::string buffer;
  char chunk[1 << 16];
  while (conn->open.load()) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: client went away
    buffer.append(chunk, static_cast<std::size_t>(n));

    // Drain every complete frame at the head of the buffer.
    while (true) {
      wire::Frame frame;
      std::size_t consumed = 0;
      const wire::DecodeStatus status =
          wire::try_decode(buffer, frame, consumed);
      if (status == wire::DecodeStatus::kNeedMore) break;
      if (status != wire::DecodeStatus::kOk) {
        // Corrupt stream: no resync is possible (frame boundaries are
        // gone), so mirror the result store's torn-tail discipline — tell
        // the client what happened, then close.
        frames_bad_->add(1);
        send_error(conn, 0, wire::decode_status_to_eval(status),
                   std::string("frame rejected: ") +
                       wire::decode_status_name(status));
        conn->open.store(false);
        break;
      }
      if (!handle_frame(conn, frame)) {
        conn->open.store(false);
        break;
      }
      buffer.erase(0, consumed);
    }
  }
  conn->open.store(false);
  // Half-close so the peer sees EOF (a unix socket still delivers the error
  // frame already written above before the EOF). Workers that race a late
  // response onto this fd get EPIPE, which send_all swallows.
  ::shutdown(conn->fd, SHUT_RDWR);
}

bool Daemon::handle_frame(const std::shared_ptr<Connection>& conn,
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
    case wire::FrameType::kEvalRequest: {
      EvalRequest request;
      if (!wire::decode_request(frame.payload, request)) {
        // The frame checksum held, so the stream is intact — reject the
        // malformed or out-of-range request but keep the connection.
        frames_bad_->add(1);
        send_error(conn, frame.id, EvalStatus::kBadRequest,
                   "malformed request payload");
        return true;
      }
      const std::size_t shard = static_cast<std::size_t>(
          wire::request_shard_hash(request) % workers_.size());
      Worker& worker = *workers_[shard];
      {
        std::lock_guard<std::mutex> lock(worker.mutex);
        // Checked under the queue lock so drain's empty-wait (same lock)
        // either sees this job or this thread sees `draining_`.
        if (draining_.load()) {
          requests_rejected_->add(1);
          send_error(conn, frame.id, EvalStatus::kDraining,
                     "server is draining");
          return true;
        }
        worker.queue.push_back({conn, frame.id, std::move(request)});
      }
      worker.dispatched->add(1);
      worker.cv.notify_one();
      return true;
    }
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
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(worker.mutex);
      worker.cv.wait(lock, [&] {
        return !worker.queue.empty() || stop_workers_.load();
      });
      if (worker.queue.empty()) return;  // stop requested, queue drained
      job = std::move(worker.queue.front());
      worker.queue.pop_front();
      worker.busy = true;
    }

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
      send_frame(job.conn, wire::FrameType::kEvalResponse, job.frame_id,
                 wire::encode_response(response));
    }

    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      worker.busy = false;
    }
    worker.cv.notify_all();  // wake drain's empty-wait as well as producers
  }
}

void Daemon::send_frame(const std::shared_ptr<Connection>& conn,
                        wire::FrameType type, std::uint64_t id,
                        std::string_view payload) {
  const std::string frame = wire::encode_frame(type, id, payload);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (!conn->open.load()) return;
  if (!send_all(conn->fd, frame.data(), frame.size())) {
    conn->open.store(false);
  }
}

void Daemon::send_error(const std::shared_ptr<Connection>& conn,
                        std::uint64_t id, EvalStatus status,
                        const std::string& message) {
  send_frame(conn, wire::FrameType::kError, id,
             wire::encode_error({status, message}));
}

}  // namespace adse::serve
