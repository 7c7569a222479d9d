/// Eval-as-a-service tests: wire-protocol round trips and fuzzing (hostile
/// bytes must yield clean errors, never crashes or hangs), daemon/client
/// integration over a real unix socket, cross-client coalescing, client
/// retry across a daemon restart, and the SIGTERM-mid-batch teardown
/// regression (forked child must drain and exit 0 with an intact store).

#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "config/baselines.hpp"
#include "eval/result_store.hpp"
#include "eval/wire.hpp"
#include "serve/client.hpp"
#include "serve/frame_io.hpp"

namespace adse::serve {
namespace {

namespace wire = eval::wire;
using eval::EvalRequest;
using eval::EvalResponse;
using eval::EvalStatus;

EvalRequest stream_request(int rob = 0) {
  EvalRequest request{config::thunderx2_baseline(), kernels::App::kStream};
  if (rob > 0) request.config.core.rob_size = rob;
  return request;
}

// --- wire protocol: round trips ---------------------------------------------

TEST(Wire, RequestRoundTripsBitExact) {
  EvalRequest request = stream_request(192);
  request.config.name = "round-trip";
  request.allow_surrogate = false;
  request.app = kernels::App::kMiniBude;

  EvalRequest decoded;
  ASSERT_TRUE(wire::decode_request(wire::encode_request(request), decoded));
  EXPECT_EQ(decoded.app, request.app);
  EXPECT_FALSE(decoded.allow_surrogate);
  EXPECT_EQ(decoded.config.name, "round-trip");
  // The feature vector is the wire representation of the config: a decoded
  // request must key onto exactly the same memo slot.
  EXPECT_EQ(config::feature_vector(decoded.config),
            config::feature_vector(request.config));
}

TEST(Wire, ResponseRoundTripsBitExact) {
  EvalResponse response;
  response.status = EvalStatus::kOk;
  response.source = eval::ResultSource::kStore;
  response.run.app = "stream";
  response.run.config_name = "cfg-7";
  response.run.core.cycles = 123456789;
  response.run.core.retired = 42;
  response.run.core.sve_lane_ops = 7;
  response.run.mem.l1_hits = 99;
  response.run.mem.l2_writes = 3;
  response.run.power.dynamic_j = 1.25e-6;
  response.run.power.leakage_j = 2.5e-7;
  response.run.power.area_mm2 = 3.5;

  EvalResponse decoded;
  ASSERT_TRUE(
      wire::decode_response(wire::encode_response(response), decoded));
  EXPECT_EQ(decoded.status, response.status);
  EXPECT_EQ(decoded.source, response.source);
  EXPECT_EQ(decoded.run.app, "stream");
  EXPECT_EQ(decoded.run.config_name, "cfg-7");
  EXPECT_EQ(decoded.run.core.cycles, 123456789u);
  EXPECT_EQ(decoded.run.core.sve_lane_ops, 7u);
  EXPECT_EQ(decoded.run.mem.l2_writes, 3u);
  EXPECT_DOUBLE_EQ(decoded.run.power.dynamic_j, 1.25e-6);
  EXPECT_DOUBLE_EQ(decoded.run.power.area_mm2, 3.5);
}

TEST(Wire, FrameRoundTrip) {
  const std::string payload = "hello frames";
  const std::string bytes =
      wire::encode_frame(wire::FrameType::kStatsReply, 77, payload);
  wire::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::try_decode(bytes, frame, consumed), wire::DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, wire::FrameType::kStatsReply);
  EXPECT_EQ(frame.id, 77u);
  EXPECT_EQ(frame.payload, payload);
}

// --- wire protocol: fuzzing -------------------------------------------------

TEST(Wire, TruncatedFramesWantMoreBytesNeverCrash) {
  const std::string bytes = wire::encode_frame(
      wire::FrameType::kEvalRequest, 5,
      wire::encode_request(stream_request()));
  // Every proper prefix is an incomplete frame, not an error: a torn read
  // mid-frame must leave the stream waiting, exactly like the result
  // store's torn tail.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    wire::Frame frame;
    std::size_t consumed = 1;
    EXPECT_EQ(wire::try_decode(std::string_view(bytes).substr(0, cut), frame,
                               consumed),
              wire::DecodeStatus::kNeedMore)
        << "prefix length " << cut;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(Wire, BitFlippedFramesRejectCleanly) {
  const std::string pristine = wire::encode_frame(
      wire::FrameType::kEvalRequest, 9,
      wire::encode_request(stream_request()));
  // Flip one bit at a time across the whole frame: every corruption must be
  // detected (magic/version/length checks or the checksum trailer) — none
  // may decode as a valid frame.
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    std::string corrupt = pristine;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x10);
    wire::Frame frame;
    std::size_t consumed = 0;
    const wire::DecodeStatus status =
        wire::try_decode(corrupt, frame, consumed);
    EXPECT_NE(status, wire::DecodeStatus::kOk) << "flipped byte " << byte;
    // kNeedMore is reachable (a flipped length byte can claim a longer
    // frame), but only for flips inside the length field — and the stream
    // then dies on checksum once the claimed bytes "arrive". Simulate that:
    if (status == wire::DecodeStatus::kNeedMore) {
      std::string extended = corrupt + std::string(1 << 16, '\0');
      const wire::DecodeStatus later =
          wire::try_decode(extended, frame, consumed);
      EXPECT_TRUE(later == wire::DecodeStatus::kBadChecksum ||
                  later == wire::DecodeStatus::kNeedMore)
          << "flipped byte " << byte;
    }
  }
}

TEST(Wire, OversizedLengthRejected) {
  std::string bytes = wire::encode_frame(wire::FrameType::kPing, 1, {});
  // Rewrite payload_len (offset 20: after magic+version+type+id) to
  // something absurd.
  const std::uint32_t huge = wire::kMaxPayload + 1;
  std::memcpy(bytes.data() + 20, &huge, sizeof(huge));
  wire::Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::try_decode(bytes, frame, consumed),
            wire::DecodeStatus::kBadLength);
}

TEST(Wire, WrongVersionRejectedBeforeAnythingElse) {
  std::string bytes = wire::encode_frame(wire::FrameType::kPing, 1, {});
  const std::uint32_t future = wire::kVersion + 1;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  wire::Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::try_decode(bytes, frame, consumed),
            wire::DecodeStatus::kBadVersion);
  EXPECT_EQ(wire::decode_status_to_eval(wire::DecodeStatus::kBadVersion),
            EvalStatus::kVersionMismatch);
}

TEST(Wire, VersionOneFrameIsAVersionMismatch) {
  // A version-1 peer: its frames carry version 1 and the byte-wise FNV-1a
  // trailer. The version field is checked first, so the frame is refused as
  // kBadVersion, and a client talking to such a server reports
  // kVersionMismatch rather than a checksum failure.
  std::string v1 = wire::encode_frame(
      wire::FrameType::kEvalResponse, 1,
      wire::encode_response(EvalResponse{}));
  const std::uint32_t one = 1;
  std::memcpy(v1.data() + 4, &one, sizeof(one));
  const std::size_t body = v1.size() - wire::kTrailerBytes;
  const std::uint64_t v1_checksum = hash::fnv1a_bytes(v1.data(), body);
  std::memcpy(v1.data() + body, &v1_checksum, sizeof(v1_checksum));
  wire::Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::try_decode(v1, frame, consumed),
            wire::DecodeStatus::kBadVersion);
  EXPECT_EQ(consumed, 0u);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "adse_serve_v1_peer";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "v1.sock").string();
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  // The fake server answers the first request bytes with the v1 frame.
  std::thread server([listener, &v1] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    char chunk[4096];
    if (::recv(fd, chunk, sizeof(chunk), 0) > 0) {
      send_all(fd, v1.data(), v1.size());
    }
    ::shutdown(fd, SHUT_WR);
    while (::recv(fd, chunk, sizeof(chunk), 0) > 0) {
    }
    ::close(fd);
  });
  ClientOptions options;
  options.socket_path = path;
  options.timeout_ms = 60000;
  options.max_retries = 0;
  {
    EvalClient client(options);
    const std::vector<EvalRequest> one_request = {stream_request()};
    EXPECT_EQ(client.evaluate(one_request).front().status,
              EvalStatus::kVersionMismatch);
  }
  server.join();
  ::close(listener);
  std::filesystem::remove_all(dir);
}

TEST(Wire, RandomPayloadsNeverCrashDecoders) {
  Rng rng(20260809);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t size = rng.index(512);
    std::string payload(size, '\0');
    for (char& c : payload) {
      c = static_cast<char>(rng.index(256));
    }
    // Decoders must return false (or true with in-range enums) — no crash,
    // no hang, no out-of-bounds read for asan to find.
    EvalRequest request;
    wire::decode_request(payload, request);
    EvalResponse response;
    wire::decode_response(payload, response);
    eval::EvalError error;
    wire::decode_error(payload, error);
  }
  SUCCEED();
}

TEST(Wire, NonFiniteOrOutOfRangeFeaturesAreRejected) {
  EvalRequest decoded;
  EvalRequest nan_clock = stream_request();
  nan_clock.config.mem.l1_clock_ghz = std::nan("");
  EXPECT_FALSE(wire::decode_request(wire::encode_request(nan_clock), decoded));
  EvalRequest huge_l1 = stream_request();
  huge_l1.config.mem.l1_size_kib = 1 << 30;  // castable, but not a valid design
  EXPECT_FALSE(wire::decode_request(wire::encode_request(huge_l1), decoded));

  // Features the codec would have to cast to int: non-integral, beyond int
  // range, infinite. Patched straight into the payload's feature block.
  const std::string good = wire::encode_request(stream_request());
  const std::size_t rob =
      good.size() - 8 * (config::kNumParams -
                         static_cast<std::size_t>(config::ParamId::kRobSize));
  for (const double bad : {64.5, 1e12, -1e12, HUGE_VAL}) {
    std::string payload = good;
    std::memcpy(payload.data() + rob, &bad, sizeof(bad));
    EXPECT_FALSE(wire::decode_request(payload, decoded)) << bad;
  }
  ASSERT_TRUE(wire::decode_request(good, decoded));
}

TEST(Wire, IdenticalConfigsShardIdentically) {
  const std::uint64_t a = wire::request_shard_hash(stream_request(64));
  const std::uint64_t b = wire::request_shard_hash(stream_request(64));
  const std::uint64_t c = wire::request_shard_hash(stream_request(65));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // FNV over 30 doubles: differing configs split shards
}

// --- daemon + client over a real socket -------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("adse_serve_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    socket_path_ = (dir_ / "eval.sock").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DaemonOptions daemon_options(int workers = 2) {
    DaemonOptions options;
    options.socket_path = socket_path_;
    options.workers = workers;
    options.service.threads = 2;
    return options;
  }

  ClientOptions client_options() {
    ClientOptions options;
    options.socket_path = socket_path_;
    options.timeout_ms = 60000;
    options.retry_backoff_ms = 10;
    return options;
  }

  std::filesystem::path dir_;
  std::string socket_path_;
};

TEST_F(ServeTest, EvaluatesOverSocketBitIdenticalToInProcess) {
  Daemon daemon(daemon_options());
  daemon.start();

  EvalClient client(client_options());
  const std::vector<EvalRequest> requests = {stream_request(),
                                             stream_request(128)};
  const auto remote = client.evaluate(requests);
  ASSERT_EQ(remote.size(), 2u);
  ASSERT_TRUE(remote[0].ok()) << remote[0].error;
  ASSERT_TRUE(remote[1].ok()) << remote[1].error;

  // The same requests through a hermetic in-process service: the wire path
  // must be bit-identical (same cycles, same counters).
  eval::ServiceConfig hermetic;
  hermetic.threads = 1;
  eval::EvalService service(hermetic);
  const auto local = service.evaluate(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(remote[i].cycles(), local[i].cycles());
    EXPECT_EQ(remote[i].run.core.retired, local[i].run.core.retired);
    EXPECT_EQ(remote[i].run.mem.l1_hits, local[i].run.mem.l1_hits);
    EXPECT_DOUBLE_EQ(remote[i].run.power.dynamic_j,
                     local[i].run.power.dynamic_j);
  }
  EXPECT_TRUE(client.ping());
  EXPECT_NE(client.stats().find("serve.requests"), std::string::npos);
}

TEST_F(ServeTest, ManyClientsSameConfigCoalesceToOneBackendRun) {
  Daemon daemon(daemon_options(4));
  daemon.start();

  // M concurrent clients all asking for the same design point: the shard
  // hash routes every copy to one worker, whose memo claim latch guarantees
  // exactly one backend run — the cross-client version of the in-process
  // dedup test.
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<EvalResponse> responses(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &responses] {
      EvalClient client(client_options());
      const std::vector<EvalRequest> one = {stream_request()};
      responses[static_cast<std::size_t>(c)] = client.evaluate(one).front();
    });
  }
  for (auto& thread : threads) thread.join();

  for (const EvalResponse& r : responses) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.cycles(), responses.front().cycles());
  }
  obs::Registry& metrics = daemon.service().metrics();
  EXPECT_EQ(metrics.counter("eval.backend_runs").value(), 1u);
  EXPECT_EQ(metrics.counter("eval.requests").value(),
            static_cast<std::uint64_t>(kClients));
  // Every other copy joined the one run or hit its finished entry.
  EXPECT_EQ(metrics.counter("eval.inflight_joins").value() +
                metrics.counter("eval.memo_hits").value(),
            static_cast<std::uint64_t>(kClients - 1));
}

TEST_F(ServeTest, GarbageBytesGetErrorFrameAndDaemonSurvives) {
  Daemon daemon(daemon_options());
  daemon.start();

  // Raw socket speaking garbage: the daemon must answer with a clean error
  // frame, close that connection, and keep serving everyone else.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path_.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string garbage(64, 'x');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));

  std::string received;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // server closed after the error frame
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  wire::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::try_decode(received, frame, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(frame.type, wire::FrameType::kError);
  eval::EvalError error;
  ASSERT_TRUE(wire::decode_error(frame.payload, error));
  EXPECT_EQ(error.status, EvalStatus::kBadFrame);

  // The daemon is still healthy for well-behaved clients.
  EvalClient client(client_options());
  EXPECT_TRUE(client.ping());
  const std::vector<EvalRequest> one = {stream_request()};
  EXPECT_TRUE(client.evaluate(one).front().ok());
}

TEST_F(ServeTest, InvalidRequestIsRejectedAndTheConnectionServesOn) {
  Daemon daemon(daemon_options());
  daemon.start();
  ClientOptions options = client_options();
  options.max_retries = 0;  // a dropped connection would fail, not reconnect
  EvalClient client(options);

  // A NaN feature and an absurd L1 (2^30 KiB) are refused before anything
  // is built from them; the same connection then answers a valid request.
  EvalRequest nan_clock = stream_request();
  nan_clock.config.mem.l1_clock_ghz = std::nan("");
  EvalRequest huge_l1 = stream_request();
  huge_l1.config.mem.l1_size_kib = 1 << 30;
  for (const EvalRequest& bad : {nan_clock, huge_l1}) {
    const auto rejected = client.evaluate({&bad, 1});
    EXPECT_EQ(rejected.front().status, EvalStatus::kBadRequest)
        << rejected.front().error;
  }
  const std::vector<EvalRequest> valid = {stream_request()};
  const auto answered = client.evaluate(valid);
  ASSERT_TRUE(answered.front().ok()) << answered.front().error;
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(daemon.service().metrics().counter("serve.connections").value(),
            1u);
  EXPECT_EQ(daemon.service().metrics().counter("eval.requests").value(), 1u);
}

TEST_F(ServeTest, ClientRetriesAcrossDaemonRestartAndWarmStoreServes) {
  const std::string store = (dir_ / "store.bin").string();

  DaemonOptions options = daemon_options();
  options.service.store_path = store;
  auto first = std::make_unique<Daemon>(options);
  first->start();

  EvalClient client(client_options());
  const std::vector<EvalRequest> requests = {stream_request(),
                                             stream_request(96)};
  const auto cold = client.evaluate(requests);
  ASSERT_TRUE(cold[0].ok());
  ASSERT_TRUE(cold[1].ok());

  // Drain daemon #1 (the client's connection dies with it)...
  ASSERT_TRUE(client.drain_server());
  first->wait();
  first.reset();

  // ...start daemon #2 on the same socket with the same store. The client's
  // next evaluate hits a dead connection, reconnects within its retry
  // budget, and every answer comes from the warm store: zero fresh sims.
  Daemon second(options);
  second.start();
  const auto warm = client.evaluate(requests);
  ASSERT_TRUE(warm[0].ok()) << warm[0].error;
  ASSERT_TRUE(warm[1].ok()) << warm[1].error;
  EXPECT_EQ(warm[0].cycles(), cold[0].cycles());
  EXPECT_EQ(warm[1].cycles(), cold[1].cycles());
  obs::Registry& metrics = second.service().metrics();
  EXPECT_EQ(metrics.counter("eval.backend_runs").value(), 0u);
  EXPECT_EQ(metrics.counter("eval.store_hits").value(), 2u);
}

TEST_F(ServeTest, DrainingServerRejectsNewWorkWithDrainingStatus) {
  Daemon daemon(daemon_options());
  daemon.start();
  daemon.drain();
  daemon.wait();
  // The socket is gone; a client with a zero retry budget reports the
  // daemon unreachable rather than hanging.
  ClientOptions options = client_options();
  options.max_retries = 0;
  EvalClient client(options);
  const std::vector<EvalRequest> one = {stream_request()};
  const auto responses = client.evaluate(one);
  EXPECT_EQ(responses.front().status, EvalStatus::kDisconnected);
}

// --- the batched read path over a raw socket --------------------------------

/// Connects a raw socket to `path`, with a 60 s receive timeout so a lost
/// answer fails the test instead of hanging it.
int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

/// Reads frames from `fd` and hands each to `on_frame` until it returns
/// false, the peer closes, or the stream is corrupt. Frame payloads are
/// copied out, so they outlive the receive buffer.
void read_frames(int fd,
                 const std::function<bool(const wire::Frame&)>& on_frame) {
  FrameReader reader;
  while (true) {
    wire::Frame frame;
    const wire::DecodeStatus status = reader.next(frame);
    if (status == wire::DecodeStatus::kOk) {
      if (!on_frame(frame)) return;
      continue;
    }
    ASSERT_EQ(status, wire::DecodeStatus::kNeedMore)
        << wire::decode_status_name(status);
    if (reader.receive(fd) <= 0) return;
  }
}

/// A response's bytes with the source normalized (a socket answer may come
/// from the memo or a joined run where the in-process twin ran fresh).
std::string answer_bytes(EvalResponse response) {
  response.source = eval::ResultSource::kBackend;
  return wire::encode_response(response);
}

TEST_F(ServeTest, PipelinedFramesInRandomPiecesAreEachAnsweredOnce) {
  Daemon daemon(daemon_options());
  daemon.start();

  // 24 eval requests over 6 designs (copies coalesce), a ping after the
  // 8th, and a malformed request (intact frame, garbage payload) after the
  // 16th — all pipelined on one connection.
  std::vector<EvalRequest> designs;
  for (int i = 0; i < 6; ++i) designs.push_back(stream_request(64 + 32 * i));
  std::string stream;
  std::vector<std::size_t> design_of(25, 0);  // frame id -> design
  constexpr std::uint64_t kPingId = 100;
  constexpr std::uint64_t kBadId = 101;
  for (std::uint64_t id = 1; id <= 24; ++id) {
    design_of[id] = id % designs.size();
    wire::append_frame(stream, wire::FrameType::kEvalRequest, id,
                       wire::encode_request(designs[design_of[id]]));
    if (id == 8) wire::append_frame(stream, wire::FrameType::kPing, kPingId, {});
    if (id == 16) {
      wire::append_frame(stream, wire::FrameType::kEvalRequest, kBadId,
                         "not a request payload");
    }
  }

  const int fd = connect_raw(socket_path_);
  ASSERT_GE(fd, 0);
  // Written in pieces from 1 byte to several KB, with pauses, so frames
  // straddle receives at every kind of boundary.
  std::thread writer([fd, &stream] {
    Rng rng(20261019);
    std::size_t sent = 0;
    while (sent < stream.size()) {
      const std::size_t cap = rng.index(2) == 0 ? 16 : 6000;
      const std::size_t piece =
          std::min(stream.size() - sent, 1 + rng.index(cap));
      if (!send_all(fd, stream.data() + sent, piece)) return;
      sent += piece;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  std::vector<int> answers(25, 0);
  std::vector<EvalResponse> responses(25);
  int pongs = 0;
  int bad_requests = 0;
  std::size_t pending = 24 + 2;
  read_frames(fd, [&](const wire::Frame& frame) {
    if (frame.type == wire::FrameType::kPong) {
      EXPECT_EQ(frame.id, kPingId);
      ++pongs;
    } else if (frame.type == wire::FrameType::kError) {
      eval::EvalError error;
      EXPECT_TRUE(wire::decode_error(frame.payload, error));
      EXPECT_EQ(frame.id, kBadId);
      EXPECT_EQ(error.status, EvalStatus::kBadRequest);
      ++bad_requests;
    } else {
      EXPECT_EQ(frame.type, wire::FrameType::kEvalResponse);
      EXPECT_GE(frame.id, 1u);
      EXPECT_LE(frame.id, 24u);
      if (frame.id < 1 || frame.id > 24) return false;
      ++answers[frame.id];
      EXPECT_TRUE(wire::decode_response(frame.payload, responses[frame.id]));
    }
    return --pending > 0;
  });
  writer.join();
  ::close(fd);

  EXPECT_EQ(pongs, 1);
  EXPECT_EQ(bad_requests, 1);
  eval::ServiceConfig hermetic;
  hermetic.threads = 1;
  eval::EvalService service(hermetic);
  const auto local = service.evaluate(designs);
  for (std::uint64_t id = 1; id <= 24; ++id) {
    EXPECT_EQ(answers[id], 1) << "frame id " << id;
    ASSERT_TRUE(responses[id].ok()) << responses[id].error;
    EXPECT_EQ(answer_bytes(responses[id]),
              answer_bytes(local[design_of[id]]))
        << "frame id " << id;
  }
  EXPECT_EQ(daemon.service().metrics().counter("eval.backend_runs").value(),
            designs.size());
}

TEST_F(ServeTest, EvalsWrittenWithADrainAreServedNotRejected) {
  Daemon daemon(daemon_options());
  daemon.start();

  // Eval frames and a kDrain in one write: the reader queues the evals
  // before it handles the drain, so each is answered kOk, then the daemon
  // acks the drain and closes.
  std::string stream;
  constexpr std::uint64_t kEvals = 6;
  for (std::uint64_t id = 1; id <= kEvals; ++id) {
    wire::append_frame(stream, wire::FrameType::kEvalRequest, id,
                       wire::encode_request(stream_request(64 + 16 * id)));
  }
  wire::append_frame(stream, wire::FrameType::kDrain, 99, {});
  const int fd = connect_raw(socket_path_);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, stream.data(), stream.size()));

  std::uint64_t ok = 0;
  int drain_acks = 0;
  read_frames(fd, [&](const wire::Frame& frame) {
    if (frame.type == wire::FrameType::kPong) {
      EXPECT_EQ(frame.id, 99u);
      ++drain_acks;
      return true;
    }
    EXPECT_EQ(frame.type, wire::FrameType::kEvalResponse)
        << "frame id " << frame.id;
    EvalResponse response;
    EXPECT_TRUE(wire::decode_response(frame.payload, response));
    EXPECT_EQ(response.status, EvalStatus::kOk) << response.error;
    ok += response.ok();
    return true;  // read until the daemon closes the connection
  });
  ::close(fd);
  daemon.wait();
  EXPECT_EQ(ok, kEvals);
  EXPECT_EQ(drain_acks, 1);
  EXPECT_EQ(daemon.service().metrics().counter("serve.rejected").value(), 0u);
}

TEST_F(ServeTest, PipelinedColdBatchIsAnsweredRunByRun) {
  // One worker, one write of fresh designs: the worker swaps them out as one
  // batch, but each backend run's answer is sent as soon as it finishes, so
  // the first answer arrives while later runs of the batch are still going.
  Daemon daemon(daemon_options(1));
  daemon.start();
  constexpr std::uint64_t kRuns = 16;
  std::string stream;
  for (std::uint64_t id = 1; id <= kRuns; ++id) {
    wire::append_frame(stream, wire::FrameType::kEvalRequest, id,
                       wire::encode_request(stream_request(48 + 8 * id)));
  }
  const int fd = connect_raw(socket_path_);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, stream.data(), stream.size()));

  obs::Counter& served =
      daemon.service().metrics().counter("serve.requests");
  std::uint64_t served_at_first_answer = 0;
  std::vector<int> answers(kRuns + 1, 0);
  std::uint64_t pending = kRuns;
  read_frames(fd, [&](const wire::Frame& frame) {
    if (pending == kRuns) served_at_first_answer = served.value();
    EXPECT_EQ(frame.type, wire::FrameType::kEvalResponse);
    if (frame.id < 1 || frame.id > kRuns) return false;
    ++answers[frame.id];
    EvalResponse response;
    EXPECT_TRUE(wire::decode_response(frame.payload, response));
    EXPECT_TRUE(response.ok()) << response.error;
    return --pending > 0;
  });
  ::close(fd);

  for (std::uint64_t id = 1; id <= kRuns; ++id) {
    EXPECT_EQ(answers[id], 1) << "frame id " << id;
  }
  EXPECT_GE(served_at_first_answer, 1u);
  EXPECT_LT(served_at_first_answer, kRuns);
  EXPECT_EQ(daemon.service().metrics().counter("eval.backend_runs").value(),
            kRuns);
}

TEST_F(ServeTest, ManyClientsPipelineBatchesMixingHitsAndFreshRuns) {
  // Eight clients send pipelined batches to four workers. Each batch repeats
  // a warm set (memo hits) around one design of its own (a fresh run), so
  // hits and simulations share batches, queues and sockets. Every answer
  // must be ok, and every hit must bit-match the run that warmed it.
  Daemon daemon(daemon_options(4));
  daemon.start();
  std::vector<EvalRequest> warm;
  for (int i = 0; i < 6; ++i) warm.push_back(stream_request(64 + 16 * i));
  const std::vector<EvalResponse> cold =
      EvalClient(client_options()).evaluate(warm);
  for (const EvalResponse& r : cold) ASSERT_TRUE(r.ok()) << r.error;

  constexpr int kClients = 8;
  constexpr int kBatches = 3;
  constexpr int kBatch = 32;
  constexpr int kFresh = kBatch / 2;  // the fresh design's place in a batch
  std::vector<int> bad(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      EvalClient client(client_options());
      for (int b = 0; b < kBatches; ++b) {
        const auto warm_index = [&](int j) {
          return static_cast<std::size_t>(c + b + j) % warm.size();
        };
        std::vector<EvalRequest> batch;
        for (int j = 0; j < kBatch; ++j) {
          batch.push_back(j == kFresh
                              ? stream_request(256 + 8 * (c * kBatches + b))
                              : warm[warm_index(j)]);
        }
        const std::vector<EvalResponse> answers = client.evaluate(batch);
        for (int j = 0; j < kBatch; ++j) {
          const bool hit_matches =
              j == kFresh || answer_bytes(answers[j]) ==
                                 answer_bytes(cold[warm_index(j)]);
          bad[c] += answers[j].ok() && hit_matches ? 0 : 1;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int c = 0; c < kClients; ++c) EXPECT_EQ(bad[c], 0) << "client " << c;
  obs::Registry& metrics = daemon.service().metrics();
  const std::uint64_t fresh = kClients * kBatches;
  EXPECT_EQ(metrics.counter("eval.requests").value(),
            warm.size() + fresh * kBatch);
  EXPECT_EQ(metrics.counter("eval.backend_runs").value(), warm.size() + fresh);
  EXPECT_EQ(metrics.counter("eval.memo_hits").value() +
                metrics.counter("eval.inflight_joins").value(),
            fresh * (kBatch - 1));
}

// --- SIGTERM mid-batch: teardown-order regression ---------------------------

TEST_F(ServeTest, SigtermMidBatchDrainsFlushesAndExitsCleanly) {
  const std::string store = (dir_ / "store.bin").string();

  int ready_pipe[2];
  ASSERT_EQ(::pipe(ready_pipe), 0);

  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);

  if (child == 0) {
    // Daemon process. std::exit (not _exit) after the drain so every static
    // destructor runs — the regression this guards is exactly exit-time
    // teardown order (EvalService's pool vs the obs tracer/registry) while
    // a kill arrives mid-batch. The Daemon lives in its own block so its
    // destructor joins the signal watcher thread before the exit (std::exit
    // does not unwind this frame; a leaked thread fails TSan builds).
    ::close(ready_pipe[0]);
    {
      DaemonOptions options;
      options.socket_path = socket_path_;
      options.workers = 2;
      options.service.threads = 2;
      options.service.store_path = store;
      options.handle_sigterm = true;
      Daemon daemon(options);
      daemon.start();
      const char byte = 'r';
      [[maybe_unused]] const ssize_t n = ::write(ready_pipe[1], &byte, 1);
      ::close(ready_pipe[1]);
      daemon.wait();
    }
    std::exit(0);
  }

  // Parent / client side.
  ::close(ready_pipe[1]);
  char byte;
  ASSERT_EQ(::read(ready_pipe[0], &byte, 1), 1);
  ::close(ready_pipe[0]);

  ClientOptions options = client_options();
  options.max_retries = 1;
  options.timeout_ms = 60000;

  // Fire a batch from a background thread and SIGTERM the daemon while it
  // is (very likely) mid-batch. Either outcome per request is legal — a
  // real result (drain finished it) or kDraining/kDisconnected — but the
  // child must drain and exit 0 either way.
  std::thread firing([&] {
    EvalClient client(options);
    std::vector<EvalRequest> batch;
    for (int i = 0; i < 24; ++i) {
      batch.push_back(stream_request(32 + 16 * i));
    }
    const auto responses = client.evaluate(batch);
    EXPECT_EQ(responses.size(), batch.size());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  firing.join();

  // The child must exit(0) by itself; 10s of WNOHANG polling before we call
  // it hung (kill -9 so the suite never wedges).
  int status = 0;
  pid_t waited = 0;
  for (int i = 0; i < 1000; ++i) {
    waited = ::waitpid(child, &status, WNOHANG);
    if (waited == child) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (waited != child) {
    ::kill(child, SIGKILL);
    ::waitpid(child, &status, 0);
    FAIL() << "daemon did not drain within 10s of SIGTERM";
  }
  ASSERT_TRUE(WIFEXITED(status)) << "daemon died of signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Whatever the daemon appended before the kill must load back intact —
  // the store's torn-tail discipline plus the drain's flush.
  eval::ResultStore reopened(store);
  for (const eval::StoreRecord& record : reopened.loaded()) {
    EXPECT_GT(record.core.cycles, 0u);
  }
}

}  // namespace
}  // namespace adse::serve
