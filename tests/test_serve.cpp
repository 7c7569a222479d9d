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
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.hpp"
#include "config/baselines.hpp"
#include "eval/result_store.hpp"
#include "eval/wire.hpp"
#include "serve/client.hpp"

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
