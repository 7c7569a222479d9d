#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/require.hpp"
#include "config/baselines.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "sim/batch_sim.hpp"
#include "sim/trace.hpp"

namespace adse::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator (recursive descent, syntax only) — asserts that the
// snapshot/trace exports are loadable by any real JSON parser (and therefore
// by chrome://tracing).

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool json_valid(std::string_view text) { return JsonChecker(text).valid(); }

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Counters

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Counter, DeltasAccumulate) {
  Counter counter;
  counter.add(3);
  counter.add();  // default 1
  counter.add(0);
  EXPECT_EQ(counter.value(), 4u);
}

TEST(Gauge, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(2.5);
  EXPECT_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

// ---------------------------------------------------------------------------
// Histograms

TEST(Histogram, ExactAggregatesAndBoundedQuantileError) {
  Histogram histogram;
  double sum = 0.0;
  for (int v = 1; v <= 1000; ++v) {
    histogram.observe(static_cast<double>(v));
    sum += v;
  }
  const HistogramSnapshot s = histogram.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, sum);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  // Log buckets (8/octave) bound the representative error to ~±4.5%; allow
  // 10% so the assertion tracks the guarantee, not the implementation.
  EXPECT_NEAR(s.p50, 500.0, 50.0);
  EXPECT_NEAR(s.p90, 900.0, 90.0);
  EXPECT_NEAR(s.p99, 990.0, 99.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
}

TEST(Histogram, PointMassQuantilesLandInOneBucket) {
  Histogram histogram;
  for (int i = 0; i < 64; ++i) histogram.observe(3.0);
  const HistogramSnapshot s = histogram.snapshot();
  EXPECT_NEAR(s.p50, 3.0, 3.0 * 0.10);
  EXPECT_DOUBLE_EQ(s.p50, s.p99);  // one bucket => one representative
}

TEST(Histogram, EmptyAndDegenerateSamples) {
  Histogram histogram;
  EXPECT_EQ(histogram.snapshot().count, 0u);
  EXPECT_EQ(histogram.quantile(0.5), 0.0);

  histogram.observe(0.0);
  histogram.observe(-7.0);  // clamps into the zero bucket
  const HistogramSnapshot s = histogram.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.min, -7.0);
}

TEST(Histogram, ConcurrentObservesKeepExactCount) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const HistogramSnapshot s = histogram.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, NamesResolveToStableInstances) {
  Registry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(registry.counter("x").value(), 2u);
  // Distinct kinds may not collide, distinct names are independent.
  registry.gauge("g").set(1.0);
  EXPECT_EQ(registry.counter("y").value(), 0u);
}

TEST(Registry, JsonSnapshotParsesAndCarriesValues) {
  Registry registry;
  registry.counter("eval.requests").add(42);
  registry.gauge("pool.depth").set(3.0);
  auto& h = registry.histogram("round \"secs\"\n");  // hostile name
  h.observe(1.0);
  h.observe(2.0);

  const std::string json = registry.render_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"eval.requests\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos) << json;

  const std::string text = registry.render_text();
  EXPECT_NE(text.find("eval.requests"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(Registry, EmptySnapshotStillParses) {
  Registry registry;
  EXPECT_TRUE(json_valid(registry.render_json())) << registry.render_json();
}

// ---------------------------------------------------------------------------
// Trace spans

TEST(Tracer, ExportIsLoadableChromeTraceJson) {
  const auto path = std::filesystem::temp_directory_path() / "adse_trace.json";
  std::filesystem::remove(path);
  {
    Tracer tracer(path.string());
    ASSERT_TRUE(tracer.enabled());
    {
      Span outer(tracer, "dse.round", "dse");
      outer.set_detail("guided #1");
      Span inner(tracer, "eval.batch", "eval");
    }
    // Spans recorded off-thread get their own tid.
    std::thread([&tracer] { Span s(tracer, "sim.simulate", "sim"); }).join();
    EXPECT_EQ(tracer.num_events(), 3u);
    tracer.flush();
  }  // destructor re-flushes; the file must stay intact

  const std::string json = slurp(path);
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"dse.round\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"eval.batch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"sim.simulate\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\": \"guided #1\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Tracer, EngineRunsExportTheirSpansAndCounters) {
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  const sim::Trace& trace =
      sim::trace(kernels::App::kStream, tx2.core.vector_length_bits);
  sim::simulate(tx2, trace);
  sim::simulate_batch({&tx2, 1}, trace);
  // In the re-run below, the tracer writes its file at exit.
  if (tracing_enabled()) return;

  // The metrics snapshot of these runs parses and counts them.
  const std::string metrics = Registry::global().render_json();
  EXPECT_TRUE(json_valid(metrics)) << metrics;
  for (const char* name :
       {"sim.simulations", "sim.batch_runs", "sim.batch_lanes_active"}) {
    EXPECT_GT(Registry::global().counter(name).value(), 0u) << name;
    EXPECT_NE(metrics.find('"' + std::string(name) + '"'), std::string::npos)
        << name;
  }

  // The process-wide tracer reads ADSE_TRACE_FILE once, at its first use,
  // so the trace comes from a re-run of this case with the variable set.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("adse_engine_trace_" + std::to_string(::getpid()) + ".json");
  std::filesystem::remove(path);
  const std::string command =
      "ADSE_TRACE_FILE='" + path.string() + "' '" +
      std::filesystem::read_symlink("/proc/self/exe").string() +
      "' --gtest_filter=" + info->test_suite_name() + "." + info->name() +
      " > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  const std::string json = slurp(path);
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"name\": \"sim.simulate\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"sim.simulate_batch\""),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST(Tracer, DisabledTracerRecordsAndWritesNothing) {
  Tracer tracer("");
  EXPECT_FALSE(tracer.enabled());
  { Span span(tracer, "ignored"); }
  EXPECT_EQ(tracer.num_events(), 0u);
  tracer.flush();  // must not crash or create a file
}

TEST(Tracer, EmptyTraceStillParses) {
  const auto path = std::filesystem::temp_directory_path() / "adse_trace0.json";
  std::filesystem::remove(path);
  { Tracer tracer(path.string()); }
  EXPECT_TRUE(json_valid(slurp(path)));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Leveled logging

struct CapturedLog {
  static std::vector<std::pair<LogLevel, std::string>>& entries() {
    static std::vector<std::pair<LogLevel, std::string>> log;
    return log;
  }
  static void sink(LogLevel level, std::string_view message) {
    entries().emplace_back(level, std::string(message));
  }
};

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CapturedLog::entries().clear();
    previous_sink_ = set_log_sink(&CapturedLog::sink);
  }
  void TearDown() override {
    set_log_sink(previous_sink_);
    set_log_level(LogLevel::kInfo);
  }
  LogSink previous_sink_ = nullptr;
};

TEST_F(LogTest, LevelFiltering) {
  set_log_level(LogLevel::kWarn);
  logf(LogLevel::kInfo, "[campaign] %d/%d runs\n", 1, 2);
  logf(LogLevel::kDebug, "noise\n");
  logf(LogLevel::kWarn, "stale cache %s\n", "x.csv");
  logf(LogLevel::kError, "boom\n");

  ASSERT_EQ(CapturedLog::entries().size(), 2u);
  EXPECT_EQ(CapturedLog::entries()[0].second, "stale cache x.csv\n");
  EXPECT_EQ(CapturedLog::entries()[1].second, "boom\n");
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
}

TEST_F(LogTest, OffSilencesEverything) {
  set_log_level(LogLevel::kOff);
  logf(LogLevel::kError, "even errors\n");
  EXPECT_TRUE(CapturedLog::entries().empty());
}

TEST_F(LogTest, MessagesAreVerbatim) {
  set_log_level(LogLevel::kInfo);
  // The exact progress line the campaign emits: no prefix, no added newline.
  logf(LogLevel::kInfo, "[campaign %s] %zu/%zu runs (%.1fs elapsed)\n", "main",
       static_cast<std::size_t>(400), static_cast<std::size_t>(6000), 12.3);
  ASSERT_EQ(CapturedLog::entries().size(), 1u);
  EXPECT_EQ(CapturedLog::entries()[0].second,
            "[campaign main] 400/6000 runs (12.3s elapsed)\n");
}

TEST_F(LogTest, LongMessagesSurviveTheHeapPath) {
  set_log_level(LogLevel::kInfo);
  const std::string payload(2000, 'x');
  logf(LogLevel::kInfo, "%s!", payload.c_str());
  ASSERT_EQ(CapturedLog::entries().size(), 1u);
  EXPECT_EQ(CapturedLog::entries()[0].second.size(), payload.size() + 1);
  EXPECT_EQ(CapturedLog::entries()[0].second.back(), '!');
}

TEST(LogLevelParse, NamesRoundTripAndRejectGarbage) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("Debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level(" info "), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_THROW(parse_log_level("verbose"), InvariantError);
  for (const LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError, LogLevel::kOff}) {
    EXPECT_EQ(parse_log_level(log_level_name(level)), level);
  }
}

}  // namespace
}  // namespace adse::obs
