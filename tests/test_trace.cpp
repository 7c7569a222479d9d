/// \file test_trace.cpp
/// The process-wide trace artifacts (sim::trace): one build per (app, VL),
/// one conversion into the decoded and summary forms, however many engine
/// passes, services and threads use it. Each case uses keys no other case in
/// this binary touches, so the counter deltas hold when the whole binary
/// runs in one process (as under tsan).

#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "config/param_space.hpp"
#include "eval/service.hpp"
#include "obs/metrics.hpp"

namespace adse {
namespace {

std::uint64_t count(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// `n` distinct valid sampled designs at vector length `vl`.
std::vector<config::CpuConfig> configs_at(int vl, std::size_t n,
                                          std::uint64_t seed) {
  const config::ParameterSpace space;
  Rng rng(seed);
  std::vector<config::CpuConfig> out;
  while (out.size() < n) {
    config::CpuConfig c = space.sample(rng);
    c.core.vector_length_bits = vl;
    while (c.core.load_bandwidth_bytes < vl / 8) c.core.load_bandwidth_bytes *= 2;
    while (c.core.store_bandwidth_bytes < vl / 8) {
      c.core.store_bandwidth_bytes *= 2;
    }
    if (config::is_valid(c)) out.push_back(c);
  }
  return out;
}

TEST(TraceCacheCounters, HitsAndBuilds) {
  const std::uint64_t builds = count("eval.trace_builds");
  const std::uint64_t hits = count("eval.trace_hits");
  const sim::Trace& first = sim::trace(kernels::App::kStream, 256);
  const sim::Trace& again = sim::trace(kernels::App::kStream, 256);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(count("eval.trace_builds") - builds, 1u);
  EXPECT_EQ(count("eval.trace_hits") - hits, 1u);
  sim::trace(kernels::App::kStream, 512);
  EXPECT_EQ(count("eval.trace_builds") - builds, 2u);
}

TEST(TraceArtifact, EvaluateDecodesEachKeyOnce) {
  // 3 keys x 40 configs on 2 threads at batch_k 8: 120 claims form five
  // 8-lane chunks per key, run on the pool. Every chunk shares its key's
  // one decode.
  eval::ServiceConfig options;
  options.threads = 2;
  options.batch_k = 8;
  eval::EvalService service(options);
  const std::vector<std::pair<kernels::App, int>> keys = {
      {kernels::App::kMiniBude, 1024},
      {kernels::App::kTeaLeaf, 1024},
      {kernels::App::kMiniSweep, 1024}};
  std::vector<eval::EvalRequest> requests;
  std::uint64_t seed = 1;
  for (const auto& [app, vl] : keys) {
    for (const config::CpuConfig& c : configs_at(vl, 40, seed++)) {
      requests.push_back({c, app});
    }
  }
  const std::uint64_t decodes = count("eval.trace_decodes");
  const std::uint64_t batches = count("sim.batch_runs");
  const std::vector<eval::EvalResponse> responses = service.evaluate(requests);
  for (const eval::EvalResponse& response : responses) {
    ASSERT_TRUE(response.ok()) << response.error;
  }
  EXPECT_LE(count("eval.trace_decodes") - decodes, keys.size());
  EXPECT_GE(count("sim.batch_runs") - batches, 15u);
}

TEST(TraceArtifact, ConcurrentFirstTouchBuildsAndConvertsOnce) {
  // Every pool thread (and the caller, if it takes an index) asks for the
  // same new key's decoded form at the same instant.
  eval::ServiceConfig options;
  options.threads = 4;
  eval::EvalService service(options);
  const std::uint64_t builds = count("eval.trace_builds");
  const std::uint64_t decodes = count("eval.trace_decodes");
  std::latch gate(static_cast<std::ptrdiff_t>(service.threads()));
  std::vector<const core::DecodedTrace*> seen(service.threads());
  service.parallel_for(service.threads(), [&](std::size_t i) {
    gate.arrive_and_wait();
    seen[i] = &sim::trace(kernels::App::kStream, 2048).decoded();
  });
  for (const core::DecodedTrace* decoded : seen) EXPECT_EQ(decoded, seen[0]);
  EXPECT_EQ(count("eval.trace_builds") - builds, 1u);
  EXPECT_EQ(count("eval.trace_decodes") - decodes, 1u);
}

TEST(TraceArtifact, StandaloneTraceKeepsNameAndSize) {
  isa::Program program = kernels::build_app(kernels::App::kMiniBude, 2048);
  const std::size_t ops = program.ops.size();
  const sim::Trace trace(std::move(program));
  EXPECT_EQ(trace.name(), "minibude");
  EXPECT_EQ(trace.size(), ops);
  EXPECT_EQ(trace.decoded().size(), ops);
  EXPECT_EQ(trace.summary().total_ops, ops);
  EXPECT_EQ(trace.size(), ops);  // unchanged after the Program is released
}

}  // namespace
}  // namespace adse
