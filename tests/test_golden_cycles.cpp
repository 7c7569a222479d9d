/// \file test_golden_cycles.cpp
/// Golden cycle-count regression gate for the event-driven core rewrite.
///
/// The event-driven scheduling machinery (wakeup-driven issue, RS free list,
/// dispatch-time store-dependence cache, occupancy-masked event wheel) is a
/// pure simulator-speed optimisation: it must not move a single cycle. This
/// table pins the exact cycle counts the pre-optimisation (brute-force
/// per-cycle) model produced for the ThunderX2 baseline plus eight
/// campaign-sampled configurations across all four apps — 36 (config, app)
/// pairs — together with a digest of every CoreStats and MemStats counter
/// of each run. Any scheduling change that alters modelled semantics fails
/// here with the exact offending pair.
///
/// The sampled configs reuse the main campaign's deterministic per-index
/// stream (seed 42), so they cover the design space the study actually
/// sweeps: wide/narrow frontends, VL 128..2048, small and huge ROBs.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "config/baselines.hpp"
#include "config/param_space.hpp"
#include "kernels/threaded.hpp"
#include "kernels/workloads.hpp"
#include "sim/batch_sim.hpp"
#include "sim/hardware_proxy.hpp"
#include "sim/multicore.hpp"
#include "sim/simulation.hpp"

namespace adse {
namespace {

/// One pinned run: its cycle count and a digest of every CoreStats and
/// MemStats counter (stats_digest), so a change to any stall, wakeup, stage
/// or cache counter fails even when the cycle total happens to hold.
struct Pin {
  std::uint64_t cycles;
  std::uint64_t digest;
};

/// FNV-1a over the raw bytes of the run's CoreStats and MemStats. Both are
/// plain blocks of 64-bit counters; the static_asserts prove there is no
/// padding whose bytes would make the digest unstable.
std::uint64_t stats_digest(const sim::RunResult& result) {
  static_assert(std::has_unique_object_representations_v<core::CoreStats>);
  static_assert(std::has_unique_object_representations_v<mem::MemStats>);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  };
  mix(&result.core, sizeof(result.core));
  mix(&result.mem, sizeof(result.mem));
  return hash;
}

void expect_pin(const sim::RunResult& result, const Pin& pin,
                const std::string& what) {
  EXPECT_EQ(result.core.cycles, pin.cycles)
      << what << ": cycles diverged from the golden (seed-model) run";
  EXPECT_EQ(stats_digest(result), pin.digest)
      << what << ": a CoreStats/MemStats counter diverged from the golden run";
}

struct GoldenRow {
  const char* config;
  /// Expected runs, in kernels::all_apps() order:
  /// stream, minibude, tealeaf, minisweep.
  Pin runs[kernels::kNumApps];
};

// Cycles generated from the pre-event-driven seed model (commit 6f06a05)
// with ADSE_SEED=42; digests taken from the scalar reference core the lane
// engine replaced, which matched the seed model's cycles. Regenerate only if
// the *modelled semantics* intentionally change, never to paper over a
// scheduling bug.
constexpr GoldenRow kGolden[] = {
    {"thunderx2",
     {{80718ULL, 0xad2c730640a35061ULL}, {13934ULL, 0x6b2c7328f824e8d2ULL},
      {41931ULL, 0xd12dada6aadcc4a1ULL}, {28406ULL, 0xe951f530c6e9be70ULL}}},
    {"sampled_0",
     {{127103ULL, 0x59a6e77da50981bfULL}, {10331ULL, 0x8b0ade8eb0e8e9ecULL},
      {66286ULL, 0x46579455aef41ce0ULL}, {45909ULL, 0x310593dfa212a3a0ULL}}},
    {"sampled_1",
     {{61012ULL, 0x0ec298f042677774ULL}, {6631ULL, 0x98e8ad0cf589b969ULL},
      {48565ULL, 0xa3e83dd8676b6dd1ULL}, {34767ULL, 0x8313ca8755be3f87ULL}}},
    {"sampled_2",
     {{70328ULL, 0x46431a6ac95fb53bULL}, {3813ULL, 0x823e47f775faacfdULL},
      {57401ULL, 0xc636fca334c5c64dULL}, {30145ULL, 0xbc6289067c3330d4ULL}}},
    {"sampled_3",
     {{75651ULL, 0xbff8c8a2a04f071aULL}, {5065ULL, 0xe64c12ec4f2e2120ULL},
      {46920ULL, 0xf0a5a25212cea74dULL}, {26989ULL, 0xd3b53b661be9b933ULL}}},
    {"sampled_4",
     {{82360ULL, 0x930ee78804348ee0ULL}, {17500ULL, 0xb007ceceea03524dULL},
      {93818ULL, 0x2c03e95aa3122b65ULL}, {86633ULL, 0xcffe337e801eeb98ULL}}},
    {"sampled_5",
     {{290935ULL, 0xdfa5c2d4471ebf53ULL}, {12739ULL, 0x9939389b946608f2ULL},
      {187169ULL, 0x6ee3331e6161db92ULL}, {106483ULL, 0x596944bbe48ca15dULL}}},
    {"sampled_6",
     {{357957ULL, 0x7667a2ced84c7ba1ULL}, {10895ULL, 0x8ce25a98966839bcULL},
      {139895ULL, 0x015f8062d0961be1ULL}, {88491ULL, 0x63a0d8868a218764ULL}}},
    {"sampled_7",
     {{614407ULL, 0x679dc665a64150bbULL}, {13217ULL, 0x28d1da125ac578d9ULL},
      {234044ULL, 0x1dd906a0b37647c4ULL}, {218487ULL, 0x9468941f696a5413ULL}}},
};

std::string pair_name(const char* config, kernels::App app) {
  return std::string("config '") + config + "' app " + kernels::app_name(app);
}

config::CpuConfig golden_config(std::size_t row) {
  if (row == 0) return config::thunderx2_baseline();
  // The main campaign's per-index deterministic stream (campaign.cpp).
  const config::ParameterSpace space;
  const std::uint64_t i = static_cast<std::uint64_t>(row) - 1;
  Rng rng(42ULL * 0x9e3779b97f4a7c15ULL + i * 2 + 1);
  config::CpuConfig c = space.sample(rng);
  c.name = "sampled_" + std::to_string(i);
  return c;
}

class GoldenCycles : public ::testing::TestWithParam<std::size_t> {};

// Each pin is checked twice: as a single simulation (sim::simulate, a
// one-lane engine pass) and as one lane of a multi-lane sim::simulate_batch
// whose other lanes are the remaining golden configs moved to this row's
// vector length (a batch shares one trace), where that move leaves them
// valid. The windowed lane scheduler interleaves lanes of different speeds
// and retires them early, and must not move a single counter of any lane.
TEST_P(GoldenCycles, BitIdenticalToSeedModel) {
  const std::size_t row = GetParam();
  const config::CpuConfig cfg = golden_config(row);
  const int vl = cfg.core.vector_length_bits;
  std::vector<config::CpuConfig> batch;
  std::size_t lane_of_row = 0;
  for (std::size_t other = 0; other < std::size(kGolden); ++other) {
    config::CpuConfig lane = golden_config(other);
    lane.core.vector_length_bits = vl;
    if (other == row) lane_of_row = batch.size();
    if (other == row || config::is_valid(lane)) batch.push_back(lane);
  }
  ASSERT_GE(batch.size(), 3u) << "too few lanes beside " << cfg.name;
  for (kernels::App app : kernels::all_apps()) {
    const Pin& pin = kGolden[row].runs[static_cast<std::size_t>(app)];
    const std::string what = pair_name(kGolden[row].config, app);
    const sim::Trace& trace = sim::trace(app, vl);

    const sim::RunResult result = sim::simulate(cfg, trace);
    expect_pin(result, pin, what);
    // The event-skip accounting must decompose the run exactly: every cycle
    // was either entered by the main loop or skipped by the event wheel.
    EXPECT_EQ(result.core.cycles_entered + result.core.cycles_skipped,
              result.core.cycles)
        << what;
    EXPECT_EQ(result.core.retired, trace.size()) << what;

    const std::vector<sim::RunResult> lanes =
        sim::simulate_batch(batch, trace);
    ASSERT_EQ(lanes.size(), batch.size());
    expect_pin(lanes[lane_of_row], pin,
               what + " (lane " + std::to_string(lane_of_row) + " of " +
                   std::to_string(batch.size()) + ", VL " +
                   std::to_string(vl) + ")");
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, GoldenCycles,
                         ::testing::Range<std::size_t>(0, std::size(kGolden)),
                         [](const auto& info) {
                           return std::string(kGolden[info.param].config);
                         });

// The hardware proxy runs the same core with fidelity effects enabled; its
// scheduling must be equally unaffected. Pin the baseline proxy cycles that
// EXPERIMENTS.md Table I records for the seed model.
TEST(GoldenCycles, HardwareProxyBaselineUnchanged) {
  const Pin expected[kernels::kNumApps] = {
      {79944ULL, 0x8b835af570d3a6daULL}, {14918ULL, 0x6c77ccad3c813171ULL},
      {38528ULL, 0xb1c648251a2bc2e4ULL}, {34803ULL, 0xcf74ea45c1f70d7bULL}};
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  for (kernels::App app : kernels::all_apps()) {
    const sim::RunResult result =
        sim::simulate_app(tx2, app, sim::proxy_fidelity());
    expect_pin(result, expected[static_cast<std::size_t>(app)],
               std::string("proxy ") + kernels::app_name(app));
  }
}

// The default proxy mispredicts loop exits only. Pin the other branch path
// too: a fixed mispredict interval with loop exits off, plus a non-default
// store->load forwarding latency, on every app.
TEST(GoldenCycles, HardwareProxyFixedIntervalMispredicts) {
  const Pin expected[kernels::kNumApps] = {
      {94226ULL, 0x89a283acbcf98699ULL}, {16072ULL, 0xb14f8f81456b3d71ULL},
      {52104ULL, 0xbed640e69163de70ULL}, {38531ULL, 0x2c76b6775ef34822ULL}};
  sim::ProxyOptions options;
  options.mispredict_interval = 7;
  options.mispredict_loop_exits = false;
  options.forward_latency = 3;
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  for (kernels::App app : kernels::all_apps()) {
    const sim::RunResult result =
        sim::simulate_app(tx2, app, sim::proxy_fidelity(options));
    expect_pin(result, expected[static_cast<std::size_t>(app)],
               std::string("interval-mispredict proxy ") +
                   kernels::app_name(app));
  }
}

// ---- multicore pins --------------------------------------------------------
//
// The tiled MSI machine (sim::simulate_multicore) is equally deterministic:
// same config + trace => bit-identical cycles. These rows pin both apps at
// 2/4/8 cores under the full-map directory and a deliberately small (16
// entries/slice) sparse directory, so any protocol or timing change — an
// extra hop, a lost downgrade, a different eviction order — fails with the
// exact offending point. The numbers encode the model's expected physics:
// threaded STREAM scales with cores, ring-pass is communication-bound, and
// sparse under-provisioning costs threaded STREAM real cycles (forced
// directory evictions recall live lines) while the ring's tiny working set
// fits either way.

struct McGoldenRow {
  const char* app_slug;
  int cores;
  config::DirectoryScheme scheme;
  int entries;
  std::uint64_t cycles;
};

constexpr McGoldenRow kMcGolden[] = {
    {"ring_pass", 2, config::DirectoryScheme::kFullMap, 0, 4307ULL},
    {"ring_pass", 2, config::DirectoryScheme::kSparse, 16, 4307ULL},
    {"ring_pass", 4, config::DirectoryScheme::kFullMap, 0, 3617ULL},
    {"ring_pass", 4, config::DirectoryScheme::kSparse, 16, 3617ULL},
    {"ring_pass", 8, config::DirectoryScheme::kFullMap, 0, 9028ULL},
    {"ring_pass", 8, config::DirectoryScheme::kSparse, 16, 9028ULL},
    {"threaded_stream", 2, config::DirectoryScheme::kFullMap, 0, 238615ULL},
    {"threaded_stream", 2, config::DirectoryScheme::kSparse, 16, 273150ULL},
    {"threaded_stream", 4, config::DirectoryScheme::kFullMap, 0, 124617ULL},
    {"threaded_stream", 4, config::DirectoryScheme::kSparse, 16, 163793ULL},
    {"threaded_stream", 8, config::DirectoryScheme::kFullMap, 0, 52218ULL},
    {"threaded_stream", 8, config::DirectoryScheme::kSparse, 16, 111342ULL},
};

TEST(GoldenCycles, MulticorePinsBitIdentical) {
  for (const McGoldenRow& row : kMcGolden) {
    config::CpuConfig cfg = config::thunderx2_baseline();
    cfg.mc.num_cores = row.cores;
    cfg.mc.directory_scheme = row.scheme;
    cfg.mc.directory_entries = row.entries;
    const sim::MulticoreResult result = sim::simulate_mc_app(
        cfg, kernels::mc_app_from_slug(row.app_slug));
    EXPECT_EQ(result.cycles, row.cycles)
        << row.app_slug << " at " << row.cores << " cores ("
        << config::directory_scheme_name(row.scheme) << ", " << row.entries
        << " entries): tiled-model cycles diverged from the pinned run";
  }
}

}  // namespace
}  // namespace adse
