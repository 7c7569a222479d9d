/// \file test_batch_sim.cpp
/// Lane independence: a config run as one lane of a K-lane
/// sim::simulate_batch is bit-identical to the same config run alone
/// (sim::simulate, a one-lane pass) — every CoreStats and MemStats field,
/// not just cycles — across fuzzed configurations, lane counts, and check
/// modes, whatever interleaving the windowed scheduler picks. Plus the
/// batch-only semantics: mixed-VL batches are rejected, early-finishing lanes
/// retire and compact, and the engine is single-use.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/require.hpp"
#include "config/baselines.hpp"
#include "config/param_space.hpp"
#include "core/batched_core.hpp"
#include "kernels/workloads.hpp"
#include "sim/batch_sim.hpp"
#include "sim/simulation.hpp"

namespace adse {
namespace {

/// Samples a valid config pinned to `vl` (batches must share a VL).
config::CpuConfig sampled_config(std::uint64_t seed, int vl) {
  const config::ParameterSpace space;
  Rng rng(seed);
  config::SampleConstraints constraints;
  constraints.fixed_vector_length = vl;
  return space.sample(rng, constraints);
}

#define EXPECT_FIELD_EQ(field) \
  EXPECT_EQ(batched.field, alone.field) << "lane " << lane << " diverges"

void expect_core_identical(const core::CoreStats& batched,
                           const core::CoreStats& alone, std::size_t lane) {
  EXPECT_FIELD_EQ(cycles);
  EXPECT_FIELD_EQ(retired);
  EXPECT_FIELD_EQ(retired_sve);
  for (int g = 0; g < isa::kNumInstrGroups; ++g) {
    EXPECT_FIELD_EQ(retired_by_group[g]);
  }
  EXPECT_FIELD_EQ(cycles_entered);
  EXPECT_FIELD_EQ(cycles_skipped);
  for (int s = 0; s < core::kNumStages; ++s) {
    EXPECT_FIELD_EQ(stage_active_cycles[s]);
  }
  EXPECT_FIELD_EQ(rs_wakeups);
  EXPECT_FIELD_EQ(stall_fetch_bytes);
  for (int c = 0; c < isa::kNumRegClasses; ++c) {
    EXPECT_FIELD_EQ(stall_no_phys[c]);
    EXPECT_FIELD_EQ(regfile_reads[c]);
    EXPECT_FIELD_EQ(regfile_writes[c]);
  }
  EXPECT_FIELD_EQ(stall_rob_full);
  EXPECT_FIELD_EQ(stall_rs_full);
  EXPECT_FIELD_EQ(stall_lq_full);
  EXPECT_FIELD_EQ(stall_sq_full);
  EXPECT_FIELD_EQ(loads_forwarded);
  EXPECT_FIELD_EQ(loads_sent);
  EXPECT_FIELD_EQ(stores_sent);
  EXPECT_FIELD_EQ(loop_buffer_ops);
  EXPECT_FIELD_EQ(sve_lane_ops);
}

void expect_mem_identical(const mem::MemStats& batched,
                          const mem::MemStats& alone, std::size_t lane) {
  EXPECT_FIELD_EQ(loads);
  EXPECT_FIELD_EQ(stores);
  EXPECT_FIELD_EQ(line_requests);
  EXPECT_FIELD_EQ(l1_hits);
  EXPECT_FIELD_EQ(l1_misses);
  EXPECT_FIELD_EQ(l2_hits);
  EXPECT_FIELD_EQ(l2_misses);
  EXPECT_FIELD_EQ(l1_reads);
  EXPECT_FIELD_EQ(l1_writes);
  EXPECT_FIELD_EQ(l2_reads);
  EXPECT_FIELD_EQ(l2_writes);
  EXPECT_FIELD_EQ(ram_requests);
  EXPECT_FIELD_EQ(dirty_writebacks);
  EXPECT_FIELD_EQ(prefetch_fills);
  EXPECT_FIELD_EQ(tlb_misses);
  EXPECT_FIELD_EQ(bank_conflicts);
}

#undef EXPECT_FIELD_EQ

void expect_lanes_match_single_runs(std::span<const config::CpuConfig> configs,
                                 const isa::Program& trace) {
  const std::vector<sim::RunResult> batched =
      sim::simulate_batch(configs, trace);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t lane = 0; lane < configs.size(); ++lane) {
    const sim::RunResult alone_run = sim::simulate(configs[lane], trace);
    expect_core_identical(batched[lane].core, alone_run.core, lane);
    expect_mem_identical(batched[lane].mem, alone_run.mem, lane);
    EXPECT_EQ(batched[lane].config_name, configs[lane].name);
    EXPECT_EQ(batched[lane].app, trace.name);
  }
}

TEST(BatchSim, BitIdenticalToScalarAcrossFuzzedConfigs) {
  // A spread of VL groups and fuzzed designs; every app shape is covered by
  // the golden-cycles gate, so two contrasting apps suffice here.
  for (const int vl : {128, 512}) {
    std::vector<config::CpuConfig> configs;
    for (std::uint64_t seed : {7u, 21u, 35u, 77u}) {
      configs.push_back(sampled_config(seed * 0x9e3779b97f4a7c15ULL + 1, vl));
    }
    if (vl == 128) configs.push_back(config::thunderx2_baseline());
    for (const auto app : {kernels::App::kStream, kernels::App::kMiniSweep}) {
      const isa::Program trace = kernels::build_app(app, vl);
      expect_lanes_match_single_runs(configs, trace);
    }
  }
}

TEST(BatchSim, SingleLaneBatchMatchesScalar) {
  const std::vector<config::CpuConfig> configs{config::thunderx2_baseline()};
  const isa::Program trace = kernels::build_app(
      kernels::App::kTeaLeaf, configs[0].core.vector_length_bits);
  expect_lanes_match_single_runs(configs, trace);
}

TEST(BatchSim, MixedVectorLengthBatchRejects) {
  std::vector<config::CpuConfig> configs{sampled_config(3, 128),
                                         sampled_config(4, 512)};
  const isa::Program trace = kernels::build_app(kernels::App::kStream, 128);
  EXPECT_THROW(sim::simulate_batch(configs, trace), InvariantError);
}

TEST(BatchSim, InvalidLaneIsRejectedBeforeAnythingIsBuilt) {
  // A zero-way L1 is caught by config validation (which names the field)
  // before the lane's hierarchy is sized from it (whose own check would
  // complain about associativity instead).
  std::vector<config::CpuConfig> configs{config::thunderx2_baseline(),
                                         config::thunderx2_baseline()};
  configs[1].mem.l1_assoc = 0;
  const isa::Program trace = kernels::build_app(
      kernels::App::kStream, configs[0].core.vector_length_bits);
  try {
    sim::simulate_batch(configs, trace);
    FAIL() << "an invalid lane must be rejected";
  } catch (const InvariantError& err) {
    EXPECT_NE(std::string(err.what()).find("l1_assoc"), std::string::npos)
        << err.what();
  }
}

TEST(BatchSim, EarlyLaneRetirementCompactsTheBatch) {
  // A deliberately lopsided batch: the baseline against a weak fuzzed design
  // (slow lanes keep draining after fast lanes retire). The scheduler's
  // occupancy accounting must show rounds that ran below full width, and
  // every lane's stats must still be exact.
  std::vector<config::CpuConfig> configs{config::thunderx2_baseline()};
  for (std::uint64_t seed : {5u, 6u, 9u}) {
    configs.push_back(sampled_config(seed, 128));
  }
  const isa::Program trace = kernels::build_app(kernels::App::kMiniBude, 128);

  core::BatchRunInfo info;
  const std::vector<sim::RunResult> batched =
      sim::simulate_batch(configs, trace, &info);
  ASSERT_EQ(batched.size(), configs.size());
  EXPECT_GT(info.windows, 0u);
  EXPECT_LE(info.mean_active_lanes(), static_cast<double>(configs.size()));
  EXPECT_GE(info.mean_active_lanes(), 1.0);

  std::uint64_t min_cycles = batched[0].core.cycles;
  std::uint64_t max_cycles = batched[0].core.cycles;
  for (const sim::RunResult& r : batched) {
    min_cycles = std::min(min_cycles, r.core.cycles);
    max_cycles = std::max(max_cycles, r.core.cycles);
  }
  if (max_cycles - min_cycles >= 2 * core::BatchedCore::kDrainCycles) {
    // The speed gap spans drain quanta, so some rounds must have run with
    // the batch partially retired.
    EXPECT_LT(info.mean_active_lanes(), static_cast<double>(configs.size()));
  }
  for (std::size_t lane = 0; lane < configs.size(); ++lane) {
    const sim::RunResult alone_run = sim::simulate(configs[lane], trace);
    expect_core_identical(batched[lane].core, alone_run.core, lane);
  }
}

TEST(BatchSim, InvariantChecksRunInsideBatchedLanes) {
  // ADSE_CHECK=1 turns on the per-cycle structural sweep inside every lane
  // and the cross-component conservation laws per lane; a clean batch must
  // pass, and the counts must not shift under checking.
  std::vector<config::CpuConfig> configs{config::thunderx2_baseline(),
                                         sampled_config(13, 128)};
  const isa::Program trace = kernels::build_app(kernels::App::kStream, 128);
  const std::vector<sim::RunResult> plain = sim::simulate_batch(configs, trace);
  ScopedCheck check(true);
  const std::vector<sim::RunResult> checked =
      sim::simulate_batch(configs, trace);
  for (std::size_t lane = 0; lane < configs.size(); ++lane) {
    expect_core_identical(checked[lane].core, plain[lane].core, lane);
  }
}

TEST(BatchSim, EngineIsSingleUse) {
  const std::vector<config::CpuConfig> configs{config::thunderx2_baseline()};
  const isa::Program trace = kernels::build_app(
      kernels::App::kStream, configs[0].core.vector_length_bits);
  mem::MemoryHierarchy hierarchy(configs[0].mem, config::kCoreClockGhz);
  mem::MemoryHierarchy* ptr = &hierarchy;
  core::BatchedCore engine(configs, {&ptr, 1});
  const core::DecodedTrace decoded(trace);
  engine.run(decoded);
  EXPECT_THROW(engine.run(decoded), InvariantError);
}

}  // namespace
}  // namespace adse
