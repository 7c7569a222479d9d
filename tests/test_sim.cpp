#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/require.hpp"
#include "config/baselines.hpp"
#include "obs/metrics.hpp"
#include "sim/hardware_proxy.hpp"

namespace adse::sim {
namespace {

TEST(Simulation, RunsEveryAppOnBaseline) {
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  for (kernels::App app : kernels::all_apps()) {
    const RunResult result = simulate_app(tx2, app);
    EXPECT_GT(result.cycles(), 0u);
    EXPECT_EQ(result.config_name, "thunderx2");
    EXPECT_EQ(result.app, kernels::app_slug(app));
    EXPECT_GT(result.core.ipc(), 0.1);
    EXPECT_LE(result.core.ipc(), config::kDispatchWidth);
  }
}

TEST(Simulation, Deterministic) {
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  EXPECT_EQ(simulate_app(tx2, kernels::App::kStream).cycles(),
            simulate_app(tx2, kernels::App::kStream).cycles());
}

TEST(Simulation, BiggerMachineIsFaster) {
  for (kernels::App app : kernels::all_apps()) {
    const auto minimal = simulate_app(config::minimal_viable(), app);
    const auto big = simulate_app(config::big_future(), app);
    EXPECT_LT(big.cycles(), minimal.cycles()) << kernels::app_name(app);
  }
}

TEST(Simulation, VectorLengthSpeedsUpVectorisedCodes) {
  config::CpuConfig narrow = config::thunderx2_baseline();
  config::CpuConfig wide = narrow;
  wide.core.vector_length_bits = 1024;
  wide.core.load_bandwidth_bytes = 128;
  wide.core.store_bandwidth_bytes = 128;
  EXPECT_LT(simulate_app(wide, kernels::App::kMiniBude).cycles() * 2,
            simulate_app(narrow, kernels::App::kMiniBude).cycles());
  // ...but barely moves the poorly vectorised TeaLeaf.
  const auto tl_narrow = simulate_app(narrow, kernels::App::kTeaLeaf).cycles();
  const auto tl_wide = simulate_app(wide, kernels::App::kTeaLeaf).cycles();
  EXPECT_GT(static_cast<double>(tl_wide),
            0.8 * static_cast<double>(tl_narrow));
}

TEST(Simulation, ValidateResultCatchesShortRetirement) {
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  const Trace& trace = sim::trace(kernels::App::kStream, 128);
  RunResult fake;
  fake.app = "stream";
  fake.core.retired = trace.size() - 1;
  fake.core.cycles = 100;
  EXPECT_THROW(validate_result(fake, trace.size()), InvariantError);
}

TEST(Simulation, MemStatsArePopulated) {
  const RunResult result =
      simulate_app(config::thunderx2_baseline(), kernels::App::kStream);
  EXPECT_GT(result.mem.loads, 0u);
  EXPECT_GT(result.mem.stores, 0u);
  EXPECT_GT(result.mem.ram_requests, 0u);
  EXPECT_GT(result.mem.l1_hit_rate(), 0.5);
}

TEST(Simulation, SingleRunCountsOneSimulationAndNoBatch) {
  // A single run is a one-lane engine pass: it exports the per-run sim.*
  // counters but is not a batch.
  obs::Counter& simulations =
      obs::Registry::global().counter("sim.simulations");
  obs::Counter& batch_runs = obs::Registry::global().counter("sim.batch_runs");
  const std::uint64_t sims_before = simulations.value();
  const std::uint64_t batches_before = batch_runs.value();
  simulate_app(config::thunderx2_baseline(), kernels::App::kMiniBude);
  EXPECT_EQ(simulations.value() - sims_before, 1u);
  EXPECT_EQ(batch_runs.value(), batches_before);
}

TEST(HardwareProxy, ConservationLawsHoldUnderChecks) {
  // The proxy runs through the same checked path as the campaign simulator:
  // with CheckContext on, the per-cycle invariants and the hierarchy/LSQ
  // conservation laws must hold, and checking must not move a counter.
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  for (kernels::App app : kernels::all_apps()) {
    const RunResult plain = simulate_app(tx2, app, proxy_fidelity());
    ScopedCheck check(true);
    const RunResult checked = simulate_app(tx2, app, proxy_fidelity());
    EXPECT_EQ(checked.cycles(), plain.cycles()) << kernels::app_name(app);
    EXPECT_EQ(checked.mem.line_requests, plain.mem.line_requests)
        << kernels::app_name(app);
  }
}

TEST(HardwareProxy, DiffersFromCampaignSimulator) {
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  const Trace& trace = sim::trace(kernels::App::kMiniSweep, 128);
  const RunResult sim = simulate(tx2, trace);
  const RunResult hw = simulate(tx2, trace, proxy_fidelity());
  EXPECT_NE(sim.cycles(), hw.cycles());
  EXPECT_EQ(hw.core.retired, sim.core.retired);  // same work either way
}

TEST(HardwareProxy, PenaltiesOffButPrefetcherOnIsFaster) {
  // With every penalty disabled the proxy only has advantages.
  ProxyOptions pure;
  pure.finite_banks = 0;
  pure.mshr_entries = 0;
  pure.model_tlb = false;
  pure.mispredict_interval = 0;
  pure.mispredict_loop_exits = false;
  pure.forward_latency = 1;
  pure.dram_latency_scale = 1.0;
  pure.dram_interval_scale = 1.0;
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  const Trace& trace = sim::trace(kernels::App::kStream, 128);
  const RunResult sim = simulate(tx2, trace);
  const RunResult hw = simulate(tx2, trace, proxy_fidelity(pure));
  EXPECT_LE(hw.cycles(), sim.cycles());
}

TEST(HardwareProxy, DeterministicToo) {
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  EXPECT_EQ(
      simulate_app(tx2, kernels::App::kTeaLeaf, proxy_fidelity()).cycles(),
      simulate_app(tx2, kernels::App::kTeaLeaf, proxy_fidelity()).cycles());
}

TEST(Simulation, SveFractionsMatchFig1Pattern) {
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  const double stream = simulate_app(tx2, kernels::App::kStream).core.sve_fraction();
  const double bude = simulate_app(tx2, kernels::App::kMiniBude).core.sve_fraction();
  const double tealeaf = simulate_app(tx2, kernels::App::kTeaLeaf).core.sve_fraction();
  const double sweep = simulate_app(tx2, kernels::App::kMiniSweep).core.sve_fraction();
  EXPECT_GT(stream, 0.4);
  EXPECT_GT(bude, 0.4);
  EXPECT_LT(tealeaf, 0.15);
  EXPECT_LT(sweep, 0.15);
}

}  // namespace
}  // namespace adse::sim
