/// \file 90_micro_simulator.cpp
/// google-benchmark microbenchmarks of the simulation substrate itself:
/// per-app simulation throughput, trace generation, cache and hierarchy
/// access rates. These bound how large a campaign a given machine can run
/// (the paper's artifact quotes ~1 MIPS for SimEng; we report the analogous
/// figures for this model).

#include <benchmark/benchmark.h>

#include "config/baselines.hpp"
#include "config/param_space.hpp"
#include "kernels/workloads.hpp"
#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace adse;

void BM_SimulateApp(benchmark::State& state) {
  const auto app = static_cast<kernels::App>(state.range(0));
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  const sim::Trace& trace = sim::trace(app, 128);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    const auto result = sim::simulate(tx2, trace);
    benchmark::DoNotOptimize(result.core.cycles);
    ops += result.core.retired;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.SetLabel(kernels::app_name(app) + " (items = simulated µops)");
}
BENCHMARK(BM_SimulateApp)->DenseRange(0, kernels::kNumApps - 1)
    ->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
  const auto app = static_cast<kernels::App>(state.range(0));
  std::uint64_t ops = 0;
  for (auto _ : state) {
    const isa::Program program = kernels::build_app(app, 128);
    benchmark::DoNotOptimize(program.ops.data());
    ops += program.ops.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_TraceGeneration)->DenseRange(0, kernels::kNumApps - 1)
    ->Unit(benchmark::kMicrosecond);

void BM_ConfigSampling(benchmark::State& state) {
  const config::ParameterSpace space;
  Rng rng(1);
  for (auto _ : state) {
    const config::CpuConfig c = space.sample(rng);
    benchmark::DoNotOptimize(c.core.rob_size);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ConfigSampling);

void BM_CacheAccess(benchmark::State& state) {
  mem::Cache cache(mem::CacheGeometry{32 * 1024, 64, 8});
  // Working set twice the cache: a realistic hit/miss mix.
  const std::uint64_t span = 64 * 1024;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    const bool hit = cache.access(addr, false);
    if (!hit) cache.insert(addr, false);
    benchmark::DoNotOptimize(hit);
    addr = (addr + 64) % span;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void BM_HierarchyStream(benchmark::State& state) {
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  mem::MemoryHierarchy hierarchy(tx2.mem, config::kCoreClockGhz);
  std::uint64_t addr = 0;
  std::uint64_t now = 0;
  for (auto _ : state) {
    const auto result = hierarchy.access(addr, 16, false, now);
    benchmark::DoNotOptimize(result.ready_cycle);
    addr += 16;
    now += 2;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HierarchyStream);

void BM_SimulateAcrossVectorLengths(benchmark::State& state) {
  const int vl = static_cast<int>(state.range(0));
  config::CpuConfig c = config::thunderx2_baseline();
  c.core.vector_length_bits = vl;
  while (c.core.load_bandwidth_bytes < vl / 8) c.core.load_bandwidth_bytes *= 2;
  while (c.core.store_bandwidth_bytes < vl / 8) c.core.store_bandwidth_bytes *= 2;
  const sim::Trace& trace = sim::trace(kernels::App::kStream, vl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(c, trace).core.cycles);
  }
  state.SetLabel("STREAM @ VL " + std::to_string(vl));
}
BENCHMARK(BM_SimulateAcrossVectorLengths)
    ->Arg(128)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
