#include "sim/hardware_proxy.hpp"

#include <utility>

#include "sim/batch_sim.hpp"

namespace adse::sim {

RunResult simulate_hardware(const config::CpuConfig& config,
                            const isa::Program& program,
                            const ProxyOptions& options) {
  config::CpuConfig hw = config;
  hw.name = config.name + "-hw";

  mem::FidelityOptions mem_fidelity;
  mem_fidelity.prefetch_boost_l2 = options.prefetch_boost_l2;
  mem_fidelity.prefetch_boost_ram = options.prefetch_boost_ram;
  mem_fidelity.prefetch_into_l1 = true;  // real cores fill L1, not just L2
  mem_fidelity.prefetch_on_l2_hits = true;  // core-side prefetcher training
  mem_fidelity.stream_prefetcher = true;    // real cores track access streams
  mem_fidelity.finite_banks = options.finite_banks;
  mem_fidelity.mshr_entries = options.mshr_entries;
  mem_fidelity.model_tlb = options.model_tlb;
  mem_fidelity.dram_latency_scale = options.dram_latency_scale;
  mem_fidelity.dram_interval_scale = options.dram_interval_scale;

  core::CoreFidelity core_fidelity;
  core_fidelity.mispredict_interval = options.mispredict_interval;
  core_fidelity.mispredict_loop_exits = options.mispredict_loop_exits;
  core_fidelity.mispredict_penalty = options.mispredict_penalty;
  core_fidelity.forward_latency = options.forward_latency;

  const core::DecodedTrace decoded(program);
  return std::move(simulate_lanes({&hw, 1}, program, decoded, mem_fidelity,
                                  core_fidelity, nullptr)[0]);
}

RunResult simulate_hardware_app(const config::CpuConfig& config,
                                kernels::App app, const ProxyOptions& options) {
  const isa::Program program =
      kernels::build_app(app, config.core.vector_length_bits);
  return simulate_hardware(config, program, options);
}

}  // namespace adse::sim
