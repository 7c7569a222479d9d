#include "sim/hardware_proxy.hpp"

namespace adse::sim {

Fidelity proxy_fidelity(const ProxyOptions& options) {
  Fidelity fidelity;
  mem::FidelityOptions& mem = fidelity.mem;
  mem.prefetch_boost_l2 = options.prefetch_boost_l2;
  mem.prefetch_boost_ram = options.prefetch_boost_ram;
  mem.prefetch_into_l1 = true;      // real cores fill L1, not just L2
  mem.prefetch_on_l2_hits = true;   // core-side prefetcher training
  mem.stream_prefetcher = true;     // real cores track access streams
  mem.finite_banks = options.finite_banks;
  mem.mshr_entries = options.mshr_entries;
  mem.model_tlb = options.model_tlb;
  mem.dram_latency_scale = options.dram_latency_scale;
  mem.dram_interval_scale = options.dram_interval_scale;

  core::CoreFidelity& core = fidelity.core;
  core.mispredict_interval = options.mispredict_interval;
  core.mispredict_loop_exits = options.mispredict_loop_exits;
  core.mispredict_penalty = options.mispredict_penalty;
  core.forward_latency = options.forward_latency;
  return fidelity;
}

}  // namespace adse::sim
