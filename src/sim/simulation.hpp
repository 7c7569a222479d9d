#pragma once
/// \file simulation.hpp
/// One-call façade over core + memory + workloads: the equivalent of "run
/// SimEng with this YAML config and this binary, collect the statistics".
/// A single simulation is a one-lane pass of the lane engine — the same
/// pass as sim::simulate_batch (sim/batch_sim.hpp) — so it shares that
/// path's validation, conservation checks and counters.

#include <cstdint>
#include <string>

#include "config/cpu_config.hpp"
#include "core/batched_core.hpp"
#include "core/core_stats.hpp"
#include "kernels/workloads.hpp"
#include "mem/hierarchy.hpp"
#include "power/power_model.hpp"
#include "sim/trace.hpp"

namespace adse::sim {

/// Everything a single simulation returns.
struct RunResult {
  std::string app;
  std::string config_name;
  core::CoreStats core;
  mem::MemStats mem;
  /// Analytical power/area for this run (adse::power).
  power::PowerResult power;

  std::uint64_t cycles() const { return core.cycles; }
  double energy_j() const { return power.energy_j(); }
};

/// The model's fidelity effects. The defaults are the campaign simulator
/// (infinite banks / unlimited MSHRs / perfect branches — the SST defaults
/// the paper describes); sim::proxy_fidelity() is the "hardware" preset.
struct Fidelity {
  mem::FidelityOptions mem;
  core::CoreFidelity core;
};

/// Runs `trace` on `config`: a one-lane engine pass under the
/// "sim.simulate" span, counted as a simulation but not as a batch.
RunResult simulate(const config::CpuConfig& config, const Trace& trace,
                   const Fidelity& fidelity = {});

/// The same, on the process-wide trace of `app` at the config's vector
/// length (sim::trace).
RunResult simulate_app(const config::CpuConfig& config, kernels::App app,
                       const Fidelity& fidelity = {});

/// Basic sanity checks on a result (every one of the trace's `trace_ops`
/// µops retired, cycles positive). Mirrors the paper's "only runs that pass
/// validation are considered".
void validate_result(const RunResult& result, std::uint64_t trace_ops);

}  // namespace adse::sim
