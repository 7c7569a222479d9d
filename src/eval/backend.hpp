#pragma once
/// \file backend.hpp
/// The evaluation backend behind `eval::EvalService` — the seam the
/// serving-style performance-model literature (Concorde, NeuroScalar) builds
/// around: one evaluation front-end, interchangeable implementations behind
/// it. One real backend ships, `SimulatorBackend` (the campaign-fidelity
/// cycle simulator, the ground truth); tests plug fakes into the same seam.
///
/// Backends are identified by a stable `key()` mixed into memo and store
/// keys, so results from different backends never alias. A backend's answer
/// is a pure function of (config, app), so every fresh run is persisted.

#include <span>
#include <string>
#include <vector>

#include "config/cpu_config.hpp"
#include "isa/program.hpp"
#include "kernels/workloads.hpp"
#include "sim/simulation.hpp"

namespace adse::eval {

class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable identity ("sim", ...) mixed into memo/store keys.
  virtual const std::string& key() const = 0;

  /// Evaluates K (config, app) pairs against one shared trace; results come
  /// back in config order. All configs share the trace's vector length. The
  /// service groups and chunks every request into these batches (one lane
  /// each when batch_k <= 1). Must be safe to call concurrently; throws
  /// InvariantError when a lane violates a model invariant.
  virtual std::vector<sim::RunResult> run_batch(
      std::span<const config::CpuConfig> configs, kernels::App app,
      const isa::Program& trace) const = 0;
};

/// The campaign-fidelity cycle simulator (infinite banks / unlimited MSHRs /
/// perfect branches — the SST defaults the paper describes), run as one
/// K-lane engine pass per batch (sim::simulate_batch).
class SimulatorBackend final : public Backend {
 public:
  const std::string& key() const override;
  std::vector<sim::RunResult> run_batch(
      std::span<const config::CpuConfig> configs, kernels::App app,
      const isa::Program& trace) const override;
};

/// A surrogate's answer: `predicted_cycles` rounded to at least one cycle,
/// with the config's exact area and leakage (dynamic energy needs event
/// counts a surrogate does not predict, and stays zero).
sim::RunResult surrogate_result(const config::CpuConfig& config,
                                kernels::App app, double predicted_cycles);

}  // namespace adse::eval
