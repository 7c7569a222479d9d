#pragma once
/// \file backend.hpp
/// The pluggable evaluation backend behind `eval::EvalService` — the seam
/// the serving-style performance-model literature (Concorde, NeuroScalar)
/// builds around: one evaluation front-end, interchangeable fast/slow
/// implementations behind it. Three backends ship:
///
///   * `SimulatorBackend`      — the campaign-fidelity cycle simulator
///                               (sim::simulate); the ground truth.
///   * `HardwareProxyBackend`  — the Table-I "silicon" model
///                               (sim::simulate_hardware) with its fidelity
///                               knobs.
///   * `SurrogateForestBackend`— a trained random-forest surrogate; ~10^5x
///                               cheaper per query, for pre-screening large
///                               candidate pools before paying for cycles.
///
/// Backends are identified by a stable `key()` mixed into memo and store
/// keys, so results from different backends never alias. Deterministic
/// backends (`persistable()`) are eligible for the on-disk result store;
/// the surrogate is not — its output depends on whatever model it was
/// trained on, which is not part of the key.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "config/cpu_config.hpp"
#include "isa/program.hpp"
#include "kernels/workloads.hpp"
#include "ml/forest.hpp"
#include "sim/hardware_proxy.hpp"
#include "sim/simulation.hpp"

namespace adse::eval {

class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable identity ("sim", "proxy", ...) mixed into memo/store keys.
  virtual const std::string& key() const = 0;

  /// True if results are a pure function of (config, app) and may be
  /// persisted to (and served from) the on-disk result store.
  virtual bool persistable() const { return true; }

  /// True if the backend consumes the instruction trace. The service skips
  /// trace construction for backends that don't (the surrogate), keeping
  /// pre-screening queries trace-free and cheap.
  virtual bool needs_trace() const { return true; }

  /// Evaluates one (config, app) pair. `trace` is the app's trace for the
  /// config's vector length when `needs_trace()`, else an empty program.
  /// Must be safe to call concurrently from multiple threads.
  virtual sim::RunResult run(const config::CpuConfig& config, kernels::App app,
                             const isa::Program& trace) const = 0;

  /// Evaluates K (config, app) pairs against one shared trace; results come
  /// back in config order. All configs must share the trace's vector length.
  /// The service groups and chunks requests into these batches for every
  /// backend that `needs_trace()`. The default is the scalar loop; the cycle
  /// simulator overrides with one K-lane engine pass (sim::simulate_batch).
  virtual std::vector<sim::RunResult> run_batch(
      std::span<const config::CpuConfig> configs, kernels::App app,
      const isa::Program& trace) const;
};

/// The campaign-fidelity cycle simulator (infinite banks / unlimited MSHRs /
/// perfect branches — the SST defaults the paper describes).
class SimulatorBackend final : public Backend {
 public:
  const std::string& key() const override;
  sim::RunResult run(const config::CpuConfig& config, kernels::App app,
                     const isa::Program& trace) const override;
  std::vector<sim::RunResult> run_batch(
      std::span<const config::CpuConfig> configs, kernels::App app,
      const isa::Program& trace) const override;
};

/// The ThunderX2 hardware stand-in (Table I): same core model with the
/// fidelity features switched on.
class HardwareProxyBackend final : public Backend {
 public:
  explicit HardwareProxyBackend(sim::ProxyOptions options = {});

  /// "proxy/<every fidelity knob>" — proxies with different options never
  /// alias in the memo or the result store.
  const std::string& key() const override;
  sim::RunResult run(const config::CpuConfig& config, kernels::App app,
                     const isa::Program& trace) const override;

 private:
  sim::ProxyOptions options_;
  std::string key_;
};

/// A per-app forest surrogate serving cycle predictions instead of
/// simulations. Cheap enough to screen thousands of candidates per round;
/// never persisted (predictions change whenever the model is retrained).
class SurrogateForestBackend final : public Backend {
 public:
  /// Takes ownership of one fitted forest per application. `log_space`
  /// marks forests trained on log(cycles) (the DSE default), so predictions
  /// are mapped back through exp().
  SurrogateForestBackend(
      std::array<ml::RandomForestRegressor, kernels::kNumApps> forests,
      bool log_space);

  const std::string& key() const override;
  bool persistable() const override { return false; }
  bool needs_trace() const override { return false; }
  sim::RunResult run(const config::CpuConfig& config, kernels::App app,
                     const isa::Program& trace) const override;

 private:
  std::array<ml::RandomForestRegressor, kernels::kNumApps> forests_;
  bool log_space_;
};

}  // namespace adse::eval
