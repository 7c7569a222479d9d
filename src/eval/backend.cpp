#include "eval/backend.hpp"

#include <cmath>
#include <cstdio>

#include "common/require.hpp"
#include "sim/batch_sim.hpp"

namespace adse::eval {

namespace {

/// Every fidelity knob is folded into the backend key: two proxies with
/// different options must never alias in the memo or the result store.
std::string proxy_key(const sim::ProxyOptions& o) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "proxy/pf%d-%d/b%d/mshr%d/tlb%d/mi%d-%d-%d/fwd%d/dram%g-%g",
                o.prefetch_boost_l2, o.prefetch_boost_ram, o.finite_banks,
                o.mshr_entries, o.model_tlb ? 1 : 0, o.mispredict_interval,
                o.mispredict_loop_exits ? 1 : 0, o.mispredict_penalty,
                o.forward_latency, o.dram_latency_scale, o.dram_interval_scale);
  return buf;
}

}  // namespace

std::vector<sim::RunResult> Backend::run_batch(
    std::span<const config::CpuConfig> configs, kernels::App app,
    const isa::Program& trace) const {
  std::vector<sim::RunResult> out;
  out.reserve(configs.size());
  for (const config::CpuConfig& config : configs) {
    out.push_back(run(config, app, trace));
  }
  return out;
}

const std::string& SimulatorBackend::key() const {
  static const std::string k = "sim";
  return k;
}

sim::RunResult SimulatorBackend::run(const config::CpuConfig& config,
                                     kernels::App /*app*/,
                                     const isa::Program& trace) const {
  return sim::simulate(config, trace);
}

std::vector<sim::RunResult> SimulatorBackend::run_batch(
    std::span<const config::CpuConfig> configs, kernels::App /*app*/,
    const isa::Program& trace) const {
  return sim::simulate_batch(configs, trace);
}

HardwareProxyBackend::HardwareProxyBackend(sim::ProxyOptions options)
    : options_(options), key_(proxy_key(options_)) {}

const std::string& HardwareProxyBackend::key() const { return key_; }

sim::RunResult HardwareProxyBackend::run(const config::CpuConfig& config,
                                         kernels::App /*app*/,
                                         const isa::Program& trace) const {
  return sim::simulate_hardware(config, trace, options_);
}

SurrogateForestBackend::SurrogateForestBackend(
    std::array<ml::RandomForestRegressor, kernels::kNumApps> forests,
    bool log_space)
    : forests_(std::move(forests)), log_space_(log_space) {
  for (const auto& forest : forests_) {
    ADSE_REQUIRE_MSG(forest.fitted(),
                     "SurrogateForestBackend needs one fitted forest per app");
  }
}

const std::string& SurrogateForestBackend::key() const {
  static const std::string k = "forest";
  return k;
}

sim::RunResult SurrogateForestBackend::run(const config::CpuConfig& config,
                                           kernels::App app,
                                           const isa::Program& /*trace*/) const {
  const auto features = config::feature_vector(config);
  double predicted = forests_[static_cast<std::size_t>(app)].predict(
      {features.begin(), features.end()});
  if (log_space_) predicted = std::exp(predicted);
  return surrogate_result(config, app, predicted);
}

sim::RunResult surrogate_result(const config::CpuConfig& config,
                                kernels::App app, double predicted_cycles) {
  sim::RunResult result;
  result.app = kernels::app_slug(app);
  result.config_name = config.name;
  result.core.cycles = static_cast<std::uint64_t>(
      std::llround(std::max(predicted_cycles, 1.0)));
  result.power = power::analyze(config, result.core, result.mem);
  return result;
}

}  // namespace adse::eval
