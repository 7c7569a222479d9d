#include "eval/backend.hpp"

#include <algorithm>
#include <cmath>

#include "sim/batch_sim.hpp"

namespace adse::eval {

const std::string& SimulatorBackend::key() const {
  static const std::string k = "sim";
  return k;
}

std::vector<sim::RunResult> SimulatorBackend::run_batch(
    std::span<const config::CpuConfig> configs, kernels::App /*app*/,
    const isa::Program& trace) const {
  return sim::simulate_batch(configs, trace);
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
