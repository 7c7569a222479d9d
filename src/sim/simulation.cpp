#include "sim/simulation.hpp"

#include <utility>

#include "common/require.hpp"
#include "obs/trace.hpp"
#include "sim/batch_sim.hpp"

namespace adse::sim {

RunResult simulate(const config::CpuConfig& config,
                   const isa::Program& program) {
  // One span per simulation; the decode runs inside it, like the engine.
  obs::Span span("sim.simulate", "sim");
  const core::DecodedTrace decoded(program);
  return std::move(
      simulate_lanes({&config, 1}, program, decoded, {}, {}, nullptr)[0]);
}

RunResult simulate_app(const config::CpuConfig& config, kernels::App app) {
  const isa::Program program =
      kernels::build_app(app, config.core.vector_length_bits);
  return simulate(config, program);
}

void validate_result(const RunResult& result, const isa::Program& program) {
  ADSE_REQUIRE_MSG(result.core.retired == program.ops.size(),
                   "retired " << result.core.retired << " of "
                              << program.ops.size() << " µops in '"
                              << program.name << "'");
  ADSE_REQUIRE_MSG(result.core.cycles > 0, "zero-cycle run");
  // A µop can retire at best 1 per dispatch slot per cycle; the widest
  // configurable backend dispatches 64/cycle.
  ADSE_REQUIRE_MSG(result.core.ipc() <= 64.0 + 1e-9,
                   "impossible IPC " << result.core.ipc());
}

}  // namespace adse::sim
