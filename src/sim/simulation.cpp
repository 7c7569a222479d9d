#include "sim/simulation.hpp"

#include <deque>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/require.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/batch_sim.hpp"

namespace adse::sim {

namespace {

/// The engine pass behind every entry point: one lane per config over
/// `decoded`, each lane with its own memory hierarchy. Assembles,
/// validates, prices and (under CheckContext) conservation-checks every
/// result, and exports the per-run `sim.*` counters. Opens no trace span
/// and counts no batch: the entry points do.
std::vector<RunResult> run_lanes(std::span<const config::CpuConfig> configs,
                                 const core::DecodedTrace& decoded,
                                 const Fidelity& fidelity,
                                 core::BatchRunInfo* info) {
  ADSE_REQUIRE_MSG(!configs.empty(), "empty config batch");

  // Validate every lane before building anything: a hierarchy is sized from
  // its config, so an out-of-range one could ask for an absurd allocation.
  for (const config::CpuConfig& config : configs) config::validate(config);

  // One hierarchy per lane: the cache/DRAM state is per-config (line sizes
  // and capacities differ), only the trace is shared.
  std::deque<mem::MemoryHierarchy> hierarchies;
  std::vector<mem::MemoryHierarchy*> hierarchy_ptrs;
  hierarchy_ptrs.reserve(configs.size());
  for (const config::CpuConfig& config : configs) {
    hierarchies.emplace_back(config.mem, config::kCoreClockGhz, fidelity.mem);
    hierarchy_ptrs.push_back(&hierarchies.back());
  }

  core::BatchedCore engine(configs, hierarchy_ptrs, fidelity.core);
  const std::vector<core::CoreStats> stats = engine.run(decoded);
  if (info != nullptr) *info = engine.info();

  std::vector<RunResult> out(configs.size());
  std::uint64_t total_cycles = 0;
  std::uint64_t rf_reads = 0, rf_writes = 0, lane_ops = 0;
  std::uint64_t l1r = 0, l1w = 0, l2r = 0, l2w = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    RunResult& result = out[i];
    result.app = decoded.name();
    result.config_name = configs[i].name;
    result.core = stats[i];
    result.mem = hierarchies[i].stats();
    result.power = power::analyze(configs[i], result.core, result.mem);
    validate_result(result, decoded.size());
    if (CheckContext::enabled()) {
      // Cross-component conservation the per-cycle core checks cannot see:
      // every traced memory op either reached the hierarchy or was
      // forwarded, and the hierarchy agrees with the LSQ on what it served.
      // The oracle cycle bounds live one layer up (check::verify_run) to
      // keep adse_sim free of a dependency on the check library.
      ADSE_REQUIRE_MSG(result.mem.loads == result.core.loads_sent,
                       "lane " << i << ": hierarchy saw " << result.mem.loads
                               << " loads, LSQ sent "
                               << result.core.loads_sent);
      ADSE_REQUIRE_MSG(result.mem.stores == result.core.stores_sent,
                       "lane " << i << ": hierarchy saw " << result.mem.stores
                               << " stores, LSQ sent "
                               << result.core.stores_sent);
      ADSE_REQUIRE_MSG(result.mem.l1_hits + result.mem.l1_misses ==
                           result.mem.line_requests,
                       "lane " << i << ": cache accounting unbalanced");
    }
    total_cycles += result.core.cycles;
    for (int c = 0; c < isa::kNumRegClasses; ++c) {
      rf_reads += result.core.regfile_reads[c];
      rf_writes += result.core.regfile_writes[c];
    }
    lane_ops += result.core.sve_lane_ops;
    l1r += result.mem.l1_reads;
    l1w += result.mem.l1_writes;
    l2r += result.mem.l2_reads;
    l2w += result.mem.l2_writes;
  }

  // Coarse, per-pass observability only: a few counter adds per pass, so
  // the per-cycle hot loop stays uninstrumented and metrics cannot regress
  // perfbench campaign_cold throughput. The energy-model event counts ride
  // along, so the JSON snapshot carries everything adse::power prices.
  static obs::Counter& simulations =
      obs::Registry::global().counter("sim.simulations");
  static obs::Counter& simulated_cycles =
      obs::Registry::global().counter("sim.simulated_cycles");
  static obs::Counter& regfile_reads =
      obs::Registry::global().counter("sim.regfile_reads");
  static obs::Counter& regfile_writes =
      obs::Registry::global().counter("sim.regfile_writes");
  static obs::Counter& sve_lane_ops =
      obs::Registry::global().counter("sim.sve_lane_ops");
  static obs::Counter& l1_reads =
      obs::Registry::global().counter("sim.l1_reads");
  static obs::Counter& l1_writes =
      obs::Registry::global().counter("sim.l1_writes");
  static obs::Counter& l2_reads =
      obs::Registry::global().counter("sim.l2_reads");
  static obs::Counter& l2_writes =
      obs::Registry::global().counter("sim.l2_writes");
  simulations.add(configs.size());
  simulated_cycles.add(total_cycles);
  regfile_reads.add(rf_reads);
  regfile_writes.add(rf_writes);
  sve_lane_ops.add(lane_ops);
  l1_reads.add(l1r);
  l1_writes.add(l1w);
  l2_reads.add(l2r);
  l2_writes.add(l2w);
  return out;
}

/// One traced batch, counted in the batch-shape counters the eval layer
/// tracks.
std::vector<RunResult> run_batch(std::span<const config::CpuConfig> configs,
                                 const core::DecodedTrace& decoded,
                                 const Fidelity& fidelity,
                                 core::BatchRunInfo* info) {
  obs::Span span("sim.simulate_batch", "sim");
  span.set_detail(std::to_string(configs.size()) + " lanes");
  core::BatchRunInfo run_info;
  std::vector<RunResult> out = run_lanes(configs, decoded, fidelity, &run_info);
  if (info != nullptr) *info = run_info;
  static obs::Counter& batch_runs =
      obs::Registry::global().counter("sim.batch_runs");
  static obs::Counter& batch_lanes =
      obs::Registry::global().counter("sim.batch_lanes_active");
  batch_runs.add(1);
  batch_lanes.add(run_info.lane_windows);
  return out;
}

}  // namespace

RunResult simulate(const config::CpuConfig& config, const Trace& trace,
                   const Fidelity& fidelity) {
  obs::Span span("sim.simulate", "sim");
  return std::move(
      run_lanes({&config, 1}, trace.decoded(), fidelity, nullptr)[0]);
}

RunResult simulate_app(const config::CpuConfig& config, kernels::App app,
                       const Fidelity& fidelity) {
  return simulate(config, trace(app, config.core.vector_length_bits),
                  fidelity);
}

std::vector<RunResult> simulate_batch(
    std::span<const config::CpuConfig> configs, const Trace& trace,
    const Fidelity& fidelity, core::BatchRunInfo* info) {
  return run_batch(configs, trace.decoded(), fidelity, info);
}

std::vector<RunResult> simulate_batch(
    std::span<const config::CpuConfig> configs, const isa::Program& program,
    const core::DecodedTrace& decoded, core::BatchRunInfo* info) {
  ADSE_REQUIRE_MSG(decoded.size() == program.ops.size(),
                   "decoded trace does not match program: "
                       << decoded.size() << " vs " << program.ops.size()
                       << " ops");
  return run_batch(configs, decoded, {}, info);
}

void validate_result(const RunResult& result, std::uint64_t trace_ops) {
  ADSE_REQUIRE_MSG(result.core.retired == trace_ops,
                   "retired " << result.core.retired << " of " << trace_ops
                              << " µops in '" << result.app << "'");
  ADSE_REQUIRE_MSG(result.core.cycles > 0, "zero-cycle run");
  // A µop can retire at best 1 per dispatch slot per cycle; the widest
  // configurable backend dispatches 64/cycle.
  ADSE_REQUIRE_MSG(result.core.ipc() <= 64.0 + 1e-9,
                   "impossible IPC " << result.core.ipc());
}

}  // namespace adse::sim
