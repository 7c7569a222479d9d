#include "analysis/calibrate.hpp"

#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "config/baselines.hpp"
#include "config/param_space.hpp"
#include "sim/hardware_proxy.hpp"
#include "sim/trace.hpp"

namespace adse::analysis {

namespace {

/// The candidate constants dropped into a proxy configuration whose other
/// knobs (banking, MSHRs, TLB) stay at the Table-I reproduction settings:
/// the fit searches only the five constants the paper's §IV-B attribution
/// names, everything else is held to the reference micro-architecture.
sim::ProxyOptions to_proxy(const CalibrationConstants& c) {
  sim::ProxyOptions options;
  options.forward_latency = c.forward_latency;
  options.dram_latency_scale = c.dram_latency_scale;
  options.dram_interval_scale = c.dram_interval_scale;
  options.prefetch_boost_l2 = c.prefetch_boost_l2;
  options.mispredict_penalty = c.mispredict_penalty;
  return options;
}

/// Memoisation key: the scales only ever take grid values, so two decimal
/// places are exact.
using ConstantsKey = std::tuple<int, int, int, int, int>;

ConstantsKey key_of(const CalibrationConstants& c) {
  return {c.forward_latency,
          static_cast<int>(std::lround(c.dram_latency_scale * 100.0)),
          static_cast<int>(std::lround(c.dram_interval_scale * 100.0)),
          c.prefetch_boost_l2, c.mispredict_penalty};
}

}  // namespace

CalibrationReport calibrate(const CalibrationOptions& options) {
  ADSE_REQUIRE_MSG(options.num_configs >= 1,
                   "calibration needs at least one design point, got "
                       << options.num_configs);
  ADSE_REQUIRE_MSG(options.sweeps >= 1, "calibration needs at least one sweep");

  std::vector<kernels::App> apps = options.apps;
  if (apps.empty()) {
    for (kernels::App app : kernels::all_apps()) apps.push_back(app);
  }

  // Pinned design points: the validation baseline plus the head of the
  // campaign's deterministic sample stream, so the fit observes both the
  // config the paper validated on and the space the campaign explores.
  const config::ParameterSpace space;
  std::vector<config::CpuConfig> configs;
  configs.reserve(static_cast<std::size_t>(options.num_configs));
  configs.push_back(config::thunderx2_baseline());
  for (int i = 1; i < options.num_configs; ++i) {
    Rng rng(options.seed * 0x9e3779b97f4a7c15ULL +
            static_cast<std::uint64_t>(i) * 2 + 1);
    configs.push_back(space.sample(rng));
  }

  // Black-box observations: end-to-end cycle counts from the reference
  // proxy ("silicon"). The fit never sees the proxy's internals, only these.
  struct Observation {
    const config::CpuConfig* config;
    const sim::Trace* trace;
    double target_cycles;
  };
  std::uint64_t simulations = 0;
  std::vector<Observation> observations;
  observations.reserve(configs.size() * apps.size());
  for (const config::CpuConfig& config : configs) {
    for (kernels::App app : apps) {
      const sim::Trace& trace =
          sim::trace(app, config.core.vector_length_bits);
      const sim::RunResult target =
          sim::simulate(config, trace, sim::proxy_fidelity());
      ++simulations;
      observations.push_back(
          {&config, &trace, static_cast<double>(target.core.cycles)});
    }
  }

  std::map<ConstantsKey, double> memo;
  std::uint64_t objective_evals = 0;
  auto objective = [&](const CalibrationConstants& candidate) {
    const ConstantsKey key = key_of(candidate);
    if (auto it = memo.find(key); it != memo.end()) return it->second;
    const sim::Fidelity proxy = sim::proxy_fidelity(to_proxy(candidate));
    double sum = 0.0;
    for (const Observation& obs : observations) {
      const sim::RunResult r = sim::simulate(*obs.config, *obs.trace, proxy);
      ++simulations;
      sum += std::abs(static_cast<double>(r.core.cycles) - obs.target_cycles) /
             obs.target_cycles;
    }
    ++objective_evals;
    const double mean = sum / static_cast<double>(observations.size());
    memo.emplace(key, mean);
    return mean;
  };

  // Discrete grids bracketing each constant's plausible hardware range; every
  // grid contains both the idealised start and the Table-I reference, so the
  // fit *can* recover the reference exactly — whether it does is the
  // identifiability result the report states.
  const std::vector<int> kForwardGrid = {1, 2, 4, 8, 12, 16};
  const std::vector<double> kDramLatencyGrid = {0.9, 1.0, 1.05, 1.1, 1.25, 1.5};
  const std::vector<double> kDramIntervalGrid = {1.0, 1.5, 2.0, 2.6, 3.2};
  const std::vector<int> kPrefetchGrid = {0, 4, 8, 12, 16};
  const std::vector<int> kMispredictGrid = {0, 8, 14, 20};

  const CalibrationConstants start;
  CalibrationConstants current = start;
  const double initial_divergence = objective(current);
  double best = initial_divergence;

  auto descend_int = [&](const std::vector<int>& grid,
                         int CalibrationConstants::* field) {
    for (int value : grid) {
      CalibrationConstants candidate = current;
      candidate.*field = value;
      const double divergence = objective(candidate);
      if (divergence < best) {
        best = divergence;
        current = candidate;
      }
    }
  };
  auto descend_double = [&](const std::vector<double>& grid,
                            double CalibrationConstants::* field) {
    for (double value : grid) {
      CalibrationConstants candidate = current;
      candidate.*field = value;
      const double divergence = objective(candidate);
      if (divergence < best) {
        best = divergence;
        current = candidate;
      }
    }
  };

  // Coordinate descent: sweep the constants in a fixed order, each holding
  // the others at their current best. DRAM scales first — they move the
  // objective most on the streaming apps — then the per-op latencies.
  for (int sweep = 0; sweep < options.sweeps; ++sweep) {
    descend_double(kDramIntervalGrid,
                   &CalibrationConstants::dram_interval_scale);
    descend_double(kDramLatencyGrid, &CalibrationConstants::dram_latency_scale);
    descend_int(kPrefetchGrid, &CalibrationConstants::prefetch_boost_l2);
    descend_int(kForwardGrid, &CalibrationConstants::forward_latency);
    descend_int(kMispredictGrid, &CalibrationConstants::mispredict_penalty);
  }

  const sim::ProxyOptions reference;
  CalibrationReport report;
  report.fitted = current;
  report.initial_divergence = initial_divergence;
  report.fitted_divergence = best;
  report.objective_evals = objective_evals;
  report.simulations = simulations;
  report.pairs = static_cast<int>(observations.size());
  report.constants = {
      {"forward_latency", static_cast<double>(start.forward_latency),
       static_cast<double>(current.forward_latency),
       static_cast<double>(reference.forward_latency)},
      {"dram_latency_scale", start.dram_latency_scale,
       current.dram_latency_scale, reference.dram_latency_scale},
      {"dram_interval_scale", start.dram_interval_scale,
       current.dram_interval_scale, reference.dram_interval_scale},
      {"prefetch_boost_l2", static_cast<double>(start.prefetch_boost_l2),
       static_cast<double>(current.prefetch_boost_l2),
       static_cast<double>(reference.prefetch_boost_l2)},
      {"mispredict_penalty", static_cast<double>(start.mispredict_penalty),
       static_cast<double>(current.mispredict_penalty),
       static_cast<double>(reference.mispredict_penalty)},
  };
  return report;
}

std::string CalibrationReport::render() const {
  TextTable table({"constant", "initial", "fitted", "reference"});
  for (const FittedConstant& c : constants) {
    table.add_row({c.name, format_fixed(c.initial, 2), format_fixed(c.fitted, 2),
                   format_fixed(c.reference, 2)});
  }
  std::ostringstream out;
  out << table.render() << "\n";
  out << "observed pairs: " << pairs
      << "   objective evals: " << objective_evals
      << "   proxy simulations: " << simulations << "\n";
  out << "mean |model - proxy| / proxy divergence: "
      << format_fixed(initial_divergence * 100.0, 2) << "% at idealised start -> "
      << format_fixed(fitted_divergence * 100.0, 2) << "% after fit\n";
  return out.str();
}

}  // namespace adse::analysis
