/// \file design_sweep.cpp
/// Sweeps one microarchitectural parameter at a time on top of the
/// ThunderX2 baseline and reports the resulting cycle counts — the manual
/// version of what the paper's ML model does over the whole space at once.
///
///   ./examples/design_sweep                 # sweep VL, ROB and FP registers
///   ./examples/design_sweep rob_size        # sweep one named parameter

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "config/baselines.hpp"
#include "config/param_space.hpp"
#include "eval/service.hpp"
#include "kernels/workloads.hpp"

namespace {

using namespace adse;

/// Applies `value` for `id` on top of the baseline, fixing up dependent
/// parameters so the result stays a valid design.
config::CpuConfig with_param(config::ParamId id, double value) {
  config::CpuConfig cpu = config::thunderx2_baseline();
  auto features = config::feature_vector(cpu);
  features[static_cast<std::size_t>(id)] = value;
  // Dependent constraint: bandwidth must hold one full vector.
  const double vl_bytes =
      features[static_cast<std::size_t>(config::ParamId::kVectorLength)] / 8.0;
  auto& load_bw = features[static_cast<std::size_t>(config::ParamId::kLoadBandwidth)];
  auto& store_bw = features[static_cast<std::size_t>(config::ParamId::kStoreBandwidth)];
  while (load_bw < vl_bytes) load_bw *= 2;
  while (store_bw < vl_bytes) store_bw *= 2;
  config::CpuConfig out = config::config_from_features(features);
  out.name = config::param_name(id) + "=" + format_fixed(value, 0);
  return out;
}

void sweep(config::ParamId id, const std::vector<double>& values) {
  std::printf("Sweep of %s (all other parameters: ThunderX2 baseline)\n",
              config::param_name(id).c_str());
  TextTable table({config::param_name(id), "STREAM", "MiniBude", "TeaLeaf",
                   "MiniSweep"});

  // One batch per sweep: every (value, app) point goes through the shared
  // evaluation service, which parallelises the runs and memoises repeats.
  const auto apps = kernels::all_apps();
  std::vector<eval::EvalRequest> requests;
  for (double v : values) {
    const config::CpuConfig cpu = with_param(id, v);
    for (kernels::App app : apps) requests.push_back({cpu, app});
  }
  const auto results = eval::EvalService::shared().evaluate(requests);
  eval::require_ok(results);

  for (std::size_t i = 0; i < values.size(); ++i) {
    std::vector<std::string> row{format_fixed(values[i], 0)};
    for (std::size_t a = 0; a < apps.size(); ++a) {
      row.push_back(format_grouped(static_cast<long long>(
          results[i * apps.size() + a].cycles())));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const config::ParameterSpace space;

  if (argc > 1) {
    const config::ParamId id = config::param_from_name(argv[1]);
    const auto& spec = space.spec(id);
    std::vector<double> values;
    if (spec.kind == config::StepKind::kReal) {
      for (int i = 0; i <= 6; ++i) {
        values.push_back(spec.min + (spec.max - spec.min) * i / 6.0);
      }
    } else {
      const auto all = spec.values();
      // At most ~10 evenly spaced points of the range.
      const std::size_t stride = std::max<std::size_t>(1, all.size() / 10);
      for (std::size_t i = 0; i < all.size(); i += stride) values.push_back(all[i]);
      if (values.back() != all.back()) values.push_back(all.back());
    }
    sweep(id, values);
    return 0;
  }

  sweep(config::ParamId::kVectorLength, {128, 256, 512, 1024, 2048});
  sweep(config::ParamId::kRobSize, {8, 32, 64, 128, 152, 256, 512});
  sweep(config::ParamId::kFpRegisters, {38, 64, 96, 144, 256, 512});
  sweep(config::ParamId::kL2Size, {64, 128, 256, 512, 1024, 4096});
  return 0;
}
