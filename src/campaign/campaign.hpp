#pragma once
/// \file campaign.hpp
/// The data-collection workflow of the paper's artifact (T1→T3): generate a
/// uniformly random CPU configuration, simulate every benchmark on it,
/// collect one dataset row per (configuration, application). Sampling and
/// row assembly live here; all simulation dispatch — thread pool, trace
/// cache, result memo/store — is delegated to `eval::EvalService`, so a
/// campaign is just a deterministic batch of `EvalRequest`s. Nothing is
/// cached here: re-running a campaign replays the same requests, and a
/// service whose result store already holds them answers without a fresh
/// simulator invocation.

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "config/cpu_config.hpp"
#include "kernels/workloads.hpp"
#include "ml/dataset.hpp"

namespace adse::eval {
class EvalService;
class FusedModel;
}  // namespace adse::eval

namespace adse::campaign {

struct CampaignSpec {
  std::string label = "main";       ///< tag of its log lines and trace spans
  int num_configs = 1500;            ///< configurations to sample
  std::uint64_t seed = 42;          ///< sampling seed
  std::optional<int> fixed_vector_length;  ///< Fig. 4/5 pinned-VL campaigns
  /// Worker threads; 0 (the default) inherits the shared eval service and
  /// therefore the one process-wide ADSE_THREADS read. A positive value
  /// runs on a private, store-less service with exactly that many workers
  /// (what hermetic tests want).
  int threads = 0;
  bool verbose = true;              ///< progress lines on stderr
  /// Fused-surrogate routing (DESIGN.md §14): when set, evaluations go
  /// through `EvalService::evaluate` with `EvalPolicy::fused` — the model
  /// trains online on the campaign's own real-sim results and answers the
  /// low-uncertainty remainder analytically. The model outlives the spec
  /// (not owned); with its threshold at 0 the campaign is bit-identical to
  /// the plain all-sim path. Only real simulations reach the result store,
  /// so surrogate-predicted cycles are never served to an all-sim caller.
  eval::FusedModel* fused = nullptr;
};

/// The assembled campaign data: one surrogate dataset per application (the
/// paper trains one model per code, §V-C), plus the combined CSV table.
struct CampaignResult {
  std::array<ml::Dataset, kernels::kNumApps> per_app;
  CsvTable table;

  const ml::Dataset& dataset(kernels::App app) const {
    return per_app[static_cast<std::size_t>(app)];
  }
};

/// The 30 feature-column names, in ParamId order (shared CSV/ML schema).
std::vector<std::string> feature_names();

/// CSV column carrying an app's simulated cycles ("stream_cycles", ...).
std::string cycles_column(kernels::App app);

/// CSV column carrying an app's total energy ("stream_energy_j", ...).
std::string energy_column(kernels::App app);

/// CSV column carrying the configuration's static area ("area_mm2").
std::string area_column();

/// Runs the campaign through `service`.
CampaignResult run_campaign(const CampaignSpec& spec,
                            eval::EvalService& service);

/// Convenience: picks the service per the spec's thread policy (see
/// CampaignSpec::threads).
CampaignResult run_campaign(const CampaignSpec& spec);

/// Specs used by the benchmark suite, honouring the ADSE_* env knobs.
CampaignSpec main_campaign_spec();
CampaignSpec constrained_campaign_spec(int vector_length_bits);

}  // namespace adse::campaign
