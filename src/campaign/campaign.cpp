#include "campaign/campaign.hpp"

#include <mutex>

#include "common/env.hpp"
#include "common/require.hpp"
#include "common/stopwatch.hpp"
#include "config/param_space.hpp"
#include "eval/service.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace adse::campaign {

std::vector<std::string> feature_names() {
  std::vector<std::string> names;
  names.reserve(config::kNumParams);
  for (std::size_t i = 0; i < config::kNumParams; ++i) {
    names.push_back(config::param_name(static_cast<config::ParamId>(i)));
  }
  return names;
}

std::string cycles_column(kernels::App app) {
  return kernels::app_slug(app) + "_cycles";
}

std::string energy_column(kernels::App app) {
  return kernels::app_slug(app) + "_energy_j";
}

std::string area_column() { return "area_mm2"; }

namespace {

/// Splits the assembled table into one dataset per application.
CampaignResult result_from_table(CsvTable table) {
  CampaignResult result;
  const auto names = feature_names();
  for (kernels::App app : kernels::all_apps()) {
    const std::size_t col = table.column_index(cycles_column(app));
    ml::Dataset& ds = result.per_app[static_cast<std::size_t>(app)];
    ds.feature_names = names;
    for (const auto& row : table.rows) {
      std::vector<double> features(row.begin(),
                                   row.begin() + static_cast<std::ptrdiff_t>(
                                                     names.size()));
      ds.add_row(std::move(features), row[col]);
    }
    ds.check();
  }
  result.table = std::move(table);
  return result;
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec,
                            eval::EvalService& service) {
  ADSE_REQUIRE(spec.num_configs >= 1);
  const config::ParameterSpace space;
  config::SampleConstraints constraints;
  constraints.fixed_vector_length = spec.fixed_vector_length;

  const auto names = feature_names();
  CsvTable table;
  table.columns = names;
  for (kernels::App app : kernels::all_apps()) {
    table.columns.push_back(cycles_column(app));
  }
  for (kernels::App app : kernels::all_apps()) {
    table.columns.push_back(energy_column(app));
  }
  table.columns.push_back(area_column());

  // Independent deterministic stream per configuration index: the campaign
  // is reproducible regardless of how the service schedules the batch.
  const auto n = static_cast<std::size_t>(spec.num_configs);
  std::vector<eval::EvalRequest> requests;
  requests.reserve(n * static_cast<std::size_t>(kernels::kNumApps));
  table.rows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + i * 2 + 1);
    const config::CpuConfig cpu = space.sample(rng, constraints);
    const auto features = config::feature_vector(cpu);
    auto& row = table.rows[i];
    row.assign(features.begin(), features.end());
    row.reserve(features.size() + kernels::kNumApps);
    for (kernels::App app : kernels::all_apps()) {
      requests.push_back({cpu, app});
    }
  }

  Stopwatch watch;
  std::mutex progress_mutex;
  eval::EvalService::Progress progress;
  if (spec.verbose) {
    progress = [&](std::size_t done, std::size_t total) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      if (done % 400 == 0 || done == total) {
        obs::logf(obs::LogLevel::kInfo,
                  "[campaign %s] %zu/%zu runs (%.1fs elapsed)\n",
                  spec.label.c_str(), done, total, watch.seconds());
      }
    };
  }
  std::vector<eval::EvalResponse> results;
  {
    obs::Span span("campaign.evaluate", "campaign");
    span.set_detail([&] {
      return spec.label + ": " + std::to_string(requests.size()) + " runs";
    });
    eval::EvalPolicy policy;
    policy.fused = spec.fused;
    policy.progress = progress;
    results = service.evaluate(requests, policy);
  }
  eval::require_ok(results);
  {
    auto& registry = obs::Registry::global();
    registry.counter("campaign.batches").add(1);
    registry.counter("campaign.configs").add(n);
    registry.counter("campaign.evaluations").add(requests.size());
    registry.histogram("campaign.batch_seconds").observe(watch.seconds());
  }

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t base = i * static_cast<std::size_t>(kernels::kNumApps);
    for (int a = 0; a < kernels::kNumApps; ++a) {
      table.rows[i].push_back(static_cast<double>(
          results[base + static_cast<std::size_t>(a)].cycles()));
    }
    for (int a = 0; a < kernels::kNumApps; ++a) {
      table.rows[i].push_back(
          results[base + static_cast<std::size_t>(a)].run.power.energy_j());
    }
    // Area is app-independent; any of the row's runs carries it.
    table.rows[i].push_back(results[base].run.power.area_mm2);
  }
  return result_from_table(std::move(table));
}

CampaignResult run_campaign(const CampaignSpec& spec) {
  // 0 threads = the shared env-default service (memo + store reuse across
  // runs); a positive count = a private hermetic service.
  if (spec.threads > 0) {
    eval::ServiceConfig options;
    options.threads = spec.threads;
    eval::EvalService service(options);
    return run_campaign(spec, service);
  }
  return run_campaign(spec, eval::EvalService::shared());
}

CampaignSpec main_campaign_spec() {
  CampaignSpec spec;
  spec.label = "main";
  spec.num_configs = static_cast<int>(main_campaign_configs());
  spec.seed = campaign_seed();
  return spec;
}

CampaignSpec constrained_campaign_spec(int vector_length_bits) {
  CampaignSpec spec;
  spec.label = "vlpin";
  spec.num_configs = static_cast<int>(constrained_campaign_configs());
  spec.seed = campaign_seed() + 1;
  spec.fixed_vector_length = vector_length_bits;
  return spec;
}

}  // namespace adse::campaign
