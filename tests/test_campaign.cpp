#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "analysis/surrogate_eval.hpp"
#include "common/require.hpp"
#include "eval/fused.hpp"
#include "eval/service.hpp"

namespace adse::campaign {
namespace {

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.label = "test";
  spec.num_configs = 12;
  spec.seed = 7;
  spec.threads = 2;
  spec.verbose = false;
  return spec;
}

TEST(Campaign, FeatureNamesMatchParamOrder) {
  const auto names = feature_names();
  ASSERT_EQ(names.size(), config::kNumParams);
  EXPECT_EQ(names.front(), "vector_length_bits");
  EXPECT_EQ(names.back(), "prefetch_distance");
}

TEST(Campaign, CyclesColumnNames) {
  EXPECT_EQ(cycles_column(kernels::App::kStream), "stream_cycles");
  EXPECT_EQ(cycles_column(kernels::App::kMiniSweep), "minisweep_cycles");
}

TEST(Campaign, PowerColumnNames) {
  EXPECT_EQ(energy_column(kernels::App::kStream), "stream_energy_j");
  EXPECT_EQ(energy_column(kernels::App::kMiniBude), "minibude_energy_j");
  EXPECT_EQ(area_column(), "area_mm2");
}

TEST(Campaign, RunProducesConsistentDatasets) {
  const CampaignResult result = run_campaign(tiny_spec());
  EXPECT_EQ(result.table.num_rows(), 12u);
  // 30 features + per-app cycles + per-app energy + area.
  EXPECT_EQ(result.table.num_cols(),
            config::kNumParams +
                2 * static_cast<std::size_t>(kernels::kNumApps) + 1);
  for (double j : result.table.column(energy_column(kernels::App::kStream))) {
    EXPECT_GT(j, 0.0);
  }
  for (double a : result.table.column(area_column())) EXPECT_GT(a, 0.0);
  for (kernels::App app : kernels::all_apps()) {
    const auto& ds = result.dataset(app);
    EXPECT_EQ(ds.num_rows(), 12u);
    EXPECT_EQ(ds.num_features(), config::kNumParams);
    for (double y : ds.y) EXPECT_GT(y, 0.0);
    ds.check();
  }
}

TEST(Campaign, RowsAreValidConfigurations) {
  const CampaignResult result = run_campaign(tiny_spec());
  for (const auto& row : result.table.rows) {
    std::array<double, config::kNumParams> features{};
    std::copy_n(row.begin(), config::kNumParams, features.begin());
    EXPECT_NO_THROW(config::validate(config::config_from_features(features)));
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  CampaignSpec one = tiny_spec();
  one.threads = 1;
  CampaignSpec four = tiny_spec();
  four.threads = 4;
  const CampaignResult a = run_campaign(one);
  const CampaignResult b = run_campaign(four);
  EXPECT_EQ(a.table.rows, b.table.rows);
}

TEST(Campaign, SeedChangesData) {
  CampaignSpec other = tiny_spec();
  other.seed = 8;
  EXPECT_NE(run_campaign(tiny_spec()).table.rows,
            run_campaign(other).table.rows);
}

TEST(Campaign, VlPinIsRespected) {
  CampaignSpec spec = tiny_spec();
  spec.fixed_vector_length = 512;
  const CampaignResult result = run_campaign(spec);
  const auto vl = result.table.column("vector_length_bits");
  for (double v : vl) EXPECT_DOUBLE_EQ(v, 512.0);
}

TEST(Campaign, FusedThresholdZeroIsBitIdenticalToAllSim) {
  // The acceptance gate for the routed path: with the routing threshold at 0
  // the fused campaign takes the pure pass-through (no model reads, no
  // observations) and its table is bit-identical to the all-sim run.
  eval::FusedOptions options;
  options.threshold = 0.0;
  eval::FusedModel model(options);
  CampaignSpec fused_spec = tiny_spec();
  fused_spec.fused = &model;
  const CampaignResult plain = run_campaign(tiny_spec());
  const CampaignResult routed = run_campaign(fused_spec);
  EXPECT_EQ(plain.table.rows, routed.table.rows);
  EXPECT_EQ(model.refits(), 0u);
  for (kernels::App app : kernels::all_apps()) {
    EXPECT_EQ(model.observations(app), 0u);
  }
  // Routed tables still live in their own cache namespace, even at
  // threshold 0 — an all-sim caller must never load one by key collision.
  EXPECT_NE(cache_path(fused_spec).find("_fused"), std::string::npos);
  EXPECT_EQ(cache_path(tiny_spec()).find("_fused"), std::string::npos);
}

TEST(Campaign, FusedCampaignReDerivesThePaperHeadline) {
  // The fused-surrogate campaign (DESIGN.md §14) at 2,500 configs x 4 apps.
  // The uncertainty-gated router must answer >= 10x more evaluations from
  // the analytical x residual model than from the simulator, its probes
  // must price that model, and the surrogate-heavy table must still
  // re-derive the paper's headline (abstract, Fig. 3): vector length
  // outweighs memory speed and ROB/FP sizing for the vectorised codes, and
  // barely matters for the poorly vectorised ones.
  constexpr int kConfigs = 2500;
  eval::ServiceConfig service_config;
  service_config.threads = 4;
  service_config.batch_k = 8;
  service_config.fused_threshold = 1.0;
  service_config.probe_every = 64;
  eval::EvalService service(service_config);
  eval::FusedModel model(service_config.fused_options());
  CampaignSpec spec;
  spec.label = "fused_headline";
  spec.num_configs = kConfigs;
  spec.seed = 42;
  spec.verbose = false;
  spec.fused = &model;
  const CampaignResult result = run_campaign(spec, service);

  obs::Registry& metrics = service.metrics();
  const auto count = [&metrics](const char* name) {
    return metrics.counter(name).value();
  };
  const std::uint64_t evaluations =
      static_cast<std::uint64_t>(kConfigs) * kernels::kNumApps;
  const std::uint64_t real_sims = count("eval.routed_sim");
  ASSERT_EQ(count("eval.requests"), evaluations);
  EXPECT_GE(evaluations, 10 * real_sims);
  EXPECT_GT(count("eval.fused_probes"), 0u);
  EXPECT_LT(metrics.histogram("eval.routing_error_pct").quantile(0.5), 50.0);
  // Distinct configs: nothing is a memo hit or a join, so the simulator ran
  // exactly the routed sims, and the summary line reports those alone.
  EXPECT_EQ(count("eval.memo_hits") + count("eval.inflight_joins"), 0u);
  EXPECT_EQ(count("eval.sim_runs"), real_sims);
  EXPECT_EQ(count("eval.backend_runs"), evaluations);
  const std::string line = service.summary_line();
  EXPECT_NE(line.find("[eval] fresh simulator runs: " +
                      std::to_string(real_sims) + " "),
            std::string::npos)
      << line;

  // The paper's importance pipeline (§V-C CART + permutation importance)
  // over the fused table.
  std::array<std::vector<double>, kernels::kNumApps> percent;
  for (kernels::App app : kernels::all_apps()) {
    percent[static_cast<std::size_t>(app)] =
        analysis::evaluate_surrogate(app, result.dataset(app), spec.seed)
            .importance.percent;
  }
  const auto pct = [&percent](kernels::App app, config::ParamId id) {
    return percent[static_cast<std::size_t>(app)]
                  [static_cast<std::size_t>(id)];
  };
  for (const kernels::App app :
       {kernels::App::kStream, kernels::App::kMiniBude}) {
    const double vl = pct(app, config::ParamId::kVectorLength);
    for (const config::ParamId id :
         {config::ParamId::kL1Latency, config::ParamId::kL1Clock,
          config::ParamId::kL2Latency, config::ParamId::kL2Clock,
          config::ParamId::kRamLatency, config::ParamId::kRamClock,
          config::ParamId::kRobSize, config::ParamId::kFpRegisters}) {
      EXPECT_GT(vl, pct(app, id))
          << kernels::app_slug(app) << " vs " << config::param_name(id);
    }
  }
  for (const kernels::App app :
       {kernels::App::kTeaLeaf, kernels::App::kMiniSweep}) {
    EXPECT_LT(pct(app, config::ParamId::kVectorLength), 5.0)
        << kernels::app_slug(app);
  }
}

TEST(Campaign, ResultFromTableRoundTrips) {
  const CampaignResult original = run_campaign(tiny_spec());
  CsvTable copy = original.table;
  const CampaignResult back = result_from_table(std::move(copy));
  for (kernels::App app : kernels::all_apps()) {
    EXPECT_EQ(back.dataset(app).y, original.dataset(app).y);
    EXPECT_EQ(back.dataset(app).x, original.dataset(app).x);
  }
}

TEST(Campaign, ResultFromTableRejectsBadSchema) {
  CsvTable bad;
  bad.columns = {"wrong"};
  EXPECT_THROW(result_from_table(std::move(bad)), InvariantError);
}

TEST(Campaign, CachePathEncodesSpec) {
  CampaignSpec spec = tiny_spec();
  spec.fixed_vector_length = 128;
  const std::string path = cache_path(spec);
  EXPECT_NE(path.find("test"), std::string::npos);
  EXPECT_NE(path.find("n12"), std::string::npos);
  EXPECT_NE(path.find("s7"), std::string::npos);
  EXPECT_NE(path.find("vl128"), std::string::npos);
}

TEST(Campaign, LoadOrRunUsesCache) {
  const auto dir = std::filesystem::temp_directory_path() / "adse_campaign_test";
  std::filesystem::remove_all(dir);
  setenv("ADSE_CACHE_DIR", dir.string().c_str(), 1);

  CampaignSpec spec = tiny_spec();
  spec.num_configs = 10;
  const CampaignResult first = load_or_run(spec);
  EXPECT_TRUE(file_exists(cache_path(spec)));
  const CampaignResult second = load_or_run(spec);  // served from cache
  EXPECT_EQ(first.table.rows, second.table.rows);

  unsetenv("ADSE_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST(Campaign, StaleCacheIsDroppedAndRebuilt) {
  const auto dir = std::filesystem::temp_directory_path() / "adse_stale_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  setenv("ADSE_CACHE_DIR", dir.string().c_str(), 1);

  CampaignSpec spec = tiny_spec();
  spec.num_configs = 8;
  // A cache written by "an older build": wrong schema entirely.
  write_csv(cache_path(spec), CsvTable{{"old_col_a", "old_col_b"},
                                       {{1.0, 2.0}, {3.0, 4.0}}});
  const CampaignResult result = load_or_run(spec);  // must not throw
  EXPECT_EQ(result.table.num_rows(), 8u);
  // The bad file was replaced by a loadable one.
  const CampaignResult again = load_or_run(spec);
  EXPECT_EQ(again.table.rows, result.table.rows);

  unsetenv("ADSE_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST(Campaign, TruncatedCacheIsDroppedAndRebuilt) {
  const auto dir = std::filesystem::temp_directory_path() / "adse_trunc_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  setenv("ADSE_CACHE_DIR", dir.string().c_str(), 1);

  CampaignSpec spec = tiny_spec();
  spec.num_configs = 8;
  const CampaignResult full = load_or_run(spec);
  // Simulate a killed writer from before atomic publication: valid header,
  // fewer rows than the spec demands.
  CsvTable truncated = full.table;
  truncated.rows.resize(3);
  write_csv(cache_path(spec), truncated);
  const CampaignResult recovered = load_or_run(spec);
  EXPECT_EQ(recovered.table.rows, full.table.rows);

  unsetenv("ADSE_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST(Campaign, CachePublicationLeavesNoTempFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "adse_tmp_test";
  std::filesystem::remove_all(dir);
  setenv("ADSE_CACHE_DIR", dir.string().c_str(), 1);

  CampaignSpec spec = tiny_spec();
  spec.num_configs = 6;
  load_or_run(spec);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".csv") << entry.path();
  }
  EXPECT_EQ(files, 1u);

  unsetenv("ADSE_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST(Campaign, DefaultSpecsHonourEnv) {
  setenv("ADSE_CONFIGS", "123", 1);
  setenv("ADSE_SEED", "9", 1);
  const CampaignSpec spec = main_campaign_spec();
  EXPECT_EQ(spec.num_configs, 123);
  EXPECT_EQ(spec.seed, 9u);
  unsetenv("ADSE_CONFIGS");
  unsetenv("ADSE_SEED");

  const CampaignSpec pinned = constrained_campaign_spec(2048);
  EXPECT_EQ(pinned.fixed_vector_length, 2048);
  EXPECT_NE(pinned.seed, main_campaign_spec().seed);
}

}  // namespace
}  // namespace adse::campaign
