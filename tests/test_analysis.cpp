#include <gtest/gtest.h>

#include <cmath>

#include "analysis/calibrate.hpp"
#include "analysis/speedup.hpp"
#include "analysis/surrogate_eval.hpp"
#include "analysis/validation.hpp"
#include "analysis/vectorisation.hpp"
#include "campaign/campaign.hpp"
#include "config/param_space.hpp"
#include "sim/hardware_proxy.hpp"
#include "common/require.hpp"

namespace adse::analysis {
namespace {

/// A synthetic campaign table where stream cycles halve with each VL doubling
/// and everything else is flat.
CsvTable synthetic_table() {
  CsvTable t;
  t.columns = campaign::feature_names();
  for (kernels::App app : kernels::all_apps()) {
    t.columns.push_back(campaign::cycles_column(app));
  }
  const std::size_t vl_col =
      static_cast<std::size_t>(config::ParamId::kVectorLength);
  const std::size_t bw_col =
      static_cast<std::size_t>(config::ParamId::kLoadBandwidth);
  const std::size_t rob_col = static_cast<std::size_t>(config::ParamId::kRobSize);
  for (int vl : {128, 256, 512, 1024, 2048}) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> row(t.columns.size(), 1.0);
      row[vl_col] = vl;
      row[bw_col] = (rep % 2 == 0) ? 512 : 16;  // half pass the Fig-6 filter
      row[rob_col] = 8 + rep * 120;
      const double stream = 128000.0 / vl;
      row[campaign::feature_names().size() + 0] = stream;
      row[campaign::feature_names().size() + 1] = 500.0;
      row[campaign::feature_names().size() + 2] = 700.0;
      row[campaign::feature_names().size() + 3] = 900.0;
      t.rows.push_back(std::move(row));
    }
  }
  return t;
}

TEST(Speedup, BinnedSpeedupComputesRatios) {
  const CsvTable t = synthetic_table();
  const auto curves = binned_speedup(t, config::ParamId::kVectorLength,
                                     {128, 256, 512, 1024, 2048, 4096});
  const auto& stream = curves[0];
  ASSERT_EQ(stream.mean_speedup.size(), 5u);
  EXPECT_DOUBLE_EQ(stream.mean_speedup[0], 1.0);
  EXPECT_NEAR(stream.mean_speedup[1], 2.0, 1e-9);
  EXPECT_NEAR(stream.mean_speedup[4], 16.0, 1e-9);
  // Flat app has speedup 1 everywhere.
  for (double s : curves[1].mean_speedup) EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(Speedup, FilterDropsRows) {
  const CsvTable t = synthetic_table();
  RowFilter filter{config::ParamId::kLoadBandwidth, 256.0};
  const auto curves = binned_speedup(t, config::ParamId::kVectorLength,
                                     {128, 256, 512, 1024, 2048, 4096}, filter);
  EXPECT_EQ(curves[0].bin_rows[0], 2u);  // half the rows pass
}

TEST(Speedup, EmptyBinYieldsNaN) {
  const CsvTable t = synthetic_table();
  const auto curves = binned_speedup(t, config::ParamId::kRobSize,
                                     {8, 16, 500, 513});
  EXPECT_FALSE(std::isnan(curves[0].mean_speedup[0]));
  EXPECT_TRUE(std::isnan(curves[0].mean_speedup[2]));  // no rows >= 500
}

TEST(Speedup, GeometricMeanIsUsed) {
  // Two rows in one bin with cycles 100 and 10000: geometric mean 1000.
  CsvTable t = synthetic_table();
  t.rows.clear();
  const std::size_t vl_col =
      static_cast<std::size_t>(config::ParamId::kVectorLength);
  auto add = [&](int vl, double cycles) {
    std::vector<double> row(t.columns.size(), 1.0);
    row[vl_col] = vl;
    for (int a = 0; a < kernels::kNumApps; ++a) {
      row[campaign::feature_names().size() + static_cast<std::size_t>(a)] = cycles;
    }
    t.rows.push_back(std::move(row));
  };
  add(128, 100);
  add(128, 10000);
  add(256, 1000);
  const auto curves =
      binned_speedup(t, config::ParamId::kVectorLength, {128, 256, 512});
  EXPECT_NEAR(curves[0].mean_cycles[0], 1000.0, 1e-6);
  EXPECT_NEAR(curves[0].mean_speedup[1], 1.0, 1e-9);
}

TEST(Speedup, NeedsAtLeastTwoBins) {
  const CsvTable t = synthetic_table();
  EXPECT_THROW(binned_speedup(t, config::ParamId::kRobSize, {8, 513}),
               InvariantError);
}

TEST(Speedup, RenderContainsAppsAndBins) {
  const CsvTable t = synthetic_table();
  const auto curves = build_fig6(t);
  const std::string out = render_speedup(curves, "vector_length");
  EXPECT_NE(out.find("STREAM"), std::string::npos);
  EXPECT_NE(out.find("MiniSweep"), std::string::npos);
  EXPECT_NE(out.find("128"), std::string::npos);
}

TEST(Speedup, Fig7And8UseDocumentedBins) {
  const CsvTable t = synthetic_table();
  EXPECT_EQ(build_fig7(t)[0].bin_labels.size(), 6u);
  EXPECT_EQ(build_fig8(t)[0].bin_labels.size(), 7u);
}

TEST(SurrogateEval, TrainsAndEvaluates) {
  // Synthetic per-app dataset: cycles = f(rob, vl).
  ml::Dataset d;
  d.feature_names = campaign::feature_names();
  Rng rng(3);
  const config::ParameterSpace space;
  for (int i = 0; i < 400; ++i) {
    const auto cfg = space.sample(rng);
    const auto f = config::feature_vector(cfg);
    std::vector<double> row(f.begin(), f.end());
    const double y = 1e6 / cfg.core.vector_length_bits +
                     5e5 / cfg.core.rob_size;
    d.add_row(std::move(row), y);
  }
  const auto eval = evaluate_surrogate(kernels::App::kStream, d, 42);
  EXPECT_EQ(eval.train.num_rows(), 320u);
  EXPECT_EQ(eval.test.num_rows(), 80u);
  EXPECT_GT(eval.r2, 0.8);
  EXPECT_GT(eval.mean_accuracy_percent, 80.0);
  // VL and ROB dominate the importance ranking.
  const auto top0 = eval.ranking[0];
  const auto top1 = eval.ranking[1];
  const std::set<std::size_t> expected{
      static_cast<std::size_t>(config::ParamId::kVectorLength),
      static_cast<std::size_t>(config::ParamId::kRobSize)};
  EXPECT_TRUE(expected.count(top0));
  EXPECT_TRUE(expected.count(top1));
}

TEST(SurrogateEval, RejectsTinyDatasets) {
  ml::Dataset d;
  d.feature_names = campaign::feature_names();
  d.add_row(std::vector<double>(config::kNumParams, 1.0), 1.0);
  EXPECT_THROW(evaluate_surrogate(kernels::App::kStream, d, 1), InvariantError);
}

TEST(SurrogateEval, RenderersProduceTables) {
  ml::Dataset d;
  d.feature_names = campaign::feature_names();
  Rng rng(5);
  const config::ParameterSpace space;
  for (int i = 0; i < 100; ++i) {
    const auto cfg = space.sample(rng);
    const auto f = config::feature_vector(cfg);
    d.add_row({f.begin(), f.end()}, 1e6 / cfg.core.vector_length_bits);
  }
  std::vector<SurrogateEvaluation> evals;
  evals.push_back(evaluate_surrogate(kernels::App::kStream, d, 1));
  EXPECT_NE(render_accuracy(evals).find("STREAM"), std::string::npos);
  EXPECT_NE(render_importance(evals, 5).find("vector_length_bits"),
            std::string::npos);
}

TEST(Validation, Table1RendersFourRows) {
  const auto rows = build_table1();
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) {
    EXPECT_GT(row.simulated_cycles, 0u);
    EXPECT_GT(row.hardware_cycles, 0u);
    EXPECT_GE(row.percent_difference, 0.0);
  }
  const std::string out = render_table1(rows);
  EXPECT_NE(out.find("Simulated Cycles"), std::string::npos);
  EXPECT_NE(out.find("TeaLeaf"), std::string::npos);
}

TEST(Vectorisation, Fig1SeriesCoverAppsAndVls) {
  const auto series = build_fig1({128, 2048});
  ASSERT_EQ(series.size(), 4u);
  for (const auto& s : series) {
    ASSERT_EQ(s.sve_percent.size(), 2u);
    for (double pct : s.sve_percent) {
      EXPECT_GE(pct, 0.0);
      EXPECT_LE(pct, 100.0);
    }
  }
  const std::string out = render_fig1(series);
  EXPECT_NE(out.find("VL 2048"), std::string::npos);
}

// The fit `check_tool --calibrate` runs by default (4 design points,
// 2 sweeps, seed 1). Against the Table-I proxy as black-box "silicon", it
// must recover four constants exactly, and reach zero residual without
// moving store->load forwarding latency off its idealised start: that
// constant is unidentifiable from these kernels' end-to-end cycles.
TEST(Calibration, RecoversFourProxyConstantsAndNotForwardLatency) {
  CalibrationOptions options;
  options.num_configs = 4;
  options.sweeps = 2;
  options.seed = 1;
  const CalibrationReport report = calibrate(options);
  const sim::ProxyOptions reference;
  EXPECT_EQ(report.fitted.dram_latency_scale, reference.dram_latency_scale);
  EXPECT_EQ(report.fitted.dram_interval_scale, reference.dram_interval_scale);
  EXPECT_EQ(report.fitted.prefetch_boost_l2, reference.prefetch_boost_l2);
  EXPECT_EQ(report.fitted.mispredict_penalty, reference.mispredict_penalty);
  EXPECT_EQ(report.fitted.forward_latency, CalibrationConstants{}.forward_latency);
  EXPECT_NE(report.fitted.forward_latency, reference.forward_latency);
  EXPECT_EQ(report.fitted_divergence, 0.0);
  EXPECT_GT(report.initial_divergence, 0.2);
  EXPECT_EQ(report.pairs, 16);
}

}  // namespace
}  // namespace adse::analysis
