/// \file 92_ablation_surrogate.cpp
/// Surrogate-model ablations motivated by §V-C's design discussion:
///   (a) MSE vs MAE split criterion ("using mean squared error over mean
///       absolute error avoids finding a minima ... by predicting the mean"),
///   (b) per-application models vs one unified model ("a decision tree
///       trained on multiple applications would likely branch based on a
///       given application ... without necessarily improving learned trends"),
///   (c) accuracy vs campaign size ("it may be possible to effectively map
///       the design space with only a few thousand results"),
///   (d) constrained vs unconstrained tree growth,
///   (e) single tree vs a bagged random forest (§VII's "more complex
///       surrogate model" future work).

#include <cmath>
#include <cstdio>

#include "analysis/analytical_features.hpp"
#include "analysis/surrogate_eval.hpp"
#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include "eval/fused.hpp"
#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "ml/forest.hpp"
#include "ml/metrics.hpp"
#include "sim/trace.hpp"

namespace {

using namespace adse;

struct EvalNumbers {
  double mean_accuracy;
  double r2;
  double within25;
};

EvalNumbers evaluate(const ml::Dataset& data, const ml::TreeOptions& options,
                     std::uint64_t seed) {
  Rng rng(seed);
  auto split = ml::train_test_split(data, 0.8, rng);
  ml::DecisionTreeRegressor tree(options);
  tree.fit(split.train);
  const auto pred = tree.predict_all(split.test);
  return {ml::mean_accuracy_percent(split.test.y, pred),
          ml::r2(split.test.y, pred),
          ml::within_tolerance_curve(split.test.y, pred, {0.25})[0]};
}

}  // namespace

int main() {
  std::printf("== Surrogate ablations (per §V-C design choices) ==\n\n");
  const auto data = bench::main_campaign();
  const std::uint64_t seed = campaign_seed();
  int failures = 0;

  // (a) criterion: MSE (paper) vs exact MAE.
  {
    TextTable table({"App", "criterion", "mean acc.", "R^2", "within 25%"});
    for (kernels::App app : kernels::all_apps()) {
      for (auto [label, crit] :
           {std::pair{"MSE", ml::Criterion::kMse},
            std::pair{"MAE", ml::Criterion::kMae}}) {
        ml::TreeOptions opts;
        opts.criterion = crit;
        const auto r = evaluate(data.dataset(app), opts, seed);
        table.add_row({kernels::app_name(app), label,
                       format_fixed(r.mean_accuracy, 2) + "%",
                       format_fixed(r.r2, 3),
                       format_fixed(r.within25 * 100, 1) + "%"});
      }
    }
    std::printf("(a) split criterion\n%s\n", table.render().c_str());
  }

  // (b) per-app vs unified model (app id appended as a 31st feature).
  {
    ml::Dataset unified;
    unified.feature_names = campaign::feature_names();
    unified.feature_names.push_back("app_id");
    for (kernels::App app : kernels::all_apps()) {
      const auto& ds = data.dataset(app);
      for (std::size_t r = 0; r < ds.num_rows(); ++r) {
        auto row = ds.x[r];
        row.push_back(static_cast<double>(app));
        unified.add_row(std::move(row), ds.y[r]);
      }
    }
    const auto unified_result = evaluate(unified, ml::TreeOptions{}, seed);

    double per_app_acc = 0.0;
    for (kernels::App app : kernels::all_apps()) {
      per_app_acc += evaluate(data.dataset(app), ml::TreeOptions{}, seed)
                         .mean_accuracy;
    }
    per_app_acc /= kernels::kNumApps;
    std::printf("(b) unified model mean accuracy: %.2f%% | per-app models: "
                "%.2f%%\n\n",
                unified_result.mean_accuracy, per_app_acc);
  }

  // (c) accuracy vs campaign size.
  {
    TextTable table({"rows/app", "mean acc. (all apps)", "mean R^2"});
    const auto& full = data.dataset(kernels::App::kStream);
    for (std::size_t n : {full.num_rows() / 8, full.num_rows() / 4,
                          full.num_rows() / 2, full.num_rows()}) {
      double acc = 0, r2sum = 0;
      for (kernels::App app : kernels::all_apps()) {
        const auto& ds = data.dataset(app);
        ml::Dataset subset;
        subset.feature_names = ds.feature_names;
        for (std::size_t r = 0; r < n; ++r) subset.add_row(ds.x[r], ds.y[r]);
        const auto result = evaluate(subset, ml::TreeOptions{}, seed);
        acc += result.mean_accuracy;
        r2sum += result.r2;
      }
      table.add_row({std::to_string(n),
                     format_fixed(acc / kernels::kNumApps, 2) + "%",
                     format_fixed(r2sum / kernels::kNumApps, 3)});
    }
    std::printf("(c) accuracy vs campaign size\n%s\n", table.render().c_str());

    // Shape check: more data should not hurt on average.
    const auto& ds = data.dataset(kernels::App::kMiniBude);
    ml::Dataset quarter;
    quarter.feature_names = ds.feature_names;
    for (std::size_t r = 0; r < ds.num_rows() / 4; ++r) {
      quarter.add_row(ds.x[r], ds.y[r]);
    }
    const double small_r2 = evaluate(quarter, ml::TreeOptions{}, seed).r2;
    const double full_r2 = evaluate(ds, ml::TreeOptions{}, seed).r2;
    failures += bench::shape_check(full_r2 >= small_r2 - 0.05,
                                   "more campaign data does not hurt accuracy");
  }

  // (d) growth constraints: the paper found unconstrained growth best.
  {
    TextTable table({"constraint", "MiniBude mean acc.", "R^2"});
    struct Variant {
      const char* label;
      ml::TreeOptions opts;
    };
    std::vector<Variant> variants;
    variants.push_back({"unconstrained (paper)", ml::TreeOptions{}});
    {
      ml::TreeOptions o;
      o.max_depth = 6;
      variants.push_back({"max_depth=6", o});
    }
    {
      ml::TreeOptions o;
      o.min_samples_leaf = 25;
      variants.push_back({"min_leaf=25", o});
    }
    double best_unconstrained = 0, best_constrained = -1e9;
    for (const auto& v : variants) {
      const auto r = evaluate(data.dataset(kernels::App::kMiniBude), v.opts, seed);
      table.add_row({v.label, format_fixed(r.mean_accuracy, 2) + "%",
                     format_fixed(r.r2, 3)});
      if (std::string(v.label).starts_with("unconstrained")) {
        best_unconstrained = r.r2;
      } else {
        best_constrained = std::max(best_constrained, r.r2);
      }
    }
    std::printf("(d) growth constraints\n%s\n", table.render().c_str());
    failures += bench::shape_check(
        best_unconstrained > best_constrained - 0.1,
        "unconstrained growth is competitive (the paper's choice)");
  }

  // (e) single tree (the paper's model) vs random forest (§VII extension).
  {
    TextTable table({"App", "tree mean acc.", "forest mean acc.", "tree R^2",
                     "forest R^2"});
    double tree_total = 0, forest_total = 0;
    for (kernels::App app : kernels::all_apps()) {
      Rng rng(seed ^ 0x5151);
      auto split = ml::train_test_split(data.dataset(app), 0.8, rng);
      ml::DecisionTreeRegressor tree;
      tree.fit(split.train);
      ml::ForestOptions forest_opts;
      forest_opts.num_trees = 40;
      forest_opts.max_features = 10;
      ml::RandomForestRegressor forest(forest_opts);
      forest.fit(split.train);
      const auto tree_pred = tree.predict_all(split.test);
      const auto forest_pred = forest.predict_all(split.test);
      const double ta = ml::mean_accuracy_percent(split.test.y, tree_pred);
      const double fa = ml::mean_accuracy_percent(split.test.y, forest_pred);
      tree_total += ta;
      forest_total += fa;
      table.add_row({kernels::app_name(app), format_fixed(ta, 2) + "%",
                     format_fixed(fa, 2) + "%",
                     format_fixed(ml::r2(split.test.y, tree_pred), 3),
                     format_fixed(ml::r2(split.test.y, forest_pred), 3)});
    }
    std::printf("(e) single tree vs random forest (SS VII extension)\n%s\n",
                table.render().c_str());
    failures += bench::shape_check(
        forest_total > tree_total,
        "bagging recovers accuracy lost to the small campaign (forest > tree)");
  }

  // (f) pure forest vs the fused analytical x residual formulation
  // (DESIGN.md SS 14): same split, same forest shape — the only change is
  // the target. The fused model predicts cycles as
  // analytical_min x exp(residual), so the forest only has to learn what
  // the per-resource bounds cannot see.
  {
    TextTable table({"App", "forest mean acc.", "fused mean acc.",
                     "forest R^2", "fused R^2"});
    // One (config, features, bound) triple per dataset row.
    const auto residualize = [](kernels::App app, const ml::Dataset& ds) {
      ml::Dataset residual;
      residual.feature_names = eval::FusedModel::residual_feature_names();
      std::vector<double> bounds;
      for (std::size_t r = 0; r < ds.num_rows(); ++r) {
        std::array<double, config::kNumParams> raw{};
        std::copy_n(ds.x[r].begin(), config::kNumParams, raw.begin());
        const config::CpuConfig cfg = config::config_from_features(raw);
        const analysis::AnalyticalFeatures features = analysis::analyze(
            sim::trace(app, cfg.core.vector_length_bits).summary(), cfg);
        const double bound = static_cast<double>(features.min_cycles);
        residual.add_row(eval::FusedModel::residual_row(cfg, features),
                         std::log(std::max(ds.y[r], 1.0) / bound));
        bounds.push_back(bound);
      }
      return std::pair{std::move(residual), std::move(bounds)};
    };

    double forest_total = 0, fused_total = 0;
    for (kernels::App app : kernels::all_apps()) {
      Rng rng(seed ^ 0xf00d);
      auto split = ml::train_test_split(data.dataset(app), 0.8, rng);
      ml::ForestOptions forest_opts;
      forest_opts.num_trees = 40;
      forest_opts.max_features = 10;

      ml::RandomForestRegressor plain(forest_opts);
      plain.fit(split.train);
      const auto plain_pred = plain.predict_all(split.test);

      const auto [res_train, train_bounds] = residualize(app, split.train);
      const auto [res_test, test_bounds] = residualize(app, split.test);
      ml::RandomForestRegressor residual_forest(forest_opts);
      residual_forest.fit(res_train);
      std::vector<double> fused_pred;
      for (std::size_t r = 0; r < res_test.num_rows(); ++r) {
        fused_pred.push_back(test_bounds[r] *
                             std::exp(residual_forest.predict(res_test.x[r])));
      }

      const double fa = ml::mean_accuracy_percent(split.test.y, plain_pred);
      const double ga = ml::mean_accuracy_percent(split.test.y, fused_pred);
      forest_total += fa;
      fused_total += ga;
      table.add_row({kernels::app_name(app), format_fixed(fa, 2) + "%",
                     format_fixed(ga, 2) + "%",
                     format_fixed(ml::r2(split.test.y, plain_pred), 3),
                     format_fixed(ml::r2(split.test.y, fused_pred), 3)});
    }
    std::printf("(f) pure forest vs fused analytical+residual (SS 14)\n%s\n",
                table.render().c_str());
    failures += bench::shape_check(
        fused_total > forest_total,
        "the analytical anchor improves the surrogate (fused > forest)");
  }

  return failures;
}
