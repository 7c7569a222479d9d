#include "ml/forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "ml/importance.hpp"
#include "ml/metrics.hpp"

namespace adse::ml {
namespace {

Dataset noisy_function(int n, std::uint64_t seed) {
  Dataset d;
  d.feature_names = {"x0", "x1", "x2"};
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row{rng.uniform_real(0, 10), rng.uniform_real(0, 10),
                            rng.uniform_real(0, 10)};
    const double y =
        20 * row[0] + row[1] * row[1] + rng.uniform_real(-5, 5);  // noise
    d.add_row(std::move(row), y);
  }
  return d;
}

TEST(Forest, PredictBeforeFitThrows) {
  RandomForestRegressor forest;
  EXPECT_FALSE(forest.fitted());
  EXPECT_THROW(forest.predict({1, 2, 3}), InvariantError);
}

TEST(Forest, InvalidOptionsThrow) {
  ForestOptions bad;
  bad.num_trees = 0;
  EXPECT_THROW(RandomForestRegressor{bad}, InvariantError);
  ForestOptions bad2;
  bad2.sample_fraction = 0.0;
  EXPECT_THROW(RandomForestRegressor{bad2}, InvariantError);
}

TEST(Forest, FitsAndPredicts) {
  const Dataset train = noisy_function(600, 1);
  const Dataset test = noisy_function(200, 2);
  ForestOptions opts;
  opts.num_trees = 30;
  RandomForestRegressor forest(opts);
  forest.fit(train);
  EXPECT_EQ(forest.num_trees(), 30u);
  EXPECT_GT(r2(test.y, forest.predict_all(test)), 0.9);
}

TEST(Forest, BeatsSingleTreeOnNoisyData) {
  const Dataset train = noisy_function(500, 3);
  const Dataset test = noisy_function(300, 4);
  DecisionTreeRegressor tree;
  tree.fit(train);
  ForestOptions opts;
  opts.num_trees = 40;
  RandomForestRegressor forest(opts);
  forest.fit(train);
  EXPECT_LT(mae(test.y, forest.predict_all(test)),
            mae(test.y, tree.predict_all(test)));
}

TEST(Forest, OobErrorEstimatesGeneralisation) {
  const Dataset train = noisy_function(500, 5);
  const Dataset test = noisy_function(300, 6);
  ForestOptions opts;
  opts.num_trees = 40;
  RandomForestRegressor forest(opts);
  forest.fit(train);
  const double test_mae = mae(test.y, forest.predict_all(test));
  EXPECT_GT(forest.oob_mae(), 0.0);
  // OOB estimate within 2x of the true held-out error.
  EXPECT_LT(forest.oob_mae(), test_mae * 2.0);
  EXPECT_GT(forest.oob_mae(), test_mae * 0.5);
}

TEST(Forest, DeterministicForSeed) {
  const Dataset d = noisy_function(200, 7);
  ForestOptions opts;
  opts.num_trees = 10;
  opts.seed = 42;
  RandomForestRegressor a(opts), b(opts);
  a.fit(d);
  b.fit(d);
  EXPECT_EQ(a.predict_all(d), b.predict_all(d));
}

TEST(Forest, FixedSeedPredictionsArePinned) {
  // Recorded from the one-tree-at-a-time fit, whose RNG drew each tree's
  // bootstrap rows and then its seed. A fit that draws in any other order
  // grows different trees and fails here, pool or no pool.
  const Dataset train = noisy_function(200, 7);
  const Dataset query = noisy_function(4, 8);
  ForestOptions opts;
  opts.num_trees = 12;
  opts.max_features = 2;
  opts.sample_fraction = 0.8;
  opts.seed = 42;
  RandomForestRegressor forest(opts);
  forest.fit(train);
  const PredictionDistribution pinned[] = {
      {203.25812358161346, 5.1651515007062629},
      {91.217357408796389, 9.803010145348992},
      {238.30288069345914, 48.979331978096262},
      {89.894871690556897, 28.258404865870702}};
  const std::vector<PredictionDistribution> dists =
      forest.predict_dist_all(query);
  ASSERT_EQ(dists.size(), std::size(pinned));
  for (std::size_t i = 0; i < dists.size(); ++i) {
    EXPECT_EQ(dists[i].mean, pinned[i].mean) << i;
    EXPECT_EQ(dists[i].std, pinned[i].std) << i;
  }
  EXPECT_EQ(forest.oob_mae(), 8.5994805340976459);
}

TEST(Forest, PoolDoesNotChangeTheForest) {
  // Trees fitted on 1, 2 or 4 pool threads (plus the caller) are the trees
  // of the serial fit, so every prediction and the out-of-bag error are
  // bit-equal.
  const Dataset train = noisy_function(300, 21);
  const Dataset query = noisy_function(50, 22);
  ForestOptions opts;
  opts.num_trees = 16;
  opts.max_features = 2;
  opts.sample_fraction = 0.9;
  opts.seed = 5;
  RandomForestRegressor serial(opts);
  serial.fit(train);
  const std::vector<PredictionDistribution> serial_dists =
      serial.predict_dist_all(query);
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    RandomForestRegressor pooled(opts);
    pooled.fit(train, &pool);
    EXPECT_EQ(pooled.predict_all(query), serial.predict_all(query));
    const std::vector<PredictionDistribution> dists =
        pooled.predict_dist_all(query);
    ASSERT_EQ(dists.size(), serial_dists.size());
    for (std::size_t i = 0; i < dists.size(); ++i) {
      EXPECT_EQ(dists[i].mean, serial_dists[i].mean) << i;
      EXPECT_EQ(dists[i].std, serial_dists[i].std) << i;
    }
    EXPECT_EQ(pooled.oob_mae(), serial.oob_mae());
  }
}

TEST(Forest, FeatureSubsamplingWorks) {
  const Dataset d = noisy_function(300, 8);
  ForestOptions opts;
  opts.num_trees = 20;
  opts.max_features = 1;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  EXPECT_GT(r2(d.y, forest.predict_all(d)), 0.5);
}

TEST(Forest, ImportanceFindsRelevantFeatures) {
  const Dataset d = noisy_function(600, 9);
  ForestOptions opts;
  opts.num_trees = 25;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  const auto imp = forest.impurity_importance();
  EXPECT_GT(imp[0], imp[2]);  // x0 matters, x2 is noise
  EXPECT_GT(imp[1], imp[2]);
  double total = 0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Forest, PermutationImportanceOverloadWorks) {
  const Dataset d = noisy_function(400, 10);
  ForestOptions opts;
  opts.num_trees = 15;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  Rng rng(1);
  const auto result = permutation_importance(forest, d, rng);
  EXPECT_GT(result.percent[0], result.percent[2]);
}

TEST(Forest, PredictDistStdIsZeroForIdenticalTrees) {
  // A constant target makes every bootstrap tree identical, so the ensemble
  // spread must collapse to exactly zero.
  Dataset d;
  d.feature_names = {"x0", "x1"};
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    d.add_row({rng.uniform01(), rng.uniform01()}, 7.5);
  }
  ForestOptions opts;
  opts.num_trees = 20;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  const auto dist = forest.predict_dist({0.3, 0.6});
  EXPECT_DOUBLE_EQ(dist.mean, 7.5);
  EXPECT_DOUBLE_EQ(dist.std, 0.0);
}

TEST(Forest, PredictDistStdIsZeroForSingleTree) {
  const Dataset d = noisy_function(150, 13);
  ForestOptions opts;
  opts.num_trees = 1;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  EXPECT_DOUBLE_EQ(forest.predict_dist(d.x[0]).std, 0.0);
}

TEST(Forest, PredictDistStdPositiveUnderBootstrapVariance) {
  const Dataset d = noisy_function(300, 14);
  ForestOptions opts;
  opts.num_trees = 30;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  // Noisy targets + bootstrap resampling must leave the trees disagreeing
  // somewhere; probe the training rows themselves.
  const auto dists = forest.predict_dist_all(d);
  ASSERT_EQ(dists.size(), d.num_rows());
  double max_std = 0.0;
  for (const auto& dist : dists) {
    EXPECT_GE(dist.std, 0.0);
    max_std = std::max(max_std, dist.std);
  }
  EXPECT_GT(max_std, 0.0);
}

TEST(Forest, PredictDistMeanMatchesPredict) {
  const Dataset d = noisy_function(200, 15);
  ForestOptions opts;
  opts.num_trees = 25;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  for (int i = 0; i < 20; ++i) {
    const auto dist = forest.predict_dist(d.x[static_cast<std::size_t>(i)]);
    EXPECT_NEAR(dist.mean, forest.predict(d.x[static_cast<std::size_t>(i)]),
                1e-9);
  }
}

TEST(Forest, PredictDistDeterministicForSeed) {
  const Dataset d = noisy_function(200, 16);
  ForestOptions opts;
  opts.num_trees = 15;
  opts.seed = 99;
  RandomForestRegressor a(opts), b(opts);
  a.fit(d);
  b.fit(d);
  for (const auto& row : d.x) {
    const auto da = a.predict_dist(row);
    const auto db = b.predict_dist(row);
    EXPECT_DOUBLE_EQ(da.mean, db.mean);
    EXPECT_DOUBLE_EQ(da.std, db.std);
  }
}

TEST(Forest, PredictDistBeforeFitThrows) {
  RandomForestRegressor forest;
  EXPECT_THROW(forest.predict_dist({1, 2, 3}), InvariantError);
}

TEST(Forest, SingleTreeForestMatchesBaggedTree) {
  // One tree with full sampling fraction=1.0 still differs from a plain tree
  // (bootstrap duplicates rows) but must remain a sane regressor.
  const Dataset d = noisy_function(200, 11);
  ForestOptions opts;
  opts.num_trees = 1;
  RandomForestRegressor forest(opts);
  forest.fit(d);
  EXPECT_GT(r2(d.y, forest.predict_all(d)), 0.8);
}

}  // namespace
}  // namespace adse::ml
