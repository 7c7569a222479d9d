#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/thread_pool.hpp"

namespace adse::ml {

RandomForestRegressor::RandomForestRegressor(const ForestOptions& options)
    : options_(options) {
  ADSE_REQUIRE(options_.num_trees >= 1);
  ADSE_REQUIRE(options_.sample_fraction > 0.0 &&
               options_.sample_fraction <= 1.0);
}

void RandomForestRegressor::fit(const Dataset& data, ThreadPool* pool) {
  data.check();
  ADSE_REQUIRE_MSG(data.num_rows() >= 2, "forest needs at least 2 rows");
  num_features_ = data.num_features();

  Rng rng(options_.seed);
  const std::size_t n = data.num_rows();
  const auto num_trees = static_cast<std::size_t>(options_.num_trees);
  const auto sample_size = static_cast<std::size_t>(
      std::max(1.0, options_.sample_fraction * static_cast<double>(n)));

  // 1. Each tree's bootstrap resample (with replacement) and then its seed,
  // tree by tree: the draw order of a serial fit.
  std::vector<std::size_t> bags(num_trees * sample_size);
  std::vector<std::uint64_t> seeds(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    for (std::size_t i = 0; i < sample_size; ++i) {
      bags[t * sample_size + i] = rng.index(n);
    }
    seeds[t] = rng.next();
  }

  // 2. Fit the trees, each with its own out-of-bag predictions; a tree
  // writes only its own slots.
  std::vector<DecisionTreeRegressor> trees(num_trees);
  std::vector<std::uint8_t> in_bag(num_trees * n, 0);
  std::vector<double> oob_pred(num_trees * n, 0.0);
  const auto fit_tree = [&](std::size_t t) {
    Dataset sample;
    sample.feature_names = data.feature_names;
    std::uint8_t* bagged = in_bag.data() + t * n;
    for (std::size_t i = 0; i < sample_size; ++i) {
      const std::size_t row = bags[t * sample_size + i];
      bagged[row] = 1;
      sample.add_row(data.x[row], data.y[row]);
    }
    TreeOptions tree_options = options_.tree;
    tree_options.max_features = options_.max_features;
    tree_options.seed = seeds[t];
    DecisionTreeRegressor tree(tree_options);
    tree.fit(sample);
    for (std::size_t row = 0; row < n; ++row) {
      if (!bagged[row]) oob_pred[t * n + row] = tree.predict(data.x[row]);
    }
    trees[t] = std::move(tree);
  };
  if (pool != nullptr) {
    pool->parallel_for(num_trees, fit_tree);
  } else {
    for (std::size_t t = 0; t < num_trees; ++t) fit_tree(t);
  }
  trees_ = std::move(trees);

  // 3. Out-of-bag accumulators, summed in tree order.
  std::vector<double> oob_sum(n, 0.0);
  std::vector<int> oob_count(n, 0);
  for (std::size_t t = 0; t < num_trees; ++t) {
    for (std::size_t row = 0; row < n; ++row) {
      if (!in_bag[t * n + row]) {
        oob_sum[row] += oob_pred[t * n + row];
        oob_count[row]++;
      }
    }
  }

  double total = 0.0;
  std::size_t covered = 0;
  for (std::size_t row = 0; row < n; ++row) {
    if (oob_count[row] > 0) {
      total += std::abs(oob_sum[row] / oob_count[row] - data.y[row]);
      covered++;
    }
  }
  oob_mae_ = covered > 0 ? total / static_cast<double>(covered) : 0.0;
}

double RandomForestRegressor::predict(const std::vector<double>& row) const {
  ADSE_REQUIRE_MSG(fitted(), "predict() before fit()");
  double total = 0.0;
  for (const auto& tree : trees_) total += tree.predict(row);
  return total / static_cast<double>(trees_.size());
}

PredictionDistribution RandomForestRegressor::predict_dist(
    const std::vector<double>& row) const {
  ADSE_REQUIRE_MSG(fitted(), "predict_dist() before fit()");
  // Welford over the per-tree predictions: one pass, no O(trees) buffer.
  double mean = 0.0;
  double m2 = 0.0;
  std::size_t n = 0;
  for (const auto& tree : trees_) {
    const double p = tree.predict(row);
    ++n;
    const double delta = p - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (p - mean);
  }
  PredictionDistribution dist;
  dist.mean = mean;
  dist.std = n > 1 ? std::sqrt(m2 / static_cast<double>(n)) : 0.0;
  return dist;
}

std::vector<PredictionDistribution> RandomForestRegressor::predict_dist_all(
    const Dataset& data) const {
  std::vector<PredictionDistribution> out;
  out.reserve(data.num_rows());
  for (const auto& row : data.x) out.push_back(predict_dist(row));
  return out;
}

std::vector<double> RandomForestRegressor::predict_all(
    const Dataset& data) const {
  std::vector<double> out;
  out.reserve(data.num_rows());
  for (const auto& row : data.x) out.push_back(predict(row));
  return out;
}

std::vector<double> RandomForestRegressor::impurity_importance() const {
  ADSE_REQUIRE(fitted());
  std::vector<double> total(num_features_, 0.0);
  for (const auto& tree : trees_) {
    const auto imp = tree.impurity_importance();
    for (std::size_t f = 0; f < num_features_; ++f) total[f] += imp[f];
  }
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

}  // namespace adse::ml
