#pragma once
/// \file forest.hpp
/// Bagged random-forest regression — the "more complex surrogate model"
/// extension the paper sketches in §VII. A single unconstrained CART tree
/// (the paper's model) is high-variance at small campaign sizes; averaging
/// bootstrap-resampled trees with per-split feature subsampling recovers
/// much of the accuracy that would otherwise require a far larger campaign.
/// The per-app single tree remains the canonical reproduction; the forest is
/// evaluated side by side in the ablation benches.

#include <cstdint>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"

namespace adse {
class ThreadPool;
}  // namespace adse

namespace adse::ml {

/// Ensemble prediction with an uncertainty estimate: the mean of the
/// per-tree predictions and their population standard deviation. The spread
/// of a bagged ensemble is the classic cheap epistemic-uncertainty proxy the
/// DSE acquisition functions need — zero where every bootstrap agrees
/// (well-covered regions of the design space), large where they diverge.
struct PredictionDistribution {
  double mean = 0.0;
  double std = 0.0;
};

struct ForestOptions {
  int num_trees = 50;
  /// Features considered per split (0 = all, i.e. pure bagging;
  /// a common default is ~ num_features / 3 for regression).
  int max_features = 0;
  /// Bootstrap sample size as a fraction of the training rows.
  double sample_fraction = 1.0;
  /// Per-tree growth options (criterion, depth, leaf limits).
  TreeOptions tree;
  std::uint64_t seed = 1;
};

class RandomForestRegressor {
 public:
  explicit RandomForestRegressor(const ForestOptions& options = {});

  /// Fits `num_trees` trees on bootstrap resamples of `data`, on `pool`'s
  /// threads when one is given. Every tree's bootstrap rows and seed are
  /// drawn up front in one serial RNG pass, and the out-of-bag sums are
  /// taken in tree order, so the forest is bit-identical with or without a
  /// pool and for any pool size.
  void fit(const Dataset& data, ThreadPool* pool = nullptr);

  /// Mean prediction over the ensemble.
  double predict(const std::vector<double>& row) const;
  std::vector<double> predict_all(const Dataset& data) const;

  /// Per-tree mean and ensemble standard deviation for one row.
  /// `dist.mean` equals predict(row); `dist.std` is 0 for a single-tree
  /// forest or wherever all trees agree (e.g. a constant target).
  PredictionDistribution predict_dist(const std::vector<double>& row) const;
  std::vector<PredictionDistribution> predict_dist_all(
      const Dataset& data) const;

  bool fitted() const { return !trees_.empty(); }
  std::size_t num_trees() const { return trees_.size(); }
  std::size_t num_features() const { return num_features_; }

  /// Mean out-of-bag absolute error: each row is predicted only by trees
  /// whose bootstrap sample excluded it — an internal generalisation
  /// estimate requiring no held-out split.
  double oob_mae() const { return oob_mae_; }

  /// Ensemble impurity importance (mean of per-tree importances).
  std::vector<double> impurity_importance() const;

 private:
  ForestOptions options_;
  std::vector<DecisionTreeRegressor> trees_;
  std::size_t num_features_ = 0;
  double oob_mae_ = 0.0;
};

}  // namespace adse::ml
