#include "eval/fused.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "common/env.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "sim/trace.hpp"

namespace adse::eval {

namespace {

/// Word-wise FNV-1a (common/hash.hpp) over the config's feature bits — the
/// observation-dedup identity. Sound for the same reason the service memo
/// hashes feature bits: every config comes out of the same discrete
/// ParameterSpace generation path.
std::uint64_t observation_hash(kernels::App app,
                               const std::array<double, config::kNumParams>&
                                   features) {
  std::uint64_t h =
      hash::mix_word(hash::kFnvOffset, static_cast<std::uint64_t>(app));
  for (double f : features) h = hash::mix_double(h, f);
  return h;
}

std::atomic<std::uint64_t> next_model_id{0};

}  // namespace

FusedOptions fused_options_from_env() {
  FusedOptions options;
  options.threshold = fused_threshold();
  options.probe_every = static_cast<int>(fused_probe_every());
  // Residual-forest shape: ~50 joint features; a third per split is the
  // regression default, 30 trees keep refits cheap enough for the online
  // loop while still giving the spread estimate an ensemble to disagree in.
  options.forest.num_trees = 30;
  options.forest.max_features = 18;
  return options;
}

FusedModel::FusedModel(FusedOptions options)
    : options_(options), id_(next_model_id.fetch_add(1)) {
  for (AppModel& model : models_) {
    model.data.feature_names = residual_feature_names();
  }
}

void FusedModel::set_threshold(double threshold) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_.threshold = threshold;
}

std::vector<std::string> FusedModel::residual_feature_names() {
  std::vector<std::string> names;
  for (std::size_t p = 0; p < config::kNumParams; ++p) {
    names.push_back(config::param_name(static_cast<config::ParamId>(p)));
  }
  const auto& analytical = analysis::AnalyticalFeatures::ml_feature_names();
  names.insert(names.end(), analytical.begin(), analytical.end());
  return names;
}

std::vector<double> FusedModel::residual_row(
    const config::CpuConfig& config,
    const analysis::AnalyticalFeatures& features) {
  const auto params = config::feature_vector(config);
  std::vector<double> row(params.begin(), params.end());
  const std::vector<double> analytical = features.ml_features();
  row.insert(row.end(), analytical.begin(), analytical.end());
  return row;
}

const analysis::TraceSummary& FusedModel::summary(kernels::App app,
                                                  int vl) const {
  return sim::trace(app, vl).summary();
}

bool FusedModel::observe(kernels::App app, const config::CpuConfig& config,
                         double cycles, ThreadPool* pool) {
  const auto params = config::feature_vector(config);
  const analysis::TraceSummary& digest =
      summary(app, config.core.vector_length_bits);

  std::lock_guard<std::mutex> lock(mutex_);
  AppModel& model = models_[static_cast<std::size_t>(app)];
  if (!model.seen.insert(observation_hash(app, params)).second) return false;

  const analysis::AnalyticalFeatures features =
      analysis::analyze(digest, config);
  const double target =
      std::log(std::max(cycles, 1.0) /
               static_cast<double>(features.min_cycles));
  model.data.add_row(residual_row(config, features), target);

  // Geometric refit schedule: wait for min_observations, then refit each
  // time the training set has grown by max(32, half the last fit) — a
  // handful of refits per decade of observations.
  const std::size_t rows = model.data.num_rows();
  if (rows < static_cast<std::size_t>(options_.min_observations)) return false;
  if (model.fitted_rows > 0 &&
      rows < model.fitted_rows +
                 std::max<std::size_t>(32, model.fitted_rows / 2)) {
    return false;
  }

  ml::ForestOptions forest_options = options_.forest;
  forest_options.seed =
      options_.seed ^ (refits_ * 0x9e3779b97f4a7c15ULL) ^
      (static_cast<std::uint64_t>(app) << 32);
  const ml::Dataset* train = &model.data;
  ml::Dataset subsample;
  if (rows > static_cast<std::size_t>(options_.max_train_rows)) {
    // Bound refit latency: train on a seeded uniform subsample.
    std::vector<std::size_t> order(rows);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(forest_options.seed ^ rows);
    rng.shuffle(order);
    subsample.feature_names = model.data.feature_names;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(options_.max_train_rows); ++i) {
      subsample.add_row(model.data.x[order[i]], model.data.y[order[i]]);
    }
    train = &subsample;
  }
  auto forest = std::make_shared<ml::RandomForestRegressor>(forest_options);
  forest->fit(*train, pool);
  model.forest = std::move(forest);
  model.fitted_rows = rows;
  refits_++;
  return true;
}

FusedPrediction FusedModel::predict(kernels::App app,
                                    const config::CpuConfig& config) const {
  const analysis::TraceSummary& digest =
      summary(app, config.core.vector_length_bits);

  // Only the snapshot copy is locked: the forest is immutable, and a refit
  // swaps in a new one rather than changing this one.
  std::shared_ptr<const ml::RandomForestRegressor> forest;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    forest = models_[static_cast<std::size_t>(app)].forest;
  }
  const analysis::AnalyticalFeatures features =
      analysis::analyze(digest, config);
  FusedPrediction prediction;
  prediction.analytical_min = static_cast<double>(features.min_cycles);
  if (forest == nullptr) return prediction;
  const ml::PredictionDistribution dist =
      forest->predict_dist(residual_row(config, features));
  prediction.cycles = prediction.analytical_min * std::exp(dist.mean);
  prediction.spread = dist.std;
  prediction.ready = true;
  return prediction;
}

std::size_t FusedModel::observations(kernels::App app) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_[static_cast<std::size_t>(app)].data.num_rows();
}

std::uint64_t FusedModel::refits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return refits_;
}

bool FusedModel::take_probe_tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.probe_every <= 0) return false;
  probe_tick_++;
  return probe_tick_ % static_cast<std::uint64_t>(options_.probe_every) == 0;
}

}  // namespace adse::eval
