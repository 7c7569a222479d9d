#pragma once
/// \file fused.hpp
/// The fused analytical+ML surrogate — the Concorde recipe (PAPERS.md)
/// grafted onto the evaluation service. Cycles are predicted as
///
///     cycles ≈ analytical_bound × exp(learned residual)
///
/// where `analytical_bound` is the per-resource ideal-throughput lower bound
/// from `analysis::analyze` (exact, O(1) per candidate, no trace decode) and
/// the residual — everything the bounds cannot see: queue contention, miss
/// overlap, scheduling slack — is a random forest trained ONLINE on
/// log(actual / bound) from every real simulator result that flows through
/// the service (NeuroScalar's train-while-you-simulate loop).
///
/// The ensemble's predictive spread doubles as the routing signal: below
/// `FusedOptions::threshold` the model answers; above it the candidate falls
/// through to the real (batched) simulator — see
/// `EvalService::evaluate_routed`, which predicts each request once, in
/// parallel on its pool, and serves that gated prediction as the answer.
/// Predictions take no lock while they compute: each app's fitted forest is
/// an immutable snapshot that a refit swaps out whole. Surrogate answers are
/// memoised under a tag that carries the model's `id()`, so two models never
/// serve each other's predictions, and are never persisted — predictions
/// change on every refit and must never reach the on-disk result store.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/analytical_features.hpp"
#include "common/thread_pool.hpp"
#include "config/cpu_config.hpp"
#include "kernels/workloads.hpp"
#include "ml/dataset.hpp"
#include "ml/forest.hpp"

namespace adse::eval {

struct FusedOptions {
  /// Routing gate on the residual forest's predictive spread (std of the
  /// per-tree log-residual predictions; typically 0.3–1.0 at online
  /// training sizes). <= 0 routes nothing: every request takes the plain
  /// all-sim path, bit-identically.
  double threshold = 1.0;
  /// Every Nth surrogate-eligible candidate is simulated for real instead —
  /// the honest-keeping probe batches. 0 disables probing.
  int probe_every = 64;
  /// Observations an app's model needs before it may answer at all.
  int min_observations = 48;
  /// Refit training-set cap: beyond this many observations each refit
  /// trains on a seeded uniform subsample (bounds refit latency).
  int max_train_rows = 4096;
  /// Requests per routing round in evaluate_routed: each round is gated
  /// with the model as of the previous round, then its real-sim results
  /// feed the next refit — the online training loop's granularity.
  int round_size = 256;
  /// Residual forest shape (trees, feature subsampling, depth).
  ml::ForestOptions forest;
  std::uint64_t seed = 1;
};

/// Options with the env knobs applied (ADSE_FUSED_THRESHOLD,
/// ADSE_FUSED_PROBE_EVERY) and the residual-forest defaults set.
FusedOptions fused_options_from_env();

struct FusedPrediction {
  double cycles = 0.0;          ///< analytical_min × exp(residual mean)
  double spread = 0.0;          ///< ensemble std of the log-residual
  double analytical_min = 0.0;  ///< the analytical lower bound itself
  bool ready = false;           ///< this app's residual model is fitted
};

/// The online residual model: one forest per application, observations
/// appended as real simulator results arrive, refits on a geometric
/// schedule. Thread-safe; deterministic for a given seed and observation
/// order. Trace summaries are built lazily, once per (app, VL), so
/// prediction never decodes a trace.
class FusedModel {
 public:
  explicit FusedModel(FusedOptions options = fused_options_from_env());

  const FusedOptions& options() const { return options_; }

  /// Process-unique identity of this model, mixed into the memo tag of its
  /// surrogate answers.
  std::uint64_t id() const { return id_; }

  /// Re-gates future routing decisions (tests calibrate the threshold
  /// against measured spreads; campaigns sweep it).
  void set_threshold(double threshold);

  /// Feeds one ground-truth result. Duplicate (app, config) observations
  /// are ignored (memo/store-served repeats must not skew the training
  /// distribution). Returns true when the observation triggered a refit,
  /// whose trees are fitted on `pool` when one is given (the forest is the
  /// same either way).
  bool observe(kernels::App app, const config::CpuConfig& config,
               double cycles, ThreadPool* pool = nullptr);

  /// Safe to call concurrently with itself and with observe(): the lock
  /// covers only the copy of the app's forest snapshot.
  FusedPrediction predict(kernels::App app,
                          const config::CpuConfig& config) const;

  std::size_t observations(kernels::App app) const;
  std::uint64_t refits() const;

  /// The router's probe clock: returns true when the current
  /// surrogate-eligible candidate should be simulated for real instead
  /// (every options().probe_every-th call; never when probing is disabled).
  bool take_probe_tick();

  /// Residual-model feature layout: the raw config parameters followed by
  /// the analytical features.
  static std::vector<std::string> residual_feature_names();
  /// One residual-model row for (config, features) — exposed so offline
  /// ablations (bench/92) can train the same formulation.
  static std::vector<double> residual_row(
      const config::CpuConfig& config,
      const analysis::AnalyticalFeatures& features);

  /// The lazily built, cached trace digest for (app, vl).
  const analysis::TraceSummary& summary(kernels::App app, int vl) const;

 private:
  struct AppModel {
    ml::Dataset data;
    /// Null until the first fit; each refit replaces it with a new forest.
    std::shared_ptr<const ml::RandomForestRegressor> forest;
    std::size_t fitted_rows = 0;
    std::unordered_set<std::uint64_t> seen;  ///< observation dedup hashes
  };

  FusedOptions options_;
  std::uint64_t id_;
  mutable std::mutex mutex_;
  mutable std::map<std::pair<int, int>,
                   std::unique_ptr<const analysis::TraceSummary>>
      summaries_;
  std::array<AppModel, kernels::kNumApps> models_;
  std::uint64_t refits_ = 0;
  std::uint64_t probe_tick_ = 0;
};

}  // namespace adse::eval
