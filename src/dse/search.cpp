#include "dse/search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "campaign/campaign.hpp"
#include "common/require.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "config/param_space.hpp"
#include "dse/pareto.hpp"
#include "eval/service.hpp"
#include "obs/log.hpp"
#include "power/power_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace adse::dse {

namespace {

/// Apps a config must be simulated on under the given objective.
std::vector<kernels::App> apps_for(const SearchOptions& options) {
  if (options.objective == Objective::kGeomeanAllApps) {
    return kernels::all_apps();
  }
  return {options.app};
}

double objective_of(const SearchOptions& options,
                    const std::array<double, kernels::kNumApps>& cycles) {
  if (options.objective == Objective::kGeomeanAllApps) {
    return geomean({cycles.begin(), cycles.end()});
  }
  return cycles[static_cast<std::size_t>(options.app)];
}

/// Simulates a batch of configurations through the eval service; results
/// land in deterministic per-index slots regardless of scheduling — and any
/// point a previous run (or a concurrent searcher) already simulated is
/// served from the service's memo/store instead of re-simulated.
std::vector<EvaluatedConfig> evaluate_batch(
    const SearchOptions& options, const std::vector<config::CpuConfig>& batch,
    eval::EvalService& service, std::size_t first_index) {
  std::vector<EvaluatedConfig> out(batch.size());
  const auto apps = apps_for(options);
  std::vector<eval::EvalRequest> requests;
  requests.reserve(batch.size() * apps.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EvaluatedConfig& e = out[i];
    e.config = batch[i];
    e.config.name = "dse-" + std::to_string(first_index + i);
    for (kernels::App app : apps) {
      requests.push_back({e.config, app});
    }
  }
  eval::EvalPolicy policy;
  policy.fused = options.fused;
  const auto results = service.evaluate(requests, policy);
  eval::require_ok(results);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EvaluatedConfig& e = out[i];
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const auto& run = results[i * apps.size() + a].run;
      const auto app = static_cast<std::size_t>(apps[a]);
      e.cycles[app] = static_cast<double>(run.core.cycles);
      e.energy_j[app] = run.power.energy_j();
      e.area_mm2 = run.power.area_mm2;
    }
    e.objective_value = objective_of(options, e.cycles);
  }
  return out;
}

/// Maps an objective value into the surrogate's target space: the log.
/// Cycle counts span orders of magnitude across the space, so a raw-space
/// forest's error on slow configurations would swamp the differences that
/// matter near the optimum; the log equalises relative error.
double to_model_space(double objective) {
  ADSE_REQUIRE_MSG(objective > 0.0,
                   "the surrogate needs a strictly positive objective");
  return std::log(objective);
}

/// Inverse of to_model_space: maps a surrogate-space value back to the
/// objective's natural units (where hypervolume is computed).
double from_model_space(double value) { return std::exp(value); }

bool multi_objective(const SearchOptions& options) {
  return options.objective == Objective::kCyclesEnergyArea;
}

std::vector<std::vector<double>> ppa_rows(
    const std::vector<EvaluatedConfig>& evaluated, kernels::App app) {
  std::vector<std::vector<double>> rows;
  rows.reserve(evaluated.size());
  for (const EvaluatedConfig& e : evaluated) rows.push_back(e.ppa(app));
  return rows;
}

/// The hypervolume reference point of a multi-objective run: the
/// per-objective maximum over the *seed-batch prefix* of the evaluations,
/// padded by 20%. Freezing it after the seed batch (instead of tracking the
/// running maximum) keeps the journal's hypervolume column monotone and
/// comparable across rounds; later points beyond the reference simply clip
/// to zero contribution.
std::vector<double> hv_reference_of(const SearchOptions& options,
                                    const std::vector<EvaluatedConfig>& evaluated) {
  const std::size_t n =
      std::min(evaluated.size(),
               static_cast<std::size_t>(options.initial_samples));
  ADSE_REQUIRE_MSG(n > 0, "hypervolume reference needs at least one evaluation");
  std::vector<double> ref(3, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = evaluated[i].ppa(options.app);
    for (std::size_t d = 0; d < 3; ++d) ref[d] = std::max(ref[d], p[d]);
  }
  for (double& r : ref) {
    ADSE_REQUIRE_MSG(r > 0.0, "degenerate hypervolume reference");
    r *= 1.2;
  }
  return ref;
}

/// Dominated hypervolume of everything evaluated so far (multi-objective
/// runs; 0 with an empty reference).
double journal_hypervolume(const SearchOptions& options,
                           const std::vector<EvaluatedConfig>& evaluated,
                           const std::vector<double>& reference) {
  if (reference.empty()) return 0.0;
  return hypervolume(ppa_rows(evaluated, options.app), reference);
}

ml::Dataset dataset_of(const std::vector<EvaluatedConfig>& evaluated) {
  ml::Dataset data;
  data.feature_names = campaign::feature_names();
  for (const EvaluatedConfig& e : evaluated) {
    const auto features = config::feature_vector(e.config);
    data.add_row({features.begin(), features.end()},
                 to_model_space(e.objective_value));
  }
  return data;
}

/// Dataset for the energy surrogate (multi-objective mode): same features,
/// target = the target app's total energy, in the same model space as the
/// cycles surrogate (energy spans orders of magnitude for the same reason).
ml::Dataset energy_dataset_of(const SearchOptions& options,
                              const std::vector<EvaluatedConfig>& evaluated) {
  ml::Dataset data;
  data.feature_names = campaign::feature_names();
  for (const EvaluatedConfig& e : evaluated) {
    const auto features = config::feature_vector(e.config);
    data.add_row(
        {features.begin(), features.end()},
        to_model_space(e.energy_j[static_cast<std::size_t>(options.app)]));
  }
  return data;
}

std::vector<config::CpuConfig> incumbents_of(
    const std::vector<EvaluatedConfig>& evaluated, int count) {
  std::vector<std::size_t> order(evaluated.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t k =
      std::min(static_cast<std::size_t>(std::max(count, 0)), order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&evaluated](std::size_t a, std::size_t b) {
                      return evaluated[a].objective_value <
                             evaluated[b].objective_value;
                    });
  std::vector<config::CpuConfig> best;
  best.reserve(k);
  for (std::size_t i = 0; i < k; ++i) best.push_back(evaluated[order[i]].config);
  return best;
}

double best_objective(const std::vector<EvaluatedConfig>& evaluated) {
  double best = evaluated.front().objective_value;
  for (const EvaluatedConfig& e : evaluated) {
    best = std::min(best, e.objective_value);
  }
  return best;
}

/// Publishes the journal (atomically, so it is readable while the search
/// runs); a no-op for in-memory searches.
void persist_journal(const SearchOptions& options, const Journal& journal) {
  if (options.persist) write_journal(journal_path(options.label), journal);
}

/// Marks the best evaluation and names the journal a persisted run wrote.
void finish(const SearchOptions& options, SearchResult& result) {
  ADSE_REQUIRE_MSG(!result.evaluated.empty(), "search evaluated nothing");
  const auto best = std::min_element(
      result.evaluated.begin(), result.evaluated.end(),
      [](const EvaluatedConfig& a, const EvaluatedConfig& b) {
        return a.objective_value < b.objective_value;
      });
  result.best_index =
      static_cast<std::size_t>(best - result.evaluated.begin());
  if (options.persist) result.journal_file = journal_path(options.label);
}

void check_options(const SearchOptions& options) {
  ADSE_REQUIRE_MSG(options.max_simulations >= 2,
                   "search budget must cover at least 2 simulations");
  ADSE_REQUIRE(options.initial_samples >= 2);
  ADSE_REQUIRE(options.batch_size >= 1);
  ADSE_REQUIRE(options.threads >= 0);
  ADSE_REQUIRE_MSG(
      options.exploit_fraction >= 0.0 && options.exploit_fraction <= 1.0,
      "exploit_fraction must lie in [0, 1]");
}

/// Picks this round's batch: `exploit_fraction` of the `k` slots go to the
/// highest greedy score, the rest follow the acquisition ranking (duplicates
/// collapse, acquisition picks fill the gap). Single-objective runs pass
/// greedy = -predicted mean; multi-objective runs pass the mean-based
/// hypervolume improvement.
std::vector<std::size_t> select_batch(const SearchOptions& options,
                                      const std::vector<double>& greedy,
                                      const std::vector<double>& acquisition,
                                      std::size_t k) {
  const auto n_exploit = static_cast<std::size_t>(
      static_cast<double>(k) * options.exploit_fraction);
  std::vector<std::size_t> chosen = top_k_indices(greedy, n_exploit);
  for (std::size_t idx : top_k_indices(acquisition, k)) {
    if (chosen.size() >= k) break;
    if (std::find(chosen.begin(), chosen.end(), idx) == chosen.end()) {
      chosen.push_back(idx);
    }
  }
  return chosen;
}

/// Draws up to `count` mutually distinct, not-yet-simulated uniform configs.
std::vector<config::CpuConfig> distinct_uniform(
    const config::ParameterSpace& space, int count, SeenSet& simulated,
    Rng& rng, const config::SampleConstraints& constraints) {
  std::vector<config::CpuConfig> batch;
  // The discrete space has ~10^30 points, so collisions are rare; the
  // attempt cap only guards degenerate constraint setups.
  int attempts = count * 100;
  while (static_cast<int>(batch.size()) < count && attempts-- > 0) {
    config::CpuConfig candidate = space.sample(rng, constraints);
    if (simulated.insert(candidate)) batch.push_back(std::move(candidate));
  }
  ADSE_REQUIRE_MSG(!batch.empty(), "could not draw any unseen configuration");
  return batch;
}

RoundRecord make_record(int round, const std::vector<EvaluatedConfig>& evaluated,
                        int pool_size, double oob_mae, double entropy,
                        double seconds, double hv) {
  RoundRecord r;
  r.round = round;
  r.sims_total = static_cast<int>(evaluated.size());
  r.pool_size = pool_size;
  r.best_objective = best_objective(evaluated);
  r.surrogate_oob_mae = oob_mae;
  r.acquisition_entropy = entropy;
  r.round_seconds = seconds;
  r.hypervolume = hv;
  return r;
}

/// Publishes one finished round into the process-wide registry: the journal
/// stays the per-run record, the registry is the live cross-run surface a
/// long campaign's health is read from.
void publish_round(const RoundRecord& r, std::size_t batch_size) {
  auto& registry = obs::Registry::global();
  registry.counter("dse.rounds").add(1);
  registry.counter("dse.simulations").add(batch_size);
  registry.gauge("dse.best_objective").set(r.best_objective);
  registry.gauge("dse.surrogate_oob_mae").set(r.surrogate_oob_mae);
  registry.gauge("dse.acquisition_entropy").set(r.acquisition_entropy);
  registry.gauge("dse.hypervolume").set(r.hypervolume);
  registry.histogram("dse.round_seconds").observe(r.round_seconds);
}

}  // namespace

ml::ForestOptions default_surrogate_options() {
  ml::ForestOptions options;
  options.num_trees = 40;
  // ~num_features/3 — regression-forest folklore; the subsampling buys the
  // ensemble diversity the spread estimate feeds on.
  options.max_features = 10;
  return options;
}

std::vector<double> SearchResult::best_so_far() const {
  std::vector<double> curve;
  curve.reserve(evaluated.size());
  double best = std::numeric_limits<double>::infinity();
  for (const EvaluatedConfig& e : evaluated) {
    best = std::min(best, e.objective_value);
    curve.push_back(best);
  }
  return curve;
}

std::size_t SearchResult::sims_to_reach(double target) const {
  for (std::size_t i = 0; i < evaluated.size(); ++i) {
    if (evaluated[i].objective_value <= target) return i + 1;
  }
  return evaluated.size() + 1;
}

std::vector<std::size_t> SearchResult::pareto_between(kernels::App a,
                                                      kernels::App b) const {
  std::vector<std::vector<double>> objectives;
  objectives.reserve(evaluated.size());
  for (const EvaluatedConfig& e : evaluated) {
    const double ca = e.cycles[static_cast<std::size_t>(a)];
    const double cb = e.cycles[static_cast<std::size_t>(b)];
    ADSE_REQUIRE_MSG(ca > 0.0 && cb > 0.0,
                     "pareto_between() needs cycles for both apps — run the "
                     "multi-objective mode");
    objectives.push_back({ca, cb});
  }
  return pareto_front(objectives);
}

std::vector<std::vector<double>> SearchResult::ppa_points(
    kernels::App app) const {
  return ppa_rows(evaluated, app);
}

std::vector<std::size_t> SearchResult::pareto_ppa(kernels::App app) const {
  const auto points = ppa_rows(evaluated, app);
  for (const auto& p : points) {
    ADSE_REQUIRE_MSG(p[0] > 0.0 && p[1] > 0.0 && p[2] > 0.0,
                     "pareto_ppa() needs cycles, energy and area for the app "
                     "— run the kCyclesEnergyArea mode");
  }
  return pareto_front(points);
}

SearchResult search(const SearchOptions& options, eval::EvalService& service) {
  check_options(options);
  const config::ParameterSpace space;
  config::SampleConstraints constraints;
  constraints.fixed_vector_length = options.fixed_vector_length;

  Rng rng(options.seed);

  SearchResult result;
  SeenSet simulated;

  const bool multi = multi_objective(options);
  ml::RandomForestRegressor surrogate(options.forest);
  // Second surrogate for the energy objective (multi-objective mode); area
  // needs no model — it is an exact function of the configuration.
  ml::RandomForestRegressor energy_surrogate(options.forest);
  auto refit = [&]() {
    surrogate.fit(dataset_of(result.evaluated));
    if (multi) {
      energy_surrogate.fit(energy_dataset_of(options, result.evaluated));
    }
  };
  int round = 0;
  Stopwatch round_watch;

  auto budget_left = [&]() {
    return options.max_simulations - static_cast<int>(result.evaluated.size());
  };

  // Round 0: the uniform batch that seeds the surrogate.
  {
    obs::Span span("dse.round", "dse");
    span.set_detail([&] { return options.label + " #0 (seed batch)"; });
    const auto batch = distinct_uniform(
        space, std::min(options.initial_samples, options.max_simulations),
        simulated, rng, constraints);
    result.evaluated = evaluate_batch(options, batch, service, 0);
    if (multi) result.hv_reference = hv_reference_of(options, result.evaluated);
    refit();
    result.journal.rounds.push_back(make_record(
        round, result.evaluated, static_cast<int>(batch.size()),
        surrogate.oob_mae(), 0.0, round_watch.seconds(),
        journal_hypervolume(options, result.evaluated, result.hv_reference)));
    publish_round(result.journal.rounds.back(), batch.size());
    persist_journal(options, result.journal);
  }

  while (budget_left() > 0) {
    ++round;
    Stopwatch watch;
    obs::Span span("dse.round", "dse");
    span.set_detail(
        [&] { return options.label + " #" + std::to_string(round); });
    // Propose: global draws + local mutants of the incumbents.
    const auto incumbents =
        incumbents_of(result.evaluated, options.candidates.num_incumbents);
    const auto candidates = generate_candidates(
        space, options.candidates, incumbents, simulated, rng, constraints);
    ADSE_REQUIRE_MSG(!candidates.empty(), "empty candidate pool");

    // Score: surrogate distribution(s) → acquisition ranking.
    std::vector<ml::PredictionDistribution> dists(candidates.size());
    std::vector<ml::PredictionDistribution> energy_dists(
        multi ? candidates.size() : 0);
    std::vector<double> areas(multi ? candidates.size() : 0);
    service.parallel_for(candidates.size(), [&](std::size_t i) {
      const auto features = config::feature_vector(candidates[i]);
      dists[i] = surrogate.predict_dist({features.begin(), features.end()});
      if (multi) {
        energy_dists[i] =
            energy_surrogate.predict_dist({features.begin(), features.end()});
        areas[i] = power::area_mm2(candidates[i]);
      }
    });
    std::vector<double> scores;
    std::vector<double> greedy(candidates.size());
    if (multi) {
      // Hypervolume-improvement acquisition: score each candidate by how
      // much its predicted (cycles, energy, area) point would grow the
      // front's dominated hypervolume. The acquisition rank uses an
      // optimistic mean − β·std prediction per surrogate (the
      // multi-objective analogue of LCB — a candidate scores high if it
      // *plausibly* lands in unclaimed objective space); the greedy share
      // uses the plain means.
      const auto front = ppa_rows(result.evaluated, options.app);
      const double base_hv = hypervolume(front, result.hv_reference);
      const double beta = options.acquisition.beta;
      scores.resize(candidates.size());
      service.parallel_for(candidates.size(), [&](std::size_t i) {
        const auto hvi = [&](double b) {
          auto pts = front;
          pts.push_back(
              {from_model_space(dists[i].mean - b * dists[i].std),
               from_model_space(energy_dists[i].mean - b * energy_dists[i].std),
               areas[i]});
          return hypervolume(pts, result.hv_reference) - base_hv;
        };
        scores[i] = hvi(beta);
        greedy[i] = hvi(0.0);
      });
    } else {
      // The incumbent best must live in the same space as the surrogate's
      // predictions for the improvement gap to mean anything.
      const double best =
          to_model_space(best_objective(result.evaluated));
      scores = acquisition_scores(options.acquisition, dists, best);
      for (std::size_t i = 0; i < dists.size(); ++i) greedy[i] = -dists[i].mean;
    }
    const double entropy = acquisition_entropy(scores);

    // Simulate only this round's batch (greedy + acquisition split).
    const auto top = select_batch(
        options, greedy, scores,
        static_cast<std::size_t>(std::min(options.batch_size, budget_left())));
    std::vector<config::CpuConfig> batch;
    batch.reserve(top.size());
    for (std::size_t idx : top) {
      simulated.insert(candidates[idx]);
      batch.push_back(candidates[idx]);
    }
    auto evaluated =
        evaluate_batch(options, batch, service, result.evaluated.size());
    result.evaluated.insert(result.evaluated.end(),
                            std::make_move_iterator(evaluated.begin()),
                            std::make_move_iterator(evaluated.end()));

    // Refit on the grown dataset and journal the round.
    refit();
    result.journal.rounds.push_back(make_record(
        round, result.evaluated, static_cast<int>(candidates.size()),
        surrogate.oob_mae(), entropy, watch.seconds(),
        journal_hypervolume(options, result.evaluated, result.hv_reference)));
    publish_round(result.journal.rounds.back(), batch.size());
    persist_journal(options, result.journal);

    if (options.verbose) {
      obs::logf(obs::LogLevel::kInfo,
                "[dse %s] round %d: %zu sims, best %.0f, oob %.0f, "
                "entropy %.2f\n",
                options.label.c_str(), round, result.evaluated.size(),
                result.journal.rounds.back().best_objective,
                surrogate.oob_mae(), entropy);
    }
  }

  finish(options, result);
  return result;
}

SearchResult random_search(const SearchOptions& options,
                           eval::EvalService& service) {
  check_options(options);
  const config::ParameterSpace space;
  config::SampleConstraints constraints;
  constraints.fixed_vector_length = options.fixed_vector_length;

  Rng rng(options.seed);

  SearchResult result;
  SeenSet simulated;

  const bool multi = multi_objective(options);
  int round = 0;
  while (static_cast<int>(result.evaluated.size()) < options.max_simulations) {
    Stopwatch watch;
    obs::Span span("dse.round", "dse");
    span.set_detail(
        [&] { return options.label + " #" + std::to_string(round); });
    const int want = std::min(options.batch_size,
                              options.max_simulations -
                                  static_cast<int>(result.evaluated.size()));
    const auto batch =
        distinct_uniform(space, want, simulated, rng, constraints);
    auto evaluated =
        evaluate_batch(options, batch, service, result.evaluated.size());
    result.evaluated.insert(result.evaluated.end(),
                            std::make_move_iterator(evaluated.begin()),
                            std::make_move_iterator(evaluated.end()));
    // Same freeze-after-seed reference policy as the guided search, so a
    // random baseline's hypervolume column is monotone and self-consistent
    // (cross-run comparisons should still recompute both curves against one
    // shared reference — see bench/10).
    if (multi && result.hv_reference.empty() &&
        static_cast<int>(result.evaluated.size()) >= options.initial_samples) {
      result.hv_reference = hv_reference_of(options, result.evaluated);
    }
    result.journal.rounds.push_back(make_record(
        round, result.evaluated, static_cast<int>(batch.size()), 0.0, 0.0,
        watch.seconds(),
        journal_hypervolume(options, result.evaluated, result.hv_reference)));
    publish_round(result.journal.rounds.back(), batch.size());
    persist_journal(options, result.journal);
    ++round;
  }

  finish(options, result);
  return result;
}

namespace {

/// Applies the options' thread policy: 0 = shared env-default service (memo
/// + store reuse across runs), positive = private hermetic service.
SearchResult run_with_policy(
    const SearchOptions& options,
    SearchResult (*run)(const SearchOptions&, eval::EvalService&)) {
  if (options.threads > 0) {
    eval::ServiceConfig eval_options;
    eval_options.threads = options.threads;
    eval::EvalService service(eval_options);
    return run(options, service);
  }
  return run(options, eval::EvalService::shared());
}

}  // namespace

SearchResult search(const SearchOptions& options) {
  return run_with_policy(options, &search);
}

SearchResult random_search(const SearchOptions& options) {
  return run_with_policy(options, &random_search);
}

}  // namespace adse::dse
