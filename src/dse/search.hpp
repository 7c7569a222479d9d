#pragma once
/// \file search.hpp
/// The surrogate-guided design-space search loop — the §VII step the paper
/// stops short of: instead of *explaining* a passively sampled campaign, use
/// the surrogate to *find* strong configurations with far fewer simulations.
///
/// Each round: (propose) draw a constraint-correct candidate pool — uniform
/// draws plus neighbourhood mutants of the incumbents; (score) rank the pool
/// with an uncertainty-aware acquisition over the forest surrogate's
/// predictive distribution; (simulate) run only the top-k candidates on the
/// thread pool; (refit) retrain the surrogate on the grown dataset and
/// journal the round's telemetry. The journal is published atomically under
/// the cache dir after every round, so a search is introspectable while
/// running. The search keeps no other state: it is deterministic, so a
/// killed or re-budgeted search resumes by running again, and every
/// simulation the earlier run paid for is a hit in the eval service's
/// result store.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/cpu_config.hpp"
#include "dse/acquisition.hpp"
#include "dse/candidates.hpp"
#include "dse/telemetry.hpp"
#include "kernels/workloads.hpp"
#include "ml/forest.hpp"

namespace adse::eval {
class EvalService;
class FusedModel;
}  // namespace adse::eval

namespace adse::dse {

enum class Objective {
  /// Minimise one application's simulated cycles.
  kSingleApp,
  /// Minimise the geometric mean of all four applications' cycles (the
  /// balanced-machine objective); per-app cycles are kept for Pareto fronts.
  kGeomeanAllApps,
  /// Multi-objective PPA mode: minimise (cycles, total energy, area) for the
  /// target app jointly. Rounds are driven by hypervolume improvement over
  /// two log-space surrogates (cycles, energy) plus the exact analytical
  /// area, against a reference point frozen after the seed batch; the
  /// journal's `hypervolume` column tracks the front's growth.
  kCyclesEnergyArea,
};

/// Forest defaults tuned for the search loop: enough trees for a stable
/// spread estimate, per-split feature subsampling for ensemble diversity.
ml::ForestOptions default_surrogate_options();

struct SearchOptions {
  std::string label = "dse";        ///< journal file key
  Objective objective = Objective::kSingleApp;
  kernels::App app = kernels::App::kStream;  ///< target for kSingleApp

  int max_simulations = 120;  ///< total configurations simulated (the budget)
  int initial_samples = 24;   ///< round-0 uniform batch that seeds the model
  int batch_size = 8;         ///< configurations simulated per round

  CandidateOptions candidates;
  AcquisitionOptions acquisition;
  ml::ForestOptions forest = default_surrogate_options();

  /// Fraction of each round's batch taken greedily at the lowest predicted
  /// mean; the remaining slots follow the acquisition ranking. Pure EI
  /// over-explores while the surrogate's spread still dwarfs the remaining
  /// improvement gap — the greedy share keeps the batch converging through
  /// that regime (in [0, 1]; 0 = pure acquisition, 1 = pure greedy).
  double exploit_fraction = 0.5;

  /// Pin the vector length (propagated to sampling and mutation).
  std::optional<int> fixed_vector_length;

  std::uint64_t seed = 42;
  /// Worker threads; 0 (the default) inherits the shared eval service (one
  /// process-wide ADSE_THREADS read, cross-run result reuse via its store).
  /// A positive value runs on a private, store-less service (hermetic tests).
  int threads = 0;
  bool verbose = false;
  /// Publish the journal CSV after every round. Off = fully in-memory
  /// (tests).
  bool persist = true;
  /// Fused-surrogate routing (DESIGN.md §14): when set, every evaluation
  /// batch goes through `EvalService::evaluate` with `EvalPolicy::fused` —
  /// high-confidence candidates are answered analytically, the rest (plus
  /// the periodic probes) still pay for real simulation and feed the
  /// model's online refits. Not owned. With the model's threshold at 0 the
  /// search is bit-identical to the plain all-sim path.
  eval::FusedModel* fused = nullptr;
};

/// One simulated configuration. In kSingleApp / kCyclesEnergyArea mode only
/// the target app's cycles/energy entries are populated (others stay 0).
struct EvaluatedConfig {
  config::CpuConfig config;
  std::array<double, kernels::kNumApps> cycles{};
  std::array<double, kernels::kNumApps> energy_j{};  ///< dynamic + leakage
  double area_mm2 = 0.0;                             ///< static silicon area
  double objective_value = 0.0;

  /// The (cycles, energy, area) objective vector HVI and the Pareto front
  /// minimise for `app` in kCyclesEnergyArea mode.
  std::vector<double> ppa(kernels::App app) const {
    const auto i = static_cast<std::size_t>(app);
    return {cycles[i], energy_j[i], area_mm2};
  }
};

struct SearchResult {
  std::vector<EvaluatedConfig> evaluated;  ///< in simulation order
  std::size_t best_index = 0;
  Journal journal;
  std::string journal_file;  ///< empty when persist was off

  const EvaluatedConfig& best() const { return evaluated[best_index]; }

  /// Best-so-far objective after each simulation — the sample-efficiency
  /// curve guided-vs-random comparisons plot.
  std::vector<double> best_so_far() const;

  /// Simulations spent before first reaching an objective <= `target`
  /// (evaluated.size() + 1 if never reached).
  std::size_t sims_to_reach(double target) const;

  /// Pareto front between two apps' cycle counts (kGeomeanAllApps runs
  /// only); returns indices into `evaluated`.
  std::vector<std::size_t> pareto_between(kernels::App a, kernels::App b) const;

  /// Pareto front over (cycles, energy, area) for one app
  /// (kCyclesEnergyArea runs); returns indices into `evaluated`.
  std::vector<std::size_t> pareto_ppa(kernels::App app) const;

  /// The (cycles, energy, area) rows `pareto_ppa` and `hypervolume` consume,
  /// one per evaluation, in simulation order.
  std::vector<std::vector<double>> ppa_points(kernels::App app) const;

  /// The frozen hypervolume reference point of a kCyclesEnergyArea run
  /// (empty otherwise). Fixed right after the seed batch so the journal's
  /// hypervolume column is monotone and comparable across rounds.
  std::vector<double> hv_reference;
};

/// Runs the surrogate-guided search; all simulations (and the parallel
/// surrogate scoring) dispatch through `service`.
SearchResult search(const SearchOptions& options, eval::EvalService& service);

/// Convenience: picks the service per the options' thread policy (see
/// SearchOptions::threads).
SearchResult search(const SearchOptions& options);

/// Pure uniform-random baseline at the same budget through the same
/// evaluation machinery (equal-cost comparison for bench/97).
SearchResult random_search(const SearchOptions& options,
                           eval::EvalService& service);
SearchResult random_search(const SearchOptions& options);

}  // namespace adse::dse
