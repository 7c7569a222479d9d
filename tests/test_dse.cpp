#include "dse/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include <unistd.h>

#include "campaign/campaign.hpp"
#include "common/env.hpp"
#include "common/require.hpp"
#include "dse/pareto.hpp"
#include "eval/service.hpp"

namespace adse::dse {
namespace {

// --- acquisition ------------------------------------------------------------

TEST(Acquisition, EiPrefersUncertaintyAtEqualMean) {
  // The satellite requirement: with equal means, EI must rank the
  // high-uncertainty candidate above the zero-uncertainty one.
  const double best = 100.0;
  const ml::PredictionDistribution certain{100.0, 0.0};
  const ml::PredictionDistribution uncertain{100.0, 10.0};
  AcquisitionOptions ei;
  EXPECT_GT(acquisition_score(ei, uncertain, best),
            acquisition_score(ei, certain, best));
}

TEST(Acquisition, EiZeroStdDegradesToClampedGap) {
  EXPECT_DOUBLE_EQ(expected_improvement(90.0, 0.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(expected_improvement(110.0, 0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(expected_improvement(95.0, 0.0, 100.0, 2.0), 3.0);
}

TEST(Acquisition, EiIsPositiveAndMonotoneInStd) {
  // Even a candidate predicted worse than the incumbent retains some EI
  // under uncertainty, and more spread means more of it.
  const double ei_small = expected_improvement(105.0, 1.0, 100.0);
  const double ei_large = expected_improvement(105.0, 20.0, 100.0);
  EXPECT_GT(ei_small, 0.0);
  EXPECT_GT(ei_large, ei_small);
}

TEST(Acquisition, EiRejectsNegativeStd) {
  EXPECT_THROW(expected_improvement(1.0, -0.1, 2.0), InvariantError);
}

TEST(Acquisition, LcbBalancesMeanAndSpread) {
  AcquisitionOptions lcb;
  lcb.kind = AcquisitionKind::kLowerConfidenceBound;
  lcb.beta = 2.0;
  // -(mean - beta*std): 90 certain scores -90; 100 with std 10 scores -80.
  EXPECT_GT(acquisition_score(lcb, {100.0, 10.0}, 0.0),
            acquisition_score(lcb, {90.0, 0.0}, 0.0));
}

TEST(Acquisition, GreedyIgnoresUncertainty) {
  AcquisitionOptions greedy;
  greedy.kind = AcquisitionKind::kGreedy;
  EXPECT_DOUBLE_EQ(acquisition_score(greedy, {50.0, 100.0}, 0.0),
                   acquisition_score(greedy, {50.0, 0.0}, 0.0));
  EXPECT_GT(acquisition_score(greedy, {40.0, 0.0}, 0.0),
            acquisition_score(greedy, {50.0, 0.0}, 0.0));
}

TEST(Acquisition, Names) {
  EXPECT_EQ(acquisition_name(AcquisitionKind::kExpectedImprovement), "ei");
  EXPECT_EQ(acquisition_name(AcquisitionKind::kLowerConfidenceBound), "lcb");
  EXPECT_EQ(acquisition_name(AcquisitionKind::kGreedy), "greedy");
}

TEST(Acquisition, EntropyBoundsAndOrdering) {
  // Uniform scores: maximal entropy ln(n). One dominant score: near zero.
  const double uniform = acquisition_entropy({1.0, 1.0, 1.0, 1.0});
  EXPECT_NEAR(uniform, std::log(4.0), 1e-12);
  const double peaked = acquisition_entropy({0.0, 0.0, 0.0, 100.0});
  EXPECT_NEAR(peaked, 0.0, 1e-12);
  const double mixed = acquisition_entropy({1.0, 2.0, 3.0, 100.0});
  EXPECT_GT(uniform, mixed);
  EXPECT_GT(mixed, peaked);
  // All-equal-after-shift degenerates to the undecided maximum.
  EXPECT_NEAR(acquisition_entropy({5.0, 5.0}), std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(acquisition_entropy({}), 0.0);
}

TEST(Acquisition, TopKSelectsHighestScores) {
  const std::vector<double> scores{0.1, 5.0, 3.0, 5.0, 4.0};
  const auto top = top_k_indices(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // tie with index 3 broken by lower index
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 4u);
  EXPECT_EQ(top_k_indices(scores, 99).size(), scores.size());
}

// --- pareto -----------------------------------------------------------------

TEST(Pareto, DominanceIsStrictSomewhere) {
  EXPECT_TRUE(dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(dominates({2, 2}, {2, 2}));  // identical: no domination
  EXPECT_FALSE(dominates({1, 3}, {2, 2}));  // trade-off
  EXPECT_THROW(dominates({1}, {1, 2}), InvariantError);
}

TEST(Pareto, FrontKeepsNonDominatedPoints) {
  const std::vector<std::vector<double>> points{
      {1, 5}, {2, 2}, {5, 1}, {3, 3}, {6, 6}};
  // {3,3} is dominated by {2,2}; {6,6} by everything else.
  EXPECT_EQ(pareto_front(points), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Pareto, DuplicatesAllSurvive) {
  const std::vector<std::vector<double>> points{{1, 1}, {1, 1}, {2, 2}};
  EXPECT_EQ(pareto_front(points), (std::vector<std::size_t>{0, 1}));
}

// --- hypervolume ------------------------------------------------------------

TEST(Hypervolume, TwoDExactRectanglesAndUnions) {
  const std::vector<double> ref{4, 4};
  // One point: a single rectangle up to the reference.
  EXPECT_DOUBLE_EQ(hypervolume({{2, 2}}, ref), 4.0);
  // Staircase of two trade-off points: 2x3 + 1x1 strips.
  EXPECT_DOUBLE_EQ(hypervolume({{2, 1}, {1, 3}}, ref), 7.0);
  // A dominated point adds nothing.
  EXPECT_DOUBLE_EQ(hypervolume({{2, 1}, {1, 3}, {3, 3}}, ref), 7.0);
  EXPECT_DOUBLE_EQ(hypervolume({}, ref), 0.0);
}

TEST(Hypervolume, DuplicatesAddNothing) {
  const std::vector<double> ref{4, 4};
  EXPECT_DOUBLE_EQ(hypervolume({{2, 2}, {2, 2}, {2, 2}}, ref), 4.0);
  const std::vector<double> ref3{4, 4, 4};
  EXPECT_DOUBLE_EQ(hypervolume({{2, 2, 2}, {2, 2, 2}}, ref3), 8.0);
}

TEST(Hypervolume, ReferenceClipping) {
  const std::vector<double> ref{4, 4};
  // At or beyond the reference in any coordinate: zero contribution.
  EXPECT_DOUBLE_EQ(hypervolume({{4, 1}}, ref), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume({{1, 5}}, ref), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume({{5, 5}}, ref), 0.0);
  // A clipped point must not shrink what the others dominate.
  EXPECT_DOUBLE_EQ(hypervolume({{2, 2}, {9, 1}}, ref), 4.0);
}

TEST(Hypervolume, ThreeDExactBoxesAndSweep) {
  const std::vector<double> ref{4, 4, 4};
  EXPECT_DOUBLE_EQ(hypervolume({{2, 2, 2}}, ref), 8.0);
  // Two disjointly-dominating points: inclusion-exclusion by hand.
  // A=(1,3,3): box 3x1x1 = 3;  B=(3,1,1): box 1x3x3 = 9;
  // overlap = (4-3)x(4-3)x(4-3) = 1  ->  union = 11.
  EXPECT_DOUBLE_EQ(hypervolume({{1, 3, 3}, {3, 1, 1}}, ref), 11.0);
  // Dominated point adds nothing in 3-D either.
  EXPECT_DOUBLE_EQ(hypervolume({{1, 3, 3}, {3, 1, 1}, {3, 3, 3}}, ref), 11.0);
}

TEST(Hypervolume, MonotoneInAddedPoints) {
  const std::vector<double> ref{10, 10, 10};
  std::vector<std::vector<double>> points;
  Rng rng(11);
  double prev = 0.0;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.uniform_real(0.0, 12.0), rng.uniform_real(0.0, 12.0),
                      rng.uniform_real(0.0, 12.0)});
    const double hv = hypervolume(points, ref);
    EXPECT_GE(hv, prev - 1e-12);
    EXPECT_LE(hv, 1000.0 + 1e-9);  // bounded by the reference box
    prev = hv;
  }
}

TEST(Hypervolume, RejectsUnsupportedWidths) {
  EXPECT_THROW(hypervolume({{1}}, {4}), InvariantError);
  EXPECT_THROW(hypervolume({{1, 2, 3, 4}}, {5, 5, 5, 5}), InvariantError);
  EXPECT_THROW(hypervolume({{1, 2}}, {4, 4, 4}), InvariantError);
}

// --- candidates -------------------------------------------------------------

TEST(Candidates, SeenSetDeduplicates) {
  const config::ParameterSpace space;
  Rng rng(41);
  SeenSet seen;
  const config::CpuConfig c = space.sample(rng);
  EXPECT_FALSE(seen.contains(c));
  EXPECT_TRUE(seen.insert(c));
  EXPECT_FALSE(seen.insert(c));
  EXPECT_TRUE(seen.contains(c));
  EXPECT_EQ(seen.size(), 1u);
}

TEST(Candidates, PoolIsValidAndDeduplicated) {
  const config::ParameterSpace space;
  Rng rng(42);
  SeenSet simulated;
  std::vector<config::CpuConfig> incumbents;
  for (int i = 0; i < 3; ++i) {
    incumbents.push_back(space.sample(rng));
    simulated.insert(incumbents.back());
  }
  CandidateOptions options;
  options.uniform_draws = 50;
  options.num_incumbents = 3;
  options.mutants_per_incumbent = 10;
  const auto pool = generate_candidates(space, options, incumbents, simulated,
                                        rng);
  EXPECT_GT(pool.size(), 40u);
  SeenSet unique;
  for (const auto& c : pool) {
    EXPECT_TRUE(config::is_valid(c));
    EXPECT_FALSE(simulated.contains(c));  // never re-propose a simulated point
    EXPECT_TRUE(unique.insert(c));        // no duplicates within the pool
  }
}

TEST(Candidates, RespectsPinnedVectorLength) {
  const config::ParameterSpace space;
  Rng rng(43);
  config::SampleConstraints constraints;
  constraints.fixed_vector_length = 512;
  SeenSet simulated;
  std::vector<config::CpuConfig> incumbents{space.sample(rng, constraints)};
  CandidateOptions options;
  options.uniform_draws = 30;
  options.mutants_per_incumbent = 15;
  const auto pool = generate_candidates(space, options, incumbents, simulated,
                                        rng, constraints);
  for (const auto& c : pool) EXPECT_EQ(c.core.vector_length_bits, 512);
}

// --- telemetry --------------------------------------------------------------

Journal sample_journal() {
  Journal journal;
  for (int r = 0; r < 3; ++r) {
    RoundRecord record;
    record.round = r;
    record.sims_total = 24 + 8 * r;
    record.pool_size = 400 + r;
    record.best_objective = 50000.0 - 1000.0 * r;
    record.surrogate_oob_mae = 4000.0 / (r + 1);
    record.acquisition_entropy = 5.0 - r;
    record.round_seconds = 0.25 * (r + 1);
    journal.rounds.push_back(record);
  }
  return journal;
}

TEST(Telemetry, TableRoundTrip) {
  const Journal journal = sample_journal();
  const Journal back = Journal::from_table(journal.to_table());
  ASSERT_EQ(back.rounds.size(), journal.rounds.size());
  for (std::size_t i = 0; i < journal.rounds.size(); ++i) {
    EXPECT_EQ(back.rounds[i].round, journal.rounds[i].round);
    EXPECT_EQ(back.rounds[i].sims_total, journal.rounds[i].sims_total);
    EXPECT_EQ(back.rounds[i].pool_size, journal.rounds[i].pool_size);
    EXPECT_DOUBLE_EQ(back.rounds[i].best_objective,
                     journal.rounds[i].best_objective);
    EXPECT_DOUBLE_EQ(back.rounds[i].surrogate_oob_mae,
                     journal.rounds[i].surrogate_oob_mae);
    EXPECT_DOUBLE_EQ(back.rounds[i].acquisition_entropy,
                     journal.rounds[i].acquisition_entropy);
    EXPECT_DOUBLE_EQ(back.rounds[i].round_seconds,
                     journal.rounds[i].round_seconds);
  }
}

TEST(Telemetry, FileRoundTripAndSchemaCheck) {
  const auto dir = std::filesystem::temp_directory_path() / "adse_dse_journal";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "journal.csv").string();
  const Journal journal = sample_journal();
  write_journal(path, journal);
  EXPECT_TRUE(file_exists(path));
  const Journal back = load_journal(path);
  EXPECT_EQ(back.rounds.size(), 3u);

  CsvTable bad;
  bad.columns = {"nope"};
  bad.rows = {{1.0}};
  EXPECT_THROW(Journal::from_table(bad), InvariantError);
  EXPECT_THROW(load_journal((dir / "missing.csv").string()), InvariantError);
  std::filesystem::remove_all(dir);
}

// --- search loop ------------------------------------------------------------

SearchOptions smoke_options() {
  SearchOptions options;
  options.label = "smoke";
  options.app = kernels::App::kStream;
  options.max_simulations = 28;
  options.initial_samples = 12;
  options.batch_size = 8;
  options.candidates.uniform_draws = 40;
  options.candidates.mutants_per_incumbent = 8;
  options.candidates.num_incumbents = 3;
  options.forest.num_trees = 15;
  options.seed = 5;
  options.threads = 2;
  options.persist = false;
  return options;
}

TEST(Search, SpendsExactlyTheBudgetAndJournalsEveryRound) {
  const SearchResult result = search(smoke_options());
  EXPECT_EQ(result.evaluated.size(), 28u);
  // 12 initial + ceil(16 / 8) guided rounds.
  ASSERT_EQ(result.journal.rounds.size(), 3u);
  EXPECT_EQ(result.journal.rounds.front().sims_total, 12);
  EXPECT_EQ(result.journal.rounds.back().sims_total, 28);
  for (const auto& r : result.journal.rounds) {
    EXPECT_GT(r.best_objective, 0.0);
    EXPECT_GE(r.round_seconds, 0.0);
  }
  // Guided rounds score a real pool and a fitted surrogate.
  EXPECT_GT(result.journal.rounds.back().pool_size, 0);
  EXPECT_GT(result.journal.rounds.back().surrogate_oob_mae, 0.0);
  EXPECT_TRUE(result.journal_file.empty());  // persist was off
}

TEST(Search, BestIndexAndCurveAreConsistent) {
  const SearchResult result = search(smoke_options());
  const auto curve = result.best_so_far();
  ASSERT_EQ(curve.size(), result.evaluated.size());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1]);  // monotone non-increasing
  }
  EXPECT_DOUBLE_EQ(curve.back(), result.best().objective_value);
  EXPECT_EQ(result.sims_to_reach(result.best().objective_value),
            result.best_index + 1);
  EXPECT_EQ(result.sims_to_reach(0.0), result.evaluated.size() + 1);
  // Journal's best matches the curve's.
  EXPECT_DOUBLE_EQ(result.journal.rounds.back().best_objective, curve.back());
}

TEST(Search, DeterministicAcrossThreadCounts) {
  SearchOptions one = smoke_options();
  one.threads = 1;
  SearchOptions four = smoke_options();
  four.threads = 4;
  const SearchResult a = search(one);
  const SearchResult b = search(four);
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.evaluated[i].objective_value,
                     b.evaluated[i].objective_value);
    EXPECT_EQ(config::feature_vector(a.evaluated[i].config),
              config::feature_vector(b.evaluated[i].config));
  }
}

TEST(Search, EveryEvaluatedConfigIsValidAndUnique) {
  const SearchResult result = search(smoke_options());
  SeenSet seen;
  for (const auto& e : result.evaluated) {
    EXPECT_TRUE(config::is_valid(e.config));
    EXPECT_TRUE(seen.insert(e.config));  // budget never spent twice
    EXPECT_DOUBLE_EQ(
        e.objective_value,
        e.cycles[static_cast<std::size_t>(kernels::App::kStream)]);
  }
}

TEST(Search, MultiObjectiveModeKeepsPerAppCyclesAndPareto) {
  SearchOptions options = smoke_options();
  options.objective = Objective::kGeomeanAllApps;
  options.max_simulations = 16;
  options.initial_samples = 10;
  options.batch_size = 6;
  const SearchResult result = search(options);
  EXPECT_EQ(result.evaluated.size(), 16u);
  for (const auto& e : result.evaluated) {
    for (double c : e.cycles) EXPECT_GT(c, 0.0);
  }
  const auto front =
      result.pareto_between(kernels::App::kStream, kernels::App::kMiniBude);
  EXPECT_GE(front.size(), 1u);
  // The best-geomean point cannot be dominated in every pair... but it CAN
  // be off a 2-app front; what must hold is that every front member is
  // non-dominated, i.e. the front of the front is itself.
  std::vector<std::vector<double>> front_points;
  for (std::size_t idx : front) {
    front_points.push_back(
        {result.evaluated[idx]
             .cycles[static_cast<std::size_t>(kernels::App::kStream)],
         result.evaluated[idx]
             .cycles[static_cast<std::size_t>(kernels::App::kMiniBude)]});
  }
  const auto refined = pareto_front(front_points);
  EXPECT_EQ(refined.size(), front_points.size());
}

TEST(Search, PpaModeFillsEnergyAreaAndGrowsHypervolume) {
  SearchOptions options = smoke_options();
  options.objective = Objective::kCyclesEnergyArea;
  options.max_simulations = 20;
  options.initial_samples = 10;
  options.batch_size = 5;
  const SearchResult result = search(options);
  EXPECT_EQ(result.evaluated.size(), 20u);

  const auto app = static_cast<std::size_t>(options.app);
  for (const auto& e : result.evaluated) {
    EXPECT_GT(e.cycles[app], 0.0);
    EXPECT_GT(e.energy_j[app], 0.0);
    EXPECT_GT(e.area_mm2, 0.0);
    EXPECT_DOUBLE_EQ(e.objective_value, e.cycles[app]);  // incumbent metric
    ASSERT_EQ(e.ppa(options.app).size(), 3u);
  }

  // Reference frozen after the seed batch: covers (with 20% pad) every seed
  // point, and the journal's hypervolume column is monotone non-decreasing
  // with a positive final value.
  ASSERT_EQ(result.hv_reference.size(), 3u);
  for (int i = 0; i < 10; ++i) {
    const auto p = result.evaluated[static_cast<std::size_t>(i)].ppa(options.app);
    for (std::size_t d = 0; d < 3; ++d) EXPECT_LT(p[d], result.hv_reference[d]);
  }
  ASSERT_GE(result.journal.rounds.size(), 2u);
  double prev = 0.0;
  for (const auto& r : result.journal.rounds) {
    EXPECT_GE(r.hypervolume, prev * (1.0 - 1e-12));
    prev = r.hypervolume;
  }
  EXPECT_GT(result.journal.rounds.back().hypervolume, 0.0);
  EXPECT_DOUBLE_EQ(
      result.journal.rounds.back().hypervolume,
      hypervolume(result.ppa_points(options.app), result.hv_reference));

  // The front is non-empty and mutually non-dominated.
  const auto front = result.pareto_ppa(options.app);
  EXPECT_GE(front.size(), 1u);
  std::vector<std::vector<double>> front_points;
  for (std::size_t idx : front) {
    front_points.push_back(result.evaluated[idx].ppa(options.app));
  }
  EXPECT_EQ(pareto_front(front_points).size(), front_points.size());
}

TEST(Search, PpaModeRandomBaselineRecordsHypervolume) {
  SearchOptions options = smoke_options();
  options.objective = Objective::kCyclesEnergyArea;
  options.max_simulations = 16;
  options.initial_samples = 8;
  options.batch_size = 8;
  const SearchResult result = random_search(options);
  EXPECT_EQ(result.evaluated.size(), 16u);
  ASSERT_EQ(result.hv_reference.size(), 3u);
  ASSERT_FALSE(result.journal.rounds.empty());
  EXPECT_GT(result.journal.rounds.back().hypervolume, 0.0);
}

TEST(Search, SingleObjectiveModeRejectsPpaFront) {
  const SearchResult result = search(smoke_options());
  EXPECT_TRUE(result.hv_reference.empty());
  for (const auto& r : result.journal.rounds) {
    EXPECT_DOUBLE_EQ(r.hypervolume, 0.0);
  }
  // Energy/area are recorded even in single-objective mode (the eval
  // results carry them for free), so pareto_ppa still works for the target
  // app — but the untargeted apps' columns stay empty.
  for (const auto& e : result.evaluated) {
    EXPECT_GT(e.energy_j[static_cast<std::size_t>(kernels::App::kStream)], 0.0);
    EXPECT_DOUBLE_EQ(
        e.energy_j[static_cast<std::size_t>(kernels::App::kMiniBude)], 0.0);
  }
  EXPECT_THROW(result.pareto_ppa(kernels::App::kMiniBude), InvariantError);
}

TEST(Search, SingleAppModeRejectsPareto) {
  const SearchResult result = search(smoke_options());
  EXPECT_THROW(
      result.pareto_between(kernels::App::kStream, kernels::App::kMiniBude),
      InvariantError);
}

std::uint64_t sim_runs(eval::EvalService& service) {
  return service.metrics().counter("eval.sim_runs").value();
}

std::filesystem::path unique_temp_dir(const std::string& stem) {
  return std::filesystem::temp_directory_path() /
         (stem + "_" + std::to_string(::getpid()));
}

TEST(Search, WiderBudgetRerunReplaysFromTheStore) {
  // A search keeps no state of its own: rerunning it with a wider budget
  // replays the earlier rounds as result-store hits and simulates only the
  // new work, and the answer is the uninterrupted search's.
  const auto dir = unique_temp_dir("adse_dse_rerun");
  std::filesystem::remove_all(dir);
  eval::ServiceConfig config;
  config.threads = 2;
  config.store_path = (dir / "eval_store.bin").string();

  SearchOptions options = smoke_options();  // 12 seed sims, rounds of 8
  options.max_simulations = 20;
  {
    eval::EvalService first(config);
    EXPECT_EQ(search(options, first).evaluated.size(), 20u);
    EXPECT_EQ(sim_runs(first), 20u);
  }
  options.max_simulations = 26;
  eval::EvalService second(config);
  const SearchResult resumed = search(options, second);
  EXPECT_EQ(sim_runs(second), 6u);

  const SearchResult uninterrupted = search(options);  // store-less service
  ASSERT_EQ(resumed.evaluated.size(), 26u);
  ASSERT_EQ(uninterrupted.evaluated.size(), 26u);
  for (std::size_t i = 0; i < 26; ++i) {
    const EvaluatedConfig& a = resumed.evaluated[i];
    const EvaluatedConfig& b = uninterrupted.evaluated[i];
    EXPECT_EQ(config::feature_vector(a.config),
              config::feature_vector(b.config));
    EXPECT_EQ(a.cycles, b.cycles) << i;
    EXPECT_EQ(a.energy_j, b.energy_j) << i;
    EXPECT_EQ(a.area_mm2, b.area_mm2) << i;
    EXPECT_EQ(a.objective_value, b.objective_value) << i;
  }
  EXPECT_EQ(resumed.best_index, uninterrupted.best_index);
  // The rerun's journal holds every round, the replayed ones included.
  ASSERT_EQ(resumed.journal.rounds.size(), 3u);
  ASSERT_EQ(uninterrupted.journal.rounds.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    const RoundRecord& a = resumed.journal.rounds[r];
    const RoundRecord& b = uninterrupted.journal.rounds[r];
    EXPECT_EQ(a.round, static_cast<int>(r));
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.sims_total, b.sims_total);
    EXPECT_EQ(a.pool_size, b.pool_size);
    EXPECT_EQ(a.best_objective, b.best_objective);
    EXPECT_EQ(a.surrogate_oob_mae, b.surrogate_oob_mae);
    EXPECT_EQ(a.acquisition_entropy, b.acquisition_entropy);
  }
  EXPECT_EQ(resumed.journal.rounds.back().sims_total, 26);

  std::filesystem::remove_all(dir);
}

TEST(Search, CacheDirHoldsOnlyTheStoreAndTheJournal) {
  // Campaigns and searches persist nothing of their own beyond the search
  // journal: every simulation answer lives in the eval service's store.
  const auto dir = unique_temp_dir("adse_dse_cache_dir");
  std::filesystem::remove_all(dir);
  setenv("ADSE_CACHE_DIR", dir.string().c_str(), 1);
  {
    eval::ServiceConfig config;
    config.threads = 2;
    config.store_path = cache_dir() + "/eval_store.bin";
    eval::EvalService service(config);

    campaign::CampaignSpec spec;
    spec.label = "cache_dir";
    spec.num_configs = 4;
    spec.verbose = false;
    campaign::run_campaign(spec, service);

    SearchOptions options = smoke_options();
    options.label = "cache_dir";
    options.persist = true;
    options.max_simulations = 14;
    const SearchResult result = search(options, service);
    EXPECT_EQ(result.journal_file, journal_path("cache_dir"));
    EXPECT_EQ(load_journal(result.journal_file).rounds.size(),
              result.journal.rounds.size());
  }
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"dse_cache_dir_journal.csv",
                                             "eval_store.bin"}));

  unsetenv("ADSE_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST(Search, RandomSearchSpendsSameBudget) {
  SearchOptions options = smoke_options();
  const SearchResult guided = search(options);
  const SearchResult random = random_search(options);
  EXPECT_EQ(random.evaluated.size(), guided.evaluated.size());
  for (const auto& e : random.evaluated) {
    EXPECT_TRUE(config::is_valid(e.config));
    EXPECT_GT(e.objective_value, 0.0);
  }
  // Random rounds carry no surrogate telemetry.
  for (const auto& r : random.journal.rounds) {
    EXPECT_DOUBLE_EQ(r.surrogate_oob_mae, 0.0);
    EXPECT_DOUBLE_EQ(r.acquisition_entropy, 0.0);
  }
}

TEST(Search, RejectsDegenerateOptions) {
  SearchOptions options = smoke_options();
  options.max_simulations = 1;
  EXPECT_THROW(search(options), InvariantError);
  options = smoke_options();
  options.batch_size = 0;
  EXPECT_THROW(search(options), InvariantError);
  options = smoke_options();
  options.initial_samples = 1;
  EXPECT_THROW(random_search(options), InvariantError);
  options = smoke_options();
  options.exploit_fraction = -0.1;
  EXPECT_THROW(search(options), InvariantError);
  options = smoke_options();
  options.exploit_fraction = 1.5;
  EXPECT_THROW(search(options), InvariantError);
}

TEST(Search, PureGreedyAndPureAcquisitionBatchesBothRun) {
  SearchOptions greedy = smoke_options();
  greedy.exploit_fraction = 1.0;
  EXPECT_EQ(search(greedy).evaluated.size(),
            static_cast<std::size_t>(greedy.max_simulations));
  SearchOptions acquisition_only = smoke_options();
  acquisition_only.exploit_fraction = 0.0;
  EXPECT_EQ(search(acquisition_only).evaluated.size(),
            static_cast<std::size_t>(acquisition_only.max_simulations));
}

}  // namespace
}  // namespace adse::dse
