#include "eval/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "config/baselines.hpp"
#include "config/param_space.hpp"
#include "eval/fused.hpp"
#include "eval/result_store.hpp"
#include "power/power_model.hpp"
#include "sim/simulation.hpp"
#include "sim/stats_report.hpp"

namespace adse::eval {
namespace {

/// Deterministic fake backend that counts how many lanes it actually runs —
/// the probe for the service's dedup guarantees.
class CountingBackend final : public Backend {
 public:
  explicit CountingBackend(std::string key = "mock") : key_(std::move(key)) {}

  const std::string& key() const override { return key_; }

  std::vector<sim::RunResult> run_batch(
      std::span<const config::CpuConfig> configs, kernels::App app,
      const sim::Trace&) const override {
    runs_.fetch_add(configs.size(), std::memory_order_relaxed);
    // Widen the race window so concurrent identical requests really overlap.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::vector<sim::RunResult> results(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      results[i].core.cycles =
          1000 + static_cast<std::uint64_t>(app) * 10 +
          static_cast<std::uint64_t>(configs[i].core.rob_size);
      results[i].core.retired = 17;
      results[i].mem.l1_hits = 5;
    }
    return results;
  }

  std::uint64_t runs() const { return runs_.load(); }

 private:
  std::string key_;
  mutable std::atomic<std::uint64_t> runs_{0};
};

EvalRequest stream_request() {
  return {config::thunderx2_baseline(), kernels::App::kStream};
}

/// Hermetic service options: explicit thread count, optional on-disk store.
ServiceConfig hermetic(int threads, std::string store_path = {}) {
  ServiceConfig options;
  options.threads = threads;
  options.store_path = std::move(store_path);
  return options;
}

/// One request through the service's pipeline, on `backend` (default: the
/// cycle simulator).
EvalResponse evaluate_alone(EvalService& service, const EvalRequest& request,
                          const Backend* backend = nullptr) {
  EvalPolicy policy;
  policy.backend = backend;
  return service.evaluate({&request, 1}, policy).front();
}

/// A registry counter of `service` ("eval.backend_runs", ...).
std::uint64_t count(const EvalService& service, const char* name) {
  return service.metrics().counter(name).value();
}

/// A sampled store gauge of `service` ("eval.store_appended", ...),
/// refreshed first.
std::uint64_t store_gauge(EvalService& service, const char* name) {
  service.flush();
  return static_cast<std::uint64_t>(service.metrics().gauge(name).value());
}

TEST(EvalService, ConcurrentIdenticalRequestsRunBackendOnce) {
  EvalService service(hermetic(4));
  CountingBackend backend;
  const EvalRequest request = stream_request();

  constexpr int kThreads = 8;
  std::vector<EvalResponse> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          evaluate_alone(service, request, &backend);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(backend.runs(), 1u);
  for (const EvalResponse& r : results) {
    EXPECT_EQ(r.cycles(), results.front().cycles());
    EXPECT_EQ(r.run.core.retired, 17u);
    EXPECT_EQ(r.run.app, "stream");
    EXPECT_EQ(r.run.config_name, request.config.name);
  }
  EXPECT_EQ(count(service, "eval.requests"),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(count(service, "eval.backend_runs"), 1u);
  EXPECT_EQ(count(service, "eval.memo_hits") +
                count(service, "eval.inflight_joins"),
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(EvalService, BatchDuplicatesCollapse) {
  EvalService service(hermetic(4));
  CountingBackend backend;
  const std::vector<EvalRequest> requests(12, stream_request());

  EvalPolicy policy;
  policy.backend = &backend;
  const auto results = service.evaluate(requests, policy);
  ASSERT_EQ(results.size(), 12u);
  EXPECT_EQ(backend.runs(), 1u);
  for (const EvalResponse& r : results) {
    EXPECT_EQ(r.cycles(), results.front().cycles());
  }
}

TEST(EvalService, MemoServesRepeats) {
  EvalService service(hermetic(1));
  CountingBackend backend;

  const EvalResponse first =
      evaluate_alone(service, stream_request(), &backend);
  const EvalResponse again =
      evaluate_alone(service, stream_request(), &backend);
  EXPECT_EQ(first.source, ResultSource::kBackend);
  EXPECT_EQ(again.source, ResultSource::kMemo);
  EXPECT_EQ(again.cycles(), first.cycles());
  EXPECT_EQ(backend.runs(), 1u);
}

TEST(EvalService, DistinctPointsAndBackendsDoNotAlias) {
  EvalService service(hermetic(2));
  CountingBackend a("mock-a");
  CountingBackend b("mock-b");

  EvalRequest stream = stream_request();
  EvalRequest bude{config::thunderx2_baseline(), kernels::App::kMiniBude};
  evaluate_alone(service, stream, &a);
  evaluate_alone(service, bude, &a);   // different app: fresh run
  evaluate_alone(service, stream, &b); // different backend: fresh run
  EXPECT_EQ(a.runs(), 2u);
  EXPECT_EQ(b.runs(), 1u);
  EXPECT_EQ(count(service, "eval.backend_runs"), 3u);
}

TEST(EvalService, MatchesDirectSimulation) {
  EvalService service(hermetic(1));
  const config::CpuConfig cpu = config::thunderx2_baseline();

  const sim::RunResult direct = sim::simulate_app(cpu, kernels::App::kStream);
  const EvalResponse served = evaluate_alone(service, stream_request());
  EXPECT_EQ(served.run.core.cycles, direct.core.cycles);
  EXPECT_EQ(served.run.core.retired, direct.core.retired);
  EXPECT_EQ(served.run.mem.l1_hits, direct.mem.l1_hits);
  EXPECT_EQ(served.run.mem.ram_requests, direct.mem.ram_requests);
  EXPECT_EQ(served.run.app, direct.app);
  EXPECT_EQ(served.run.config_name, direct.config_name);

  // A memo hit reproduces the same result, labels included.
  const EvalResponse memo = evaluate_alone(service, stream_request());
  EXPECT_EQ(memo.source, ResultSource::kMemo);
  EXPECT_EQ(memo.run.core.cycles, direct.core.cycles);
  EXPECT_EQ(memo.run.app, direct.app);
  EXPECT_EQ(memo.run.config_name, direct.config_name);
}

TEST(EvalService, StoreReuseAcrossServices) {
  const auto dir = std::filesystem::temp_directory_path() / "adse_eval_reuse";
  std::filesystem::remove_all(dir);
  const std::string store = (dir / "eval_store.bin").string();

  CountingBackend first_backend;
  {
    EvalService service(hermetic(1, store));
    evaluate_alone(service, stream_request(), &first_backend);
    EXPECT_EQ(store_gauge(service, "eval.store_appended"), 1u);
  }
  EXPECT_EQ(first_backend.runs(), 1u);

  // A new service on the same store serves the point from disk — zero
  // backend runs, identical counters.
  CountingBackend second_backend;
  EvalService warm(hermetic(1, store));
  const EvalResponse served =
      evaluate_alone(warm, stream_request(), &second_backend);
  EXPECT_EQ(served.source, ResultSource::kStore);
  EXPECT_EQ(second_backend.runs(), 0u);
  EXPECT_EQ(served.run.core.retired, 17u);
  EXPECT_EQ(served.run.mem.l1_hits, 5u);
  EXPECT_EQ(store_gauge(warm, "eval.store_loaded"), 1u);
  EXPECT_EQ(count(warm, "eval.store_hits"), 1u);
  EXPECT_EQ(count(warm, "eval.backend_runs"), 0u);

  std::filesystem::remove_all(dir);
}

/// Makes `model` ready for kStream by feeding `n` distinct synthetic
/// observations (rob_size varied; cycles = analytical bound × residual(i)).
/// Pick min_observations == n so the single refit trains on every row.
void train_stream(FusedModel& model, int n, double (*residual)(int)) {
  for (int i = 0; i < n; ++i) {
    config::CpuConfig cfg = config::thunderx2_baseline();
    cfg.core.rob_size = 64 + 16 * i;
    const double bound =
        model.predict(kernels::App::kStream, cfg).analytical_min;
    model.observe(kernels::App::kStream, cfg, bound * std::exp(residual(i)));
  }
}

/// Fused options under which every allow_surrogate request of a ready app
/// is answered by the model: no probe clock, and a threshold no spread
/// reaches.
FusedOptions answer_everything(int min_observations) {
  FusedOptions options;
  options.forest.num_trees = 3;
  options.min_observations = min_observations;
  options.probe_every = 0;
  options.threshold = 1e9;
  return options;
}

/// The cycles a surrogate answer carries for `prediction`.
std::uint64_t served_cycles(const FusedPrediction& prediction) {
  return static_cast<std::uint64_t>(
      std::llround(std::max(prediction.cycles, 1.0)));
}

TEST(EvalService, RoutedSurrogateAnswersAreNotPersisted) {
  const auto dir = std::filesystem::temp_directory_path() / "adse_eval_fused";
  std::filesystem::remove_all(dir);
  const std::string store = (dir / "eval_store.bin").string();

  FusedModel model(answer_everything(6));
  train_stream(model, 6,
               [](int i) { return 0.5 + 0.01 * static_cast<double>(i); });
  EXPECT_GE(model.refits(), 1u);
  EvalPolicy routed;
  routed.fused = &model;
  const std::vector<EvalRequest> request = {stream_request()};

  {
    EvalService service(hermetic(1, store));
    const EvalResponse predicted = service.evaluate(request, routed)[0];
    EXPECT_GE(predicted.cycles(), 1u);
    EXPECT_EQ(predicted.source, ResultSource::kBackend);
    EXPECT_EQ(service.metrics().counter("eval.routed_surrogate").value(), 1u);
    // Model output must never reach the on-disk store.
    EXPECT_EQ(store_gauge(service, "eval.store_appended"), 0u);
    // But it is memoised like any backend's answer.
    EXPECT_EQ(service.evaluate(request, routed)[0].source,
              ResultSource::kMemo);
    // A real simulator run of the very same point IS persisted — the store
    // now holds this (config, app) under the simulator's key only.
    evaluate_alone(service, stream_request());
    EXPECT_EQ(store_gauge(service, "eval.store_appended"), 1u);
  }

  // The warm store must not satisfy surrogate keys: the same routed request
  // is answered by the model afresh instead of aliasing the persisted
  // simulator record.
  EvalService warm(hermetic(1, store));
  EXPECT_EQ(store_gauge(warm, "eval.store_loaded"), 1u);
  const EvalResponse served = warm.evaluate(request, routed)[0];
  EXPECT_EQ(served.source, ResultSource::kBackend);
  EXPECT_EQ(warm.metrics().counter("eval.routed_surrogate").value(), 1u);
  EXPECT_EQ(count(warm, "eval.store_hits"), 0u);
  // While the simulator-keyed request still hits the disk record.
  EXPECT_EQ(evaluate_alone(warm, stream_request()).source,
            ResultSource::kStore);

  std::filesystem::remove_all(dir);
}

TEST(EvalService, SurrogateAnswersAreMemoisedPerModel) {
  // Two models trained on different residuals answer the same request on
  // one service: each gets its own prediction, freshly computed, rather
  // than the other model's memo entry.
  FusedModel low(answer_everything(6));
  FusedModel high(answer_everything(6));
  train_stream(low, 6, [](int) { return 0.2; });
  train_stream(high, 6, [](int) { return 1.5; });
  const config::CpuConfig config = config::thunderx2_baseline();
  ASSERT_NE(served_cycles(low.predict(kernels::App::kStream, config)),
            served_cycles(high.predict(kernels::App::kStream, config)));

  EvalService service(hermetic(2));
  const std::vector<EvalRequest> request = {stream_request()};
  for (FusedModel* model : {&low, &high}) {
    EvalPolicy routed;
    routed.fused = model;
    const EvalResponse answer = service.evaluate(request, routed)[0];
    EXPECT_EQ(answer.source, ResultSource::kBackend);
    EXPECT_EQ(answer.cycles(),
              served_cycles(model->predict(kernels::App::kStream, config)));
  }
  EXPECT_EQ(count(service, "eval.backend_runs"), 2u);
}

TEST(EvalService, RoutedEvaluationGatesOnResidualSpread) {
  // Two training clusters for kStream: small-ROB configs carry an exactly
  // constant residual (every tree's leaves agree there → spread ~0); the
  // large-ROB cluster's residuals are seeded noise (bootstrap resamples
  // disagree → positive spread). The routing threshold is then calibrated
  // between the two measured spreads, making the gate's decision — answer
  // the confident query from the model, simulate the uncertain one —
  // deterministic.
  FusedOptions options;
  options.forest.num_trees = 12;
  options.probe_every = 0;  // no probe clock: pure threshold routing
  options.round_size = 8;
  options.min_observations = 32;
  FusedModel model(options);
  Rng noise(7);
  for (int i = 0; i < 32; ++i) {
    config::CpuConfig cfg = config::thunderx2_baseline();
    const bool low_cluster = i < 16;
    cfg.core.rob_size = low_cluster ? 32 + 2 * i : 448 + 2 * i;
    const double bound =
        model.predict(kernels::App::kStream, cfg).analytical_min;
    const double residual = low_cluster ? 0.5 : 0.5 + noise.uniform01();
    model.observe(kernels::App::kStream, cfg, bound * std::exp(residual));
  }
  ASSERT_GE(model.refits(), 1u);

  config::CpuConfig confident = config::thunderx2_baseline();
  confident.core.rob_size = 49;  // inside the constant-residual cluster
  config::CpuConfig uncertain = config::thunderx2_baseline();
  uncertain.core.rob_size = 497;  // inside the noisy cluster
  const FusedPrediction p_lo = model.predict(kernels::App::kStream, confident);
  const FusedPrediction p_hi = model.predict(kernels::App::kStream, uncertain);
  ASSERT_TRUE(p_lo.ready);
  ASSERT_TRUE(p_hi.ready);
  ASSERT_LT(p_lo.spread, p_hi.spread);
  model.set_threshold((p_lo.spread + p_hi.spread) / 2.0);

  EvalService service(hermetic(1));
  CountingBackend sim;
  const std::vector<EvalRequest> requests = {
      {confident, kernels::App::kStream}, {uncertain, kernels::App::kStream}};
  EvalPolicy routed;
  routed.backend = &sim;
  routed.fused = &model;
  const auto results = service.evaluate(requests, routed);
  ASSERT_EQ(results.size(), 2u);

  // Only the uncertain config paid for a backend run; the confident one was
  // answered by the model, and the counters record the split.
  EXPECT_EQ(sim.runs(), 1u);
  EXPECT_EQ(service.metrics().counter("eval.routed_surrogate").value(), 1u);
  EXPECT_EQ(service.metrics().counter("eval.routed_sim").value(), 1u);
  EXPECT_EQ(service.metrics().counter("eval.fused_probes").value(), 0u);
  // The surrogate answer matches the model's direct prediction; the sim
  // answer matches the counting backend's formula.
  EXPECT_EQ(results[0].cycles(),
            static_cast<std::uint64_t>(std::llround(p_lo.cycles)));
  EXPECT_EQ(results[1].cycles(), 1000 + 497u);

  // Threshold 0 routes nothing: the same batch re-runs entirely on the
  // simulator (memo-served here, since the points are already cached).
  model.set_threshold(0.0);
  const auto all_sim = service.evaluate(requests, routed);
  EXPECT_EQ(service.metrics().counter("eval.routed_surrogate").value(), 1u);
  EXPECT_EQ(all_sim[1].cycles(), results[1].cycles());
}

/// Instant, deterministic stand-in for the simulator on routed tests: cycles
/// are a fixed function of the app, vector length and ROB size, plus a
/// seeded per-config wobble so the residual forest's trees disagree
/// somewhere.
class FormulaBackend final : public Backend {
 public:
  const std::string& key() const override {
    static const std::string k = "formula";
    return k;
  }

  std::vector<sim::RunResult> run_batch(
      std::span<const config::CpuConfig> configs, kernels::App app,
      const sim::Trace&) const override {
    std::vector<sim::RunResult> results;
    for (const config::CpuConfig& config : configs) {
      results.push_back(answer(config, app));
    }
    return results;
  }

  /// The answer one lane gets.
  static sim::RunResult answer(const config::CpuConfig& config,
                               kernels::App app) {
    Rng wobble(static_cast<std::uint64_t>(config.core.rob_size) * 7919 +
               static_cast<std::uint64_t>(config.core.vector_length_bits) *
                   31 +
               static_cast<std::uint64_t>(app));
    sim::RunResult result;
    result.core.cycles = static_cast<std::uint64_t>(
        (20000.0 + 1000.0 * static_cast<double>(app) +
         6.4e6 / config.core.vector_length_bits +
         40.0 * config.core.rob_size) *
        (1.0 + 0.5 * wobble.uniform01()));
    result.power = power::analyze(config, result.core, result.mem);
    return result;
  }
};

/// `n` distinct sampled configs, each paired with every app in turn.
std::vector<EvalRequest> sampled_requests(std::size_t n, std::uint64_t seed) {
  const config::ParameterSpace space;
  Rng rng(seed);
  std::vector<EvalRequest> requests;
  for (std::size_t i = 0; i < n; ++i) {
    requests.push_back({space.sample(rng),
                        kernels::all_apps()[i % kernels::kNumApps]});
  }
  return requests;
}

TEST(EvalService, RoutedResultsDoNotDependOnPoolThreads) {
  // A few hundred requests through the full routed loop — warm-up rounds,
  // refits, probes, surrogate answers, sim-only requests and cross-round
  // repeats — give the same answers, sources and routing counters on 1, 2
  // and 4 pool threads. Requests are distinct within each round, so every
  // source is deterministic.
  std::vector<EvalRequest> requests = sampled_requests(320, 11);
  for (std::size_t i = 0; i < requests.size(); i += 9) {
    requests[i].allow_surrogate = false;
  }
  // The last round repeats a middle one: memo hits on both sides.
  const std::vector<EvalRequest> repeat(requests.begin() + 160,
                                        requests.begin() + 192);
  requests.insert(requests.end(), repeat.begin(), repeat.end());
  FusedOptions options;
  options.forest.num_trees = 8;
  options.min_observations = 24;
  options.round_size = 32;
  options.probe_every = 5;
  const char* counters[] = {"eval.routed_surrogate", "eval.routed_sim",
                            "eval.fused_probes", "eval.residual_refits",
                            "eval.memo_hits", "eval.backend_runs"};

  std::vector<EvalResponse> reference;
  std::vector<std::uint64_t> reference_counts;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    FusedModel model(options);
    FormulaBackend sim;
    EvalPolicy routed;
    routed.backend = &sim;
    routed.fused = &model;
    EvalService service(hermetic(threads));
    const std::vector<EvalResponse> results =
        service.evaluate(requests, routed);
    std::vector<std::uint64_t> counts;
    for (const char* name : counters) {
      counts.push_back(service.metrics().counter(name).value());
    }
    if (threads == 1) {
      reference = results;
      reference_counts = counts;
      // The batch exercises every branch of the router.
      EXPECT_GT(counts[0], 0u);
      EXPECT_GT(counts[1], 0u);
      EXPECT_GT(counts[2], 0u);
      EXPECT_GT(counts[3], 1u);
      EXPECT_GT(counts[4], 0u);
      continue;
    }
    EXPECT_EQ(counts, reference_counts);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].source, reference[i].source) << i;
      EXPECT_EQ(results[i].cycles(), reference[i].cycles()) << i;
      EXPECT_EQ(results[i].run.power.energy_j(),
                reference[i].run.power.energy_j())
          << i;
    }
  }
}

TEST(EvalService, RefitInsideARoundRePredictsOnlyThatApp) {
  // Stream and tealeaf are fitted before the round. In the round, 32
  // sim-only stream requests push stream past its next refit (16 rows, then
  // 16 + 32), so stream's surrogate answers are re-predicted from the new
  // forest; tealeaf does not refit, and its answers are the gated
  // predictions.
  FusedOptions options = answer_everything(16);
  options.forest.num_trees = 8;
  options.round_size = 1024;
  FusedModel model(options);
  FormulaBackend sim;
  const config::ParameterSpace space;
  Rng rng(5);
  const auto observe = [&](kernels::App app, int n) {
    for (int i = 0; i < n; ++i) {
      const config::CpuConfig config = space.sample(rng);
      model.observe(app, config,
                    static_cast<double>(
                        FormulaBackend::answer(config, app).core.cycles));
    }
  };
  observe(kernels::App::kStream, 16);
  observe(kernels::App::kTeaLeaf, 16);
  ASSERT_EQ(model.refits(), 2u);

  std::vector<EvalRequest> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back({space.sample(rng), kernels::App::kStream, false});
  }
  for (int i = 0; i < 24; ++i) {
    requests.push_back({space.sample(rng), kernels::App::kStream});
    requests.push_back({space.sample(rng), kernels::App::kTeaLeaf});
  }
  std::vector<FusedPrediction> gated;
  for (const EvalRequest& request : requests) {
    gated.push_back(model.predict(request.app, request.config));
  }

  EvalService service(hermetic(2));
  EvalPolicy routed;
  routed.backend = &sim;
  routed.fused = &model;
  const std::vector<EvalResponse> results = service.evaluate(requests, routed);
  ASSERT_EQ(model.refits(), 3u);
  EXPECT_EQ(service.metrics().counter("eval.residual_refits").value(), 1u);
  EXPECT_EQ(service.metrics().counter("eval.routed_surrogate").value(), 48u);

  int changed = 0;
  for (std::size_t i = 32; i < requests.size(); ++i) {
    const EvalRequest& request = requests[i];
    EXPECT_EQ(results[i].source, ResultSource::kBackend);
    if (request.app == kernels::App::kStream) {
      const FusedPrediction refit = model.predict(request.app, request.config);
      EXPECT_EQ(results[i].cycles(), served_cycles(refit)) << i;
      changed += served_cycles(refit) != served_cycles(gated[i]) ? 1 : 0;
    } else {
      EXPECT_EQ(results[i].cycles(), served_cycles(gated[i])) << i;
    }
  }
  // The refit really moved stream's answers away from the gated ones.
  EXPECT_GT(changed, 0);
}

TEST(FusedModel, ConcurrentPredictionsMatchSequential) {
  // Two identically trained models: one predicts sequentially, the other
  // from four threads at once — including the first, lazily summarising
  // prediction of each (app, VL).
  FusedOptions options;
  options.forest.num_trees = 8;
  options.min_observations = 16;
  FusedModel sequential(options);
  FusedModel concurrent(options);
  for (const EvalRequest& request : sampled_requests(64, 3)) {
    const double cycles = static_cast<double>(
        FormulaBackend::answer(request.config, request.app).core.cycles);
    sequential.observe(request.app, request.config, cycles);
    concurrent.observe(request.app, request.config, cycles);
  }
  const std::vector<EvalRequest> queries = sampled_requests(200, 4);
  std::vector<FusedPrediction> expected;
  for (const EvalRequest& query : queries) {
    expected.push_back(sequential.predict(query.app, query.config));
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<FusedPrediction>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the queries from a different offset.
      for (std::size_t k = 0; k < queries.size(); ++k) {
        const EvalRequest& query =
            queries[(k + static_cast<std::size_t>(t) * 50) % queries.size()];
        got[static_cast<std::size_t>(t)].push_back(
            concurrent.predict(query.app, query.config));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < queries.size(); ++k) {
      const FusedPrediction& want =
          expected[(k + static_cast<std::size_t>(t) * 50) % queries.size()];
      const FusedPrediction& have = got[static_cast<std::size_t>(t)][k];
      EXPECT_EQ(have.ready, want.ready);
      EXPECT_EQ(std::memcmp(&have.cycles, &want.cycles, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&have.spread, &want.spread, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&have.analytical_min, &want.analytical_min,
                            sizeof(double)),
                0);
    }
  }
}

/// Fails any chunk carrying the marker design, the way a model
/// InvariantError aborts a whole engine pass; other lanes get the formula
/// answer. Counts the lanes it is handed.
class MarkerBackend final : public Backend {
 public:
  static constexpr int kMarkerRob = 99;

  const std::string& key() const override {
    static const std::string k = "marker";
    return k;
  }

  std::vector<sim::RunResult> run_batch(
      std::span<const config::CpuConfig> configs, kernels::App app,
      const sim::Trace&) const override {
    lanes_.fetch_add(configs.size());
    std::vector<sim::RunResult> results;
    for (const config::CpuConfig& config : configs) {
      if (config.core.rob_size == kMarkerRob) {
        throw InvariantError("marker design violates the model");
      }
      results.push_back(FormulaBackend::answer(config, app));
    }
    return results;
  }

  std::uint64_t lanes() const { return lanes_.load(); }

 private:
  mutable std::atomic<std::uint64_t> lanes_{0};
};

TEST(EvalService, FailedLaneComesBackAsDataOnAnyPoolAndWidth) {
  // Forty-eight stream designs sharing one VL, one of them the marker: more
  // than batch_k per runner on every pool size, so batch_k 8 cuts them into
  // eight-lane chunks. Whatever chunk carries the marker fails as a whole;
  // its other members are re-run alone, so only the marker is answered
  // kBackendError — the same answers on 1, 2 and 4 pool threads, one lane or
  // eight per chunk.
  constexpr std::size_t kMarker = 5;
  std::vector<EvalRequest> requests;
  for (int i = 0; i < 48; ++i) {
    EvalRequest request = stream_request();
    request.config.core.rob_size =
        i == static_cast<int>(kMarker) ? MarkerBackend::kMarkerRob : 64 + 8 * i;
    requests.push_back(request);
  }
  MarkerBackend solo_backend;
  EvalService solo(hermetic(1));
  std::vector<EvalResponse> alone;
  for (const EvalRequest& request : requests) {
    alone.push_back(evaluate_alone(solo, request, &solo_backend));
  }

  for (const int threads : {1, 2, 4}) {
    for (const int batch_k : {1, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", batch_k " +
                   std::to_string(batch_k));
      ServiceConfig options = hermetic(threads);
      options.batch_k = batch_k;
      EvalService service(options);
      MarkerBackend backend;
      EvalPolicy policy;
      policy.backend = &backend;
      std::vector<EvalResponse> results;
      ASSERT_NO_THROW(results = service.evaluate(requests, policy));
      ASSERT_EQ(results.size(), requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (i == kMarker) {
          EXPECT_EQ(results[i].status, EvalStatus::kBackendError);
          EXPECT_NE(results[i].error.find("marker design"), std::string::npos)
              << results[i].error;
          continue;
        }
        ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].error;
        EXPECT_EQ(results[i].source, ResultSource::kBackend) << i;
        EXPECT_EQ(results[i].cycles(), alone[i].cycles()) << i;
        EXPECT_EQ(results[i].run.config_name, alone[i].run.config_name) << i;
      }
      EXPECT_EQ(count(service, "eval.backend_runs"), 47u);

      // The failure left no memo entry: a replay re-runs the backend and
      // re-fails, while the other answers are memoised.
      const std::uint64_t lanes = backend.lanes();
      const EvalResponse replay =
          evaluate_alone(service, requests[kMarker], &backend);
      EXPECT_EQ(replay.status, EvalStatus::kBackendError);
      EXPECT_EQ(backend.lanes(), lanes + 1);
      EXPECT_EQ(evaluate_alone(service, requests[0], &backend).source,
                ResultSource::kMemo);
    }
  }
  EXPECT_EQ(alone[kMarker].status, EvalStatus::kBackendError);
}

TEST(EvalService, SmallPipelinesRunOneLanePerChunk) {
  // batch_k 8 on one pool thread plus the caller: up to 16 claims run one
  // lane per chunk; 17 claims of one (app, VL) group are cut into chunks of
  // 8, 8 and 1 lanes, as every larger pipeline is. "eval.batch_width"
  // observes each chunk's lane count.
  ServiceConfig options = hermetic(1);
  options.batch_k = 8;
  EvalService service(options);
  FormulaBackend backend;
  EvalPolicy policy;
  policy.backend = &backend;
  const auto designs = [](int first, int n) {
    std::vector<EvalRequest> requests;
    for (int i = first; i < first + n; ++i) {
      EvalRequest request = stream_request();
      request.config.core.rob_size = 64 + 8 * i;
      requests.push_back(request);
    }
    return requests;
  };
  const obs::Histogram& widths =
      service.metrics().histogram("eval.batch_width");
  require_ok(service.evaluate(designs(0, 16), policy));
  EXPECT_EQ(widths.snapshot().count, 16u);
  EXPECT_EQ(widths.snapshot().max, 1.0);
  require_ok(service.evaluate(designs(16, 17), policy));
  EXPECT_EQ(widths.snapshot().count, 19u);
  EXPECT_EQ(widths.snapshot().sum, 33.0);
  EXPECT_EQ(widths.snapshot().max, 8.0);
}

TEST(EvalService, LoneHitCountsOneRequestAndRunsNothing) {
  // A request already answered, asked for alone, is answered under the
  // lock that finds it: it adds exactly one request and one memo or store
  // hit, starts no backend run, and carries the same stat blocks, bit for
  // bit, as the answer a batched evaluate gives for it.
  const auto dir =
      std::filesystem::temp_directory_path() / "adse_eval_lone_hit";
  std::filesystem::remove_all(dir);
  const std::string store = (dir / "eval_store.bin").string();
  const std::vector<EvalRequest> requests = sampled_requests(4, 20261020);
  std::vector<EvalResponse> fresh;

  const auto expect_lone_hits = [&](EvalService& service,
                                    ResultSource source) {
    const std::vector<EvalResponse> batched = service.evaluate(requests);
    const char* hits =
        source == ResultSource::kMemo ? "eval.memo_hits" : "eval.store_hits";
    const char* other =
        source == ResultSource::kMemo ? "eval.store_hits" : "eval.memo_hits";
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(batched[i].source, source) << i;
      const std::uint64_t requests_before = count(service, "eval.requests");
      const std::uint64_t hits_before = count(service, hits);
      const std::uint64_t other_before = count(service, other);
      const std::uint64_t joins_before = count(service, "eval.inflight_joins");
      const std::uint64_t runs_before = count(service, "eval.backend_runs");
      const EvalResponse lone = evaluate_alone(service, requests[i]);
      ASSERT_TRUE(lone.ok()) << lone.error;
      EXPECT_EQ(lone.source, source);
      EXPECT_EQ(count(service, "eval.requests"), requests_before + 1);
      EXPECT_EQ(count(service, hits), hits_before + 1);
      EXPECT_EQ(count(service, other), other_before);
      EXPECT_EQ(count(service, "eval.inflight_joins"), joins_before);
      EXPECT_EQ(count(service, "eval.backend_runs"), runs_before);
      for (const EvalResponse* answer :
           {&batched[i], static_cast<const EvalResponse*>(&fresh[i])}) {
        EXPECT_EQ(std::memcmp(&lone.run.core, &answer->run.core,
                              sizeof(lone.run.core)),
                  0)
            << i;
        EXPECT_EQ(std::memcmp(&lone.run.mem, &answer->run.mem,
                              sizeof(lone.run.mem)),
                  0)
            << i;
        EXPECT_EQ(std::memcmp(&lone.run.power, &answer->run.power,
                              sizeof(lone.run.power)),
                  0)
            << i;
        EXPECT_EQ(lone.run.app, answer->run.app);
        EXPECT_EQ(lone.run.config_name, answer->run.config_name);
      }
    }
  };

  {
    EvalService service(hermetic(2, store));
    fresh = service.evaluate(requests);
    require_ok(fresh);
    expect_lone_hits(service, ResultSource::kMemo);
    EXPECT_EQ(count(service, "eval.sim_runs"), requests.size());
  }
  // A service on the same store answers the same requests from disk.
  EvalService warm(hermetic(2, store));
  expect_lone_hits(warm, ResultSource::kStore);
  EXPECT_EQ(count(warm, "eval.sim_runs"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(EvalService, SummaryLineReportsFreshRuns) {
  EvalService service(hermetic(1));
  CountingBackend backend;
  evaluate_alone(service, stream_request(), &backend);
  evaluate_alone(service, stream_request(), &backend);
  const std::string line = service.summary_line();
  EXPECT_NE(line.find("[eval] fresh simulator runs: 1"), std::string::npos);
  EXPECT_NE(line.find("memo hits: 1"), std::string::npos);
  const std::string table = service.cache_table();
  EXPECT_NE(table.find("requests served"), std::string::npos);
}

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest -j runs each case as its own process; the dir must be unique per
    // case or concurrently scheduled cases would clobber each other's store.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("adse_eval_store_") + info->name());
    std::filesystem::remove_all(dir_);
    path_ = (dir_ / "store.bin").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static StoreRecord record(std::uint64_t seed) {
    StoreRecord r;
    r.backend_tag = ResultStore::tag("sim");
    r.app = static_cast<std::int32_t>(seed % 4);
    for (std::size_t f = 0; f < r.features.size(); ++f) {
      r.features[f] = static_cast<double>(seed * 100 + f);
    }
    r.core.cycles = 1'000'000 + seed;
    r.core.retired = 2'000 + seed;
    r.core.rs_wakeups = 33 * seed;
    r.mem.l1_hits = 7 * seed;
    r.mem.ram_requests = seed;
    return r;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(ResultStoreTest, RoundTrip) {
  {
    ResultStore store(path_);
    EXPECT_TRUE(store.loaded().empty());
    for (std::uint64_t i = 1; i <= 3; ++i) store.append(record(i));
    EXPECT_EQ(store.appended(), 3u);
  }
  ResultStore reopened(path_);
  ASSERT_EQ(reopened.loaded().size(), 3u);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const StoreRecord expected = record(i);
    const StoreRecord& got = reopened.loaded()[i - 1];
    EXPECT_EQ(got.backend_tag, expected.backend_tag);
    EXPECT_EQ(got.app, expected.app);
    EXPECT_EQ(got.features, expected.features);
    EXPECT_EQ(got.core.cycles, expected.core.cycles);
    EXPECT_EQ(got.core.retired, expected.core.retired);
    EXPECT_EQ(got.core.rs_wakeups, expected.core.rs_wakeups);
    EXPECT_EQ(got.mem.l1_hits, expected.mem.l1_hits);
    EXPECT_EQ(got.mem.ram_requests, expected.mem.ram_requests);
  }
}

TEST_F(ResultStoreTest, TornTailIsTruncatedNotFatal) {
  {
    ResultStore store(path_);
    store.append(record(1));
    store.append(record(2));
  }
  // A writer killed mid-append can only tear the tail record.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 5);

  ResultStore recovered(path_);
  ASSERT_EQ(recovered.loaded().size(), 1u);
  EXPECT_EQ(recovered.loaded()[0].core.cycles, record(1).core.cycles);
  // The torn bytes were truncated away; appending works again and the file
  // is back to exactly header + two intact records.
  recovered.append(record(3));
  EXPECT_EQ(std::filesystem::file_size(path_), full);

  ResultStore reopened(path_);
  EXPECT_EQ(reopened.loaded().size(), 2u);
  EXPECT_EQ(reopened.loaded()[1].core.cycles, record(3).core.cycles);
}

TEST_F(ResultStoreTest, CorruptRecordStopsLoadAtLastIntact) {
  {
    ResultStore store(path_);
    store.append(record(1));
    store.append(record(2));
  }
  // Flip one byte inside the *last* record's payload: its checksum fails and
  // the loader keeps everything before it.
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const long offset = -static_cast<long>(ResultStore::record_bytes() / 2);
    std::fseek(f, offset, SEEK_END);
    const int byte = std::fgetc(f);
    std::fseek(f, offset, SEEK_END);
    std::fputc(byte ^ 0xff, f);
    std::fclose(f);
  }
  ResultStore recovered(path_);
  EXPECT_EQ(recovered.loaded().size(), 1u);
}

TEST_F(ResultStoreTest, ForeignFileIsReplacedNotTrusted) {
  // A foreign file, and a pre-power v1 store (whose format is no longer
  // read): both are stale, rebuilt empty under the current header.
  std::string v1("ADSEVAL1", 8);
  const std::uint32_t v1_fields[3] = {1, config::kNumParams, 8 * 96};
  v1.append(reinterpret_cast<const char*>(v1_fields), sizeof(v1_fields));
  v1.append(8 * 96, '\x5a');
  for (const std::string& contents :
       {std::string("this is not an eval store"), v1}) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    {
      std::FILE* f = std::fopen(path_.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fwrite(contents.data(), 1, contents.size(), f);
      std::fclose(f);
    }
    ResultStore store(path_);
    EXPECT_TRUE(store.loaded().empty());
    {
      std::FILE* f = std::fopen(path_.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      char magic[8] = {};
      ASSERT_EQ(std::fread(magic, 1, 8, f), 8u);
      std::fclose(f);
      EXPECT_EQ(std::string(magic, 8), "ADSEVAL2");
    }
    store.append(record(4));

    ResultStore reopened(path_);
    ASSERT_EQ(reopened.loaded().size(), 1u);
    EXPECT_EQ(reopened.loaded()[0].core.cycles, record(4).core.cycles);
  }
}

TEST_F(ResultStoreTest, TagIsStableAndDiscriminates) {
  EXPECT_EQ(ResultStore::tag("sim"), ResultStore::tag("sim"));
  EXPECT_NE(ResultStore::tag("sim"), ResultStore::tag("proxy"));
}

TEST(ResultStoreFormat, SimTagIsPinned) {
  // Every persisted simulator record carries this tag: it is the byte-wise
  // FNV-1a of "sim", and any change to it orphans every existing store.
  EXPECT_EQ(ResultStore::tag("sim"), 0x82489e195cecbf94ULL);
}

}  // namespace
}  // namespace adse::eval
