/// \file workloads.cpp
/// The three benchmark workloads. Each is closed-loop and single-process,
/// drives only public entry points (campaign::run_campaign, and
/// serve::EvalClient::evaluate against an in-process serve::Daemon), sets
/// up once, measures one timed phase, then checks its outputs untimed. With
/// --setup-only a process only sets up: run.py starts several such
/// processes and reports the median, so every set-up is a cold process's.
///
///   campaign_cold   all-miss plain campaigns: the engine and the eval write
///                   path (claim, batch, memo insert, store append).
///   serve_warm      all-hit daemon traffic: the eval read path (wire,
///                   socket, queues, memo probe); the engine runs in set-up.
///   fused_campaign  surrogate-routed campaigns: eval/fused, ml, analysis,
///                   with a small share of real simulations.

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "config/param_space.hpp"
#include "eval/fused.hpp"
#include "eval/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/power_model.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace adse;

namespace {

// Seed streams: each workload draws its inputs from its own stream of the
// run's seed, so the workloads never share configurations.
constexpr std::uint64_t kColdStream = 1;
constexpr std::uint64_t kWarmStream = 2;
constexpr std::uint64_t kServeStream = 3;
constexpr std::uint64_t kFusedStream = 4;
constexpr std::uint64_t kCheckStream = 5;

/// Sampled answers re-simulated by the output checks.
constexpr std::size_t kCheckSample = 16;

/// Totals of the timed phase.
struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t evals = 0;
  std::uint64_t units = 0;
  std::vector<double> call_ms;  ///< one per public call
  double peak_rss_mb = 0.0;     ///< read right after the timed phase
};

/// The eval-layer counters of one registry, read at one instant.
struct EvalCounters {
  static constexpr const char* kNames[] = {
      "eval.requests",       "eval.backend_runs",  "eval.memo_hits",
      "eval.store_hits",     "eval.inflight_joins", "eval.trace_builds",
      "eval.routed_surrogate", "eval.routed_sim",  "eval.fused_probes",
      "eval.residual_refits"};
  static constexpr std::size_t kCount = std::size(kNames);
  std::uint64_t values[kCount] = {};
  double batch_width_sum = 0.0;
  std::uint64_t batch_width_count = 0;

  static EvalCounters read(obs::Registry& registry) {
    EvalCounters out;
    for (std::size_t i = 0; i < kCount; ++i) {
      out.values[i] = registry.counter(kNames[i]).value();
    }
    const obs::HistogramSnapshot width =
        registry.histogram("eval.batch_width").snapshot();
    out.batch_width_sum = width.sum;
    out.batch_width_count = width.count;
    return out;
  }

  /// The count of `name` accumulated since `before`.
  std::uint64_t since(const EvalCounters& before, std::string_view name) const {
    for (std::size_t i = 0; i < kCount; ++i) {
      if (name == kNames[i]) return values[i] - before.values[i];
    }
    return 0;
  }

  /// Writes the counts accumulated since `before` as per-layer values.
  void report_since(const EvalCounters& before, std::uint64_t evals,
                    Outcome& out) const {
    for (std::size_t i = 0; i < kCount; ++i) {
      out.layers.set(kNames[i], values[i] - before.values[i]);
    }
    const std::uint64_t widths = batch_width_count - before.batch_width_count;
    out.layers.set("eval.mean_batch_width",
                   widths == 0 ? 0.0
                               : (batch_width_sum - before.batch_width_sum) /
                                     static_cast<double>(widths));
    // Real simulator runs: backend runs not answered by the surrogate.
    const std::uint64_t real = since(before, "eval.backend_runs") -
                               since(before, "eval.routed_surrogate");
    out.layers.set("eval.real_sims_per_keval",
                   static_cast<double>(real) * 1e3 / static_cast<double>(evals));
  }
};

void report_e2e(double setup_s, const Timed& timed, Outcome& out) {
  const double evals = static_cast<double>(timed.evals);
  out.e2e.set("setup_s", setup_s)
      .set("evals_per_s", evals / timed.wall_s)
      .set("cpu_ms_per_eval", timed.cpu_s * 1e3 / evals)
      .set("latency_p50_ms", percentile(timed.call_ms, 50.0))
      .set("peak_rss_mb", timed.peak_rss_mb);
  if (timed.call_ms.size() <= 64) out.info.set("call_ms", timed.call_ms);
  out.info.set("latency_samples", static_cast<std::uint64_t>(timed.call_ms.size()))
      .set("timed_wall_s", timed.wall_s)
      .set("timed_cpu_s", timed.cpu_s)
      .set("timed_evals", timed.evals)
      .set("timed_units", timed.units);
  out.attempted = timed.evals;
}

/// Times one set-up, from workload start to ready, and returns what it made.
template <class Make>
auto timed_setup(double& setup_s, Make&& make) {
  obs::Span span("bench.setup", "bench");
  const Stopwatch watch;
  auto made = make();
  setup_s = watch.seconds();
  return made;
}

/// The outcome of a --setup-only process: its set-up time alone.
Outcome setup_outcome(double setup_s) {
  Outcome out;
  out.e2e.set("setup_s", setup_s);
  return out;
}

/// The vector lengths of the parameter space.
std::vector<int> vector_lengths() {
  std::vector<int> out;
  const config::ParameterSpace space;
  for (const double vl : space.spec(config::ParamId::kVectorLength).values()) {
    out.push_back(static_cast<int>(vl));
  }
  return out;
}

/// A hermetic in-process service with every trace the workload can touch
/// built: the first-touch work a campaign user pays before the first sim.
std::unique_ptr<eval::EvalService> start_service(const std::string& store) {
  auto service = std::make_unique<eval::EvalService>(
      pinned_service(store, &obs::Registry::global()));
  for (const kernels::App app : kernels::all_apps()) {
    for (const int vl : vector_lengths()) service->trace(app, vl);
  }
  return service;
}

/// Units of timed work: one with --single-unit, else --seconds over the
/// nominal unit time, at least one.
std::uint64_t work_units(const RunOptions& options, double unit_seconds) {
  if (options.single_unit) return 1;
  return static_cast<std::uint64_t>(
      std::max(1.0, std::round(options.seconds / unit_seconds)));
}

/// Runs `units` campaigns of `configs` configurations, each with its own
/// seed.
Timed timed_campaigns(const RunOptions& options, eval::EvalService& service,
                      const char* label, int configs, std::uint64_t stream,
                      std::uint64_t units, bool fused,
                      std::vector<campaign::CampaignResult>& results) {
  Timed timed;
  obs::Span span("bench.timed", "bench");
  const double cpu0 = cpu_seconds();
  const Stopwatch wall;
  for (std::uint64_t unit = 0; unit < units; ++unit) {
    campaign::CampaignSpec spec;
    spec.label = label;
    spec.num_configs = configs;
    spec.seed = derive_seed(options.seed, stream, unit);
    spec.threads = kWorkers;
    spec.verbose = false;
    // A cold residual model per campaign: what one routed campaign costs.
    std::unique_ptr<eval::FusedModel> model;
    if (fused) {
      model = std::make_unique<eval::FusedModel>(
          pinned_service("", nullptr).fused_options());
      spec.fused = model.get();
    }
    const Stopwatch call;
    {
      obs::Span call_span("bench.run_campaign", "bench");
      results.push_back(campaign::run_campaign(spec, service));
    }
    timed.call_ms.push_back(call.millis());
    timed.evals += static_cast<std::uint64_t>(configs) * kernels::kNumApps;
    timed.units = unit + 1;
  }
  timed.wall_s = wall.seconds();
  timed.cpu_s = cpu_seconds() - cpu0;
  timed.peak_rss_mb = peak_rss_mb();
  return timed;
}

/// Every (config, app) answer of a campaign table, with its energy.
std::vector<Answer> campaign_answers(const campaign::CampaignResult& result,
                                     std::vector<double>* energy = nullptr) {
  const CsvTable& table = result.table;
  std::vector<Answer> answers;
  for (const auto& row : table.rows) {
    std::array<double, config::kNumParams> features{};
    std::copy_n(row.begin(), config::kNumParams, features.begin());
    const config::CpuConfig config = config::config_from_features(features);
    for (const kernels::App app : kernels::all_apps()) {
      const double cycles = row[table.column_index(campaign::cycles_column(app))];
      answers.push_back({config, app, static_cast<std::uint64_t>(cycles)});
      if (energy != nullptr) {
        energy->push_back(row[table.column_index(campaign::energy_column(app))]);
      }
    }
  }
  return answers;
}

/// Counts answers that are not finite, positive cycles and energies.
std::uint64_t invalid_answers(
    const std::vector<campaign::CampaignResult>& results) {
  std::uint64_t bad = 0;
  for (const campaign::CampaignResult& result : results) {
    std::vector<double> energy;
    const std::vector<Answer> answers = campaign_answers(result, &energy);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      bad += answers[i].cycles > 0 && std::isfinite(energy[i]) && energy[i] > 0.0
                 ? 0
                 : 1;
    }
  }
  return bad;
}

/// Seeded sample of up to `n` indices into [0, size), ascending.
std::vector<std::size_t> sample_indices(std::size_t size, std::size_t n,
                                        std::uint64_t seed) {
  std::vector<std::size_t> order(size);
  for (std::size_t i = 0; i < size; ++i) order[i] = i;
  Rng rng(seed);
  rng.shuffle(order);
  order.resize(std::min(size, n));
  std::sort(order.begin(), order.end());
  return order;
}

/// Evaluates the canary set and records its digest (checked by run.py
/// against the recorded value).
void check_canary(eval::Evaluator& evaluator, Outcome& out) {
  const std::vector<eval::EvalRequest> canary = canary_requests();
  const std::vector<eval::EvalResponse> responses = evaluator.evaluate(canary);
  std::uint64_t failed = 0;
  for (const eval::EvalResponse& response : responses) {
    failed += response.ok() ? 0 : 1;
  }
  out.check("canary_ok", failed == 0, failed);
  out.info.set("canary_digest", digest_answers(to_answers(canary, responses)));
}

serve::ClientOptions client_options(const std::string& socket) {
  serve::ClientOptions options;
  options.socket_path = socket;
  options.timeout_ms = 120000;
  return options;
}

}  // namespace

void Outcome::check(const std::string& name, bool passed,
                    std::uint64_t failures) {
  checks.set(name, passed);
  if (!passed) {
    correct = false;
    failed += std::max<std::uint64_t>(failures, 1);
  }
}

eval::ServiceConfig pinned_service(const std::string& store_path,
                                   obs::Registry* registry) {
  eval::ServiceConfig config;
  config.threads = kWorkers;
  config.batch_k = kBatchK;
  config.fused_threshold = kFusedThreshold;
  config.probe_every = kProbeEvery;
  config.store_path = store_path;
  config.verbose = false;
  config.registry = registry;
  return config;
}

// --- campaign_cold ------------------------------------------------------------

Outcome run_campaign_cold(const RunOptions& options) {
  Outcome out;
  obs::Registry& registry = obs::Registry::global();
  double setup_s = 0.0;
  std::unique_ptr<eval::EvalService> service =
      timed_setup(setup_s, [] { return start_service("cold_store.bin"); });
  if (options.setup_only) return setup_outcome(setup_s);

  const EvalCounters before = EvalCounters::read(registry);
  std::vector<campaign::CampaignResult> results;
  const Timed timed = timed_campaigns(options, *service, "perfbench_cold",
                                      kColdConfigs, kColdStream,
                                      work_units(options, kColdUnitSeconds),
                                      false, results);
  const EvalCounters after = EvalCounters::read(registry);

  obs::Span check_span("bench.check", "bench");
  out.check("answers_valid", invalid_answers(results) == 0,
            invalid_answers(results));
  // Reference: the scalar sim::simulate path, independent of the batched
  // engine and the service's memo, must give the same cycles.
  const std::vector<Answer> answers = campaign_answers(results.front());
  std::uint64_t mismatches = 0;
  for (const std::size_t i :
       sample_indices(answers.size(), kCheckSample,
                      derive_seed(options.seed, kCheckStream, 0))) {
    const Answer& answer = answers[i];
    const sim::RunResult run = sim::simulate(
        answer.config,
        service->trace(answer.app, answer.config.core.vector_length_bits));
    mismatches += run.cycles() == answer.cycles ? 0 : 1;
  }
  out.check("reference_resim", mismatches == 0, mismatches);
  out.info.set("answers_digest", digest_answers(answers));
  check_canary(*service, out);

  if (options.layers) {
    after.report_since(before, timed.evals, out);
    run_replays({answers, service.get()}, out);
  }
  report_e2e(setup_s, timed, out);
  return out;
}

// --- serve_warm ---------------------------------------------------------------

namespace {

/// A daemon whose memo already holds the warm set. The set is filled
/// through the socket into a fresh store by a first daemon, which drains;
/// a second daemon then starts on that store. Its registry therefore sees
/// only timed-phase traffic, while every timed request is still answered
/// from memory.
struct WarmDaemon {
  std::unique_ptr<serve::Daemon> daemon;
  std::vector<eval::EvalResponse> fill;  ///< set-up responses, warm order
};

std::vector<eval::EvalRequest> warm_requests(std::uint64_t seed) {
  const config::ParameterSpace space;
  std::vector<eval::EvalRequest> requests;
  for (int i = 0; i < kWarmConfigs; ++i) {
    Rng rng(derive_seed(seed, kWarmStream, static_cast<std::uint64_t>(i)));
    config::CpuConfig config = space.sample(rng);
    config.name = "warm-" + std::to_string(i);
    for (const kernels::App app : kernels::all_apps()) {
      requests.push_back({config, app, false});
    }
  }
  return requests;
}

WarmDaemon start_warm_daemon(const std::vector<eval::EvalRequest>& warm) {
  serve::DaemonOptions options;
  options.socket_path = "fill.sock";
  options.workers = kWorkers;
  options.service = pinned_service("warm_store.bin", nullptr);
  WarmDaemon out;
  out.fill.resize(warm.size());
  {
    serve::Daemon fill(options);
    fill.start();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        serve::EvalClient client(client_options(options.socket_path));
        constexpr std::size_t kChunk = 64;
        for (std::size_t start = c * kChunk; start < warm.size();
             start += kClients * kChunk) {
          const std::size_t n = std::min(kChunk, warm.size() - start);
          const std::vector<eval::EvalRequest> chunk(
              warm.begin() + static_cast<std::ptrdiff_t>(start),
              warm.begin() + static_cast<std::ptrdiff_t>(start + n));
          std::vector<eval::EvalResponse> responses = client.evaluate(chunk);
          std::move(responses.begin(), responses.end(),
                    out.fill.begin() + static_cast<std::ptrdiff_t>(start));
        }
      });
    }
    for (std::thread& client : clients) client.join();
    fill.drain();
    fill.wait();
  }
  options.socket_path = "serve.sock";
  out.daemon = std::make_unique<serve::Daemon>(options);
  out.daemon->start();
  return out;
}

}  // namespace

Outcome run_serve_warm(const RunOptions& options) {
  Outcome out;
  const std::vector<eval::EvalRequest> warm = warm_requests(options.seed);
  double setup_s = 0.0;
  WarmDaemon warmed =
      timed_setup(setup_s, [&] { return start_warm_daemon(warm); });
  if (options.setup_only) return setup_outcome(setup_s);
  serve::Daemon& daemon = *warmed.daemon;
  obs::Registry& registry = daemon.service().metrics();

  std::uint64_t fill_failed = 0;
  for (const eval::EvalResponse& response : warmed.fill) {
    fill_failed += response.ok() ? 0 : 1;
  }

  std::vector<std::unique_ptr<serve::EvalClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<serve::EvalClient>(
        client_options(daemon.socket_path())));
    clients.back()->ping();
  }
  struct ClientTotals {
    std::vector<double> call_ms;
    std::uint64_t evals = 0;
    std::uint64_t bad = 0;
    double verify_cpu_s = 0.0;   ///< this thread's CPU in the answer check
    double verify_wall_s = 0.0;
  };
  std::vector<ClientTotals> totals(kClients);
  const std::uint64_t calls =
      options.single_unit
          ? kServeSingleUnitCalls
          : static_cast<std::uint64_t>(std::max(
                1.0, std::round(options.seconds * kServeCallsPerSecond)));
  const EvalCounters before = EvalCounters::read(registry);
  Timed timed;
  {
    obs::Span span("bench.timed", "bench");
    const double cpu0 = cpu_seconds();
    const Stopwatch wall;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientTotals& mine = totals[static_cast<std::size_t>(c)];
        serve::EvalClient& client = *clients[static_cast<std::size_t>(c)];
        std::vector<eval::EvalRequest> batch(kServeBatch);
        std::vector<std::size_t> index(kServeBatch);
        for (std::uint64_t call = 0; call < calls; ++call) {
          Rng rng(derive_seed(options.seed, kServeStream + 16 * c, call));
          for (int j = 0; j < kServeBatch; ++j) {
            index[j] = rng.index(warm.size());
            batch[j] = warm[index[j]];
          }
          const Stopwatch watch;
          std::vector<eval::EvalResponse> responses;
          {
            obs::Span call_span("bench.client_call", "bench");
            responses = client.evaluate(batch);
          }
          mine.call_ms.push_back(watch.millis());
          // The answer check is benchmark work: its thread CPU is taken out
          // of cpu_ms_per_eval below, and its wall time is reported.
          obs::Span verify_span("bench.verify", "bench");
          const Stopwatch verify_wall;
          const double verify_cpu0 = thread_cpu_seconds();
          for (int j = 0; j < kServeBatch; ++j) {
            mine.bad += responses[j].ok() &&
                                same_run(responses[j].run,
                                         warmed.fill[index[j]].run)
                            ? 0
                            : 1;
          }
          mine.verify_cpu_s += thread_cpu_seconds() - verify_cpu0;
          mine.verify_wall_s += verify_wall.seconds();
          mine.evals += kServeBatch;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    timed.wall_s = wall.seconds();
    timed.cpu_s = cpu_seconds() - cpu0;
  }
  timed.peak_rss_mb = peak_rss_mb();
  const EvalCounters after = EvalCounters::read(registry);
  std::uint64_t bad = 0;
  double verify_cpu_s = 0.0, verify_wall_s = 0.0;
  for (ClientTotals& mine : totals) {
    timed.evals += mine.evals;
    bad += mine.bad;
    verify_cpu_s += mine.verify_cpu_s;
    verify_wall_s += mine.verify_wall_s;
    timed.call_ms.insert(timed.call_ms.end(), mine.call_ms.begin(),
                         mine.call_ms.end());
  }
  out.info.set("timed_process_cpu_s", timed.cpu_s)
      .set("verify_cpu_s", verify_cpu_s)
      .set("verify_wall_share",
           verify_wall_s / (kClients * timed.wall_s));
  timed.cpu_s -= verify_cpu_s;
  timed.units = 1;
  if (options.layers) {
    std::vector<double> call_us;
    for (const double ms : timed.call_ms) call_us.push_back(ms * 1e3);
    report_serve_layer(registry, call_us, kServeBatch, kWorkers, out);
    after.report_since(before, timed.evals, out);
  }

  obs::Span check_span("bench.check", "bench");
  out.check("warm_fill_ok", fill_failed == 0, fill_failed);
  // Every timed answer must bit-match the set-up answer for its request.
  out.check("timed_bitmatch", bad == 0, bad);
  out.check("timed_all_hits", after.since(before, "eval.backend_runs") == 0);
  const std::vector<Answer> answers = to_answers(warm, warmed.fill);
  out.info.set("answers_digest", digest_answers(answers));
  check_canary(*clients.front(), out);

  if (options.layers) {
    run_replays({answers, &daemon.service()}, out);
  }
  clients.clear();
  daemon.drain();
  daemon.wait();
  report_e2e(setup_s, timed, out);
  return out;
}

// --- fused_campaign -----------------------------------------------------------

Outcome run_fused_campaign(const RunOptions& options) {
  Outcome out;
  obs::Registry& registry = obs::Registry::global();
  double setup_s = 0.0;
  std::unique_ptr<eval::EvalService> service =
      timed_setup(setup_s, [] { return start_service(""); });
  if (options.setup_only) return setup_outcome(setup_s);

  const EvalCounters before = EvalCounters::read(registry);
  std::vector<campaign::CampaignResult> results;
  const Timed timed = timed_campaigns(options, *service, "perfbench_fused",
                                      kFusedConfigs, kFusedStream,
                                      work_units(options, kFusedUnitSeconds),
                                      true, results);
  const EvalCounters after = EvalCounters::read(registry);

  obs::Span check_span("bench.check", "bench");
  out.check("answers_valid", invalid_answers(results) == 0,
            invalid_answers(results));
  // Real-simulation answers carry dynamic energy; surrogate answers price
  // only area and leakage. The classification is confirmed below: a real
  // answer is a simulator memo hit on the workload's own service.
  std::vector<double> energy;
  const std::vector<Answer> answers = campaign_answers(results.front(), &energy);
  std::vector<Answer> real;
  std::vector<double> real_energy;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    core::CoreStats core;
    core.cycles = answers[i].cycles;
    const double leakage_only =
        power::analyze(answers[i].config, core, mem::MemStats{}).energy_j();
    if (energy[i] != leakage_only) {
      real.push_back(answers[i]);
      real_energy.push_back(energy[i]);
    }
  }
  std::vector<std::size_t> sampled;
  std::vector<eval::EvalRequest> requests;
  for (const std::size_t i :
       sample_indices(real.size(), kCheckSample,
                      derive_seed(options.seed, kCheckStream, 0))) {
    sampled.push_back(i);
    requests.push_back({real[i].config, real[i].app, false});
  }
  std::uint64_t mismatches = 0;
  std::vector<std::size_t> confirmed;
  std::vector<eval::EvalRequest> confirmed_requests;
  const std::vector<eval::EvalResponse> memo = service->evaluate(requests);
  for (std::size_t k = 0; k < sampled.size(); ++k) {
    if (memo[k].ok() && memo[k].source == eval::ResultSource::kMemo) {
      // The simulator's memo entry must be the answer the campaign gave.
      mismatches += memo[k].cycles() == real[sampled[k]].cycles ? 0 : 1;
      confirmed.push_back(sampled[k]);
      confirmed_requests.push_back(requests[k]);
    }
  }
  // Re-simulate the confirmed real answers on a fresh plain service.
  {
    eval::EvalService fresh(pinned_service("", nullptr));
    const std::vector<eval::EvalResponse> again =
        fresh.evaluate(confirmed_requests);
    for (std::size_t k = 0; k < confirmed.size(); ++k) {
      const std::size_t i = confirmed[k];
      mismatches += again[k].ok() &&
                            again[k].source == eval::ResultSource::kBackend &&
                            again[k].cycles() == real[i].cycles &&
                            again[k].run.power.energy_j() == real_energy[i]
                        ? 0
                        : 1;
    }
  }
  out.check("resim_sampled", !confirmed.empty());
  out.check("resim_bit_identical", mismatches == 0, mismatches);
  out.info.set("resim_confirmed", static_cast<std::uint64_t>(confirmed.size()))
      .set("answers_digest", digest_answers(answers))
      .set("real_answers", static_cast<std::uint64_t>(real.size()));
  check_canary(*service, out);

  if (options.layers) {
    after.report_since(before, timed.evals, out);
    obs::Histogram& error = registry.histogram("eval.routing_error_pct");
    out.layers.set("fused.probe_err_p50_pct", error.quantile(0.50))
        .set("fused.probe_err_p95_pct", error.quantile(0.95));
    out.info.set("probe_err_samples", error.count());
    run_replays({real, service.get()}, out);
  }
  report_e2e(setup_s, timed, out);
  return out;
}

}  // namespace perfbench
