/// \file replay.cpp
/// Layer replays: each module's public functions timed from the benchmark's
/// own code on a workload's own inputs, so a per-layer number exists for
/// every layer without instrumenting src/. Also the digests and the serve
/// layer report shared by the workloads.

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/analytical_features.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "config/param_space.hpp"
#include "core/batched_core.hpp"
#include "eval/fused.hpp"
#include "eval/result_store.hpp"
#include "eval/service.hpp"
#include "eval/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/power_model.hpp"
#include "sim/batch_sim.hpp"

namespace perfbench {

using namespace adse;

namespace {

/// Answers fed to the fused-model replay.
constexpr std::size_t kReplayObservations = 1024;

/// Median per-call time in µs of `fn`, which makes `calls` calls; rounds
/// repeat until at least 5 rounds and 30 ms have passed.
template <class Fn>
double per_call_us(std::size_t calls, Fn&& fn) {
  std::vector<double> rounds;
  const Stopwatch total;
  while (rounds.size() < 5 || total.seconds() < 0.03) {
    const Stopwatch watch;
    fn();
    rounds.push_back(watch.seconds() * 1e6 /
                     static_cast<double>(std::max<std::size_t>(calls, 1)));
  }
  return percentile(rounds, 50.0);
}

using TraceKey = std::pair<int, int>;  ///< (app, vector length)

TraceKey key_of(const Answer& answer) {
  return {static_cast<int>(answer.app),
          answer.config.core.vector_length_bits};
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace

std::string digest_answers(const std::vector<Answer>& answers) {
  Digest digest;
  for (const Answer& answer : answers) {
    for (const double f : config::feature_vector(answer.config)) {
      digest.add_double(f);
    }
    digest.add(static_cast<std::uint64_t>(answer.app));
    digest.add(answer.cycles);
  }
  return digest.hex();
}

bool same_run(const sim::RunResult& a, const sim::RunResult& b) {
  // The stats blocks are plain 64-bit counters, so one memcmp compares each;
  // the power values are compared by bit pattern.
  static_assert(std::has_unique_object_representations_v<core::CoreStats>);
  static_assert(std::has_unique_object_representations_v<mem::MemStats>);
  static_assert(sizeof(power::PowerResult) == 3 * sizeof(double));
  return std::memcmp(&a.core, &b.core, sizeof(a.core)) == 0 &&
         std::memcmp(&a.mem, &b.mem, sizeof(a.mem)) == 0 &&
         std::memcmp(&a.power, &b.power, sizeof(a.power)) == 0;
}

std::vector<eval::EvalRequest> canary_requests() {
  const config::ParameterSpace space;
  std::vector<eval::EvalRequest> requests;
  for (std::uint64_t i = 0; i < 8; ++i) {
    Rng rng(derive_seed(0x5eedcafe, 0, i));
    config::CpuConfig config = space.sample(rng);
    config.name = "canary-" + std::to_string(i);
    for (const kernels::App app : kernels::all_apps()) {
      requests.push_back({config, app, false});
    }
  }
  return requests;
}

std::vector<Answer> to_answers(
    const std::vector<eval::EvalRequest>& requests,
    const std::vector<eval::EvalResponse>& responses) {
  std::vector<Answer> answers;
  answers.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    answers.push_back(
        {requests[i].config, requests[i].app, responses[i].cycles()});
  }
  return answers;
}

void report_serve_layer(obs::Registry& registry,
                        const std::vector<double>& call_us,
                        int requests_per_call, int workers, Outcome& out) {
  obs::Histogram& server_ns = registry.histogram("serve.request_ns");
  const double server_p50_us = server_ns.quantile(0.50) / 1e3;
  // A call's median time per request, less the server's own median time.
  const double call_p50_us = percentile(call_us, 50.0) / requests_per_call;
  out.layers.set("serve.server_p50_us", server_p50_us)
      .set("serve.server_p99_us", server_ns.quantile(0.99) / 1e3)
      .set("serve.transport_p50_us", call_p50_us - server_p50_us)
      .set("serve.client_p99_ms", percentile(call_us, 99.0) / 1e3);
  std::vector<double> dispatched;
  for (int w = 0; w < workers; ++w) {
    dispatched.push_back(static_cast<double>(
        registry.counter("serve.shard" + std::to_string(w) + ".dispatched")
            .value()));
  }
  const double shard_mean = mean(dispatched);
  out.layers
      .set("serve.shard_max_over_mean",
           shard_mean > 0.0
               ? *std::max_element(dispatched.begin(), dispatched.end()) /
                     shard_mean
               : 0.0)
      .set("serve.rejected", registry.counter("serve.rejected").value())
      .set("serve.frames_bad", registry.counter("serve.frames_bad").value());
  out.info.set("serve_server_samples", server_ns.count())
      .set("serve_server_sum_s", server_ns.snapshot().sum / 1e9)
      .set("serve_client_calls", static_cast<std::uint64_t>(call_us.size()));
}

void run_replays(const ReplayInputs& in, Outcome& out) {
  obs::Span replay_span("bench.replays", "bench");
  out.check("replay_inputs", !in.answers.empty() && in.memo_service != nullptr);
  if (in.answers.empty() || in.memo_service == nullptr) return;

  // --- kernels / isa, core decode, analysis: once per (app, VL) used -------
  std::set<TraceKey> keys;
  for (const Answer& answer : in.answers) keys.insert(key_of(answer));
  std::map<TraceKey, isa::Program> programs;
  std::map<TraceKey, std::unique_ptr<core::DecodedTrace>> decoded;
  double build_ms = 0.0, decode_ms = 0.0, summarize_ms = 0.0;
  std::uint64_t summary_sink = 0;
  for (const TraceKey& key : keys) {
    obs::Span span("replay.trace", "replay");
    Stopwatch build;
    programs.emplace(key, kernels::build_app(
                              static_cast<kernels::App>(key.first), key.second));
    build_ms += build.millis();
    Stopwatch decode;
    decoded.emplace(key,
                    std::make_unique<core::DecodedTrace>(programs.at(key)));
    decode_ms += decode.millis();
    Stopwatch summarize;
    summary_sink += analysis::summarize_trace(programs.at(key)).total_ops;
    summarize_ms += summarize.millis();
  }
  out.layers.set("kernels.trace_build_ms", build_ms)
      .set("core.decode_ms", decode_ms)
      .set("analysis.summarize_ms", summarize_ms);
  out.info.set("replay_traces", static_cast<std::uint64_t>(keys.size()))
      .set("replay_summary_ops", summary_sink);

  // --- core / mem / sim: re-simulate K-lane batches of the answers ---------
  // Per app, the first kBatchK answers of its most common vector length:
  // full-width batches, as the service forms them on a cold campaign.
  std::map<TraceKey, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < in.answers.size(); ++i) {
    groups[key_of(in.answers[i])].push_back(i);
  }
  std::vector<std::size_t> order;
  for (const kernels::App app : kernels::all_apps()) {
    const std::vector<std::size_t>* widest = nullptr;
    for (const auto& [key, members] : groups) {
      if (key.first == static_cast<int>(app) &&
          (widest == nullptr || members.size() > widest->size())) {
        widest = &members;
      }
    }
    if (widest == nullptr) continue;
    order.insert(order.end(), widest->begin(),
                 widest->begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                                       widest->size(), kBatchK)));
  }
  std::vector<sim::RunResult> results(order.size());
  double sim_s = 0.0;
  std::uint64_t retired = 0, cycles = 0, skipped = 0;
  std::uint64_t windows = 0, lane_windows = 0;
  std::uint64_t l1_hits = 0, l1_total = 0, l2_hits = 0, l2_total = 0;
  std::uint64_t mismatches = 0;
  Digest model_digest;  // cycles and memory counters of the replayed runs
  for (std::size_t start = 0; start < order.size();) {
    const TraceKey key = key_of(in.answers[order[start]]);
    std::size_t end = start;
    while (end < order.size() && end - start < kBatchK &&
           key_of(in.answers[order[end]]) == key) {
      ++end;
    }
    std::vector<config::CpuConfig> configs;
    for (std::size_t i = start; i < end; ++i) {
      configs.push_back(in.answers[order[i]].config);
    }
    core::BatchRunInfo info;
    std::vector<sim::RunResult> batch;
    {
      obs::Span span("replay.simulate_batch", "replay");
      const Stopwatch watch;
      batch = sim::simulate_batch(configs, programs.at(key), *decoded.at(key),
                                  &info);
      sim_s += watch.seconds();
    }
    windows += info.windows;
    lane_windows += info.lane_windows;
    for (std::size_t i = start; i < end; ++i) {
      const sim::RunResult& run = batch[i - start];
      retired += run.core.retired;
      cycles += run.core.cycles;
      skipped += run.core.cycles_skipped;
      l1_hits += run.mem.l1_hits;
      l1_total += run.mem.l1_hits + run.mem.l1_misses;
      l2_hits += run.mem.l2_hits;
      l2_total += run.mem.l2_hits + run.mem.l2_misses;
      mismatches += run.core.cycles == in.answers[order[i]].cycles ? 0 : 1;
      model_digest.add(run.core.cycles);
      for (const std::uint64_t counter :
           {run.mem.line_requests, run.mem.l1_hits, run.mem.l1_misses,
            run.mem.l2_hits, run.mem.l2_misses, run.mem.ram_requests,
            run.mem.dirty_writebacks, run.mem.prefetch_fills}) {
        model_digest.add(counter);
      }
      results[i] = run;
    }
    start = end;
  }
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  // An exactness check, not a direction: folded to 32 bits so a JSON double
  // carries it exactly; any change means the model's output changed.
  const std::uint64_t model_hash = model_digest.value();
  out.layers.set("core.sim_muops_per_s", static_cast<double>(retired) / sim_s / 1e6)
      .set("core.sim_kcycles_per_s", static_cast<double>(cycles) / sim_s / 1e3)
      .set("core.skipped_cycle_frac", ratio(skipped, cycles))
      .set("core.mean_active_lanes", ratio(lane_windows, windows))
      .set("mem.l1_hit_frac", ratio(l1_hits, l1_total))
      .set("mem.l2_hit_frac", ratio(l2_hits, l2_total))
      .set("mem.cycles_digest32",
           (model_hash ^ (model_hash >> 32)) & 0xffffffffu);
  out.info.set("replay_sims", static_cast<std::uint64_t>(results.size()));
  out.check("replay_cycles_match", mismatches == 0, mismatches);

  // --- power ----------------------------------------------------------------
  double power_sink = 0.0;
  out.layers.set("power.analyze_us", per_call_us(results.size(), [&] {
    for (std::size_t i = 0; i < results.size(); ++i) {
      power_sink += power::analyze(in.answers[order[i]].config,
                                   results[i].core, results[i].mem)
                        .area_mm2;
    }
  }));
  out.info.set("replay_power_sink", power_sink);

  // --- eval: store append, memo hit -----------------------------------------
  const std::string store_path = "replay_store.bin";
  {
    eval::ResultStore store(store_path);
    const std::uint64_t tag =
        eval::ResultStore::tag(in.memo_service->simulator().key());
    const Stopwatch watch;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Answer& answer = in.answers[order[i]];
      store.append({tag, static_cast<std::int32_t>(answer.app),
                    config::feature_vector(answer.config), results[i].core,
                    results[i].mem, results[i].power});
    }
    out.layers.set("eval.store_append_us",
                   watch.seconds() * 1e6 / static_cast<double>(results.size()));
    store.flush();
  }
  std::vector<eval::EvalRequest> requests;
  for (const std::size_t i : order) {
    requests.push_back({in.answers[i].config, in.answers[i].app, false});
  }
  std::uint64_t memo_misses = 0;
  out.layers.set("eval.memo_hit_us", per_call_us(requests.size(), [&] {
    for (const eval::EvalResponse& response :
         in.memo_service->evaluate(requests)) {
      memo_misses += response.ok() &&
                             (response.source == eval::ResultSource::kMemo ||
                              response.source == eval::ResultSource::kStore)
                         ? 0
                         : 1;
    }
  }));
  out.check("replay_memo_hits", memo_misses == 0, memo_misses);

  // --- eval/wire: frame + request + response codec, both directions --------
  std::vector<eval::EvalResponse> responses(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) responses[i].run = results[i];
  std::uint64_t wire_bytes = 0, wire_bad = 0;
  const auto round_trip = [&](bool verify) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string request_frame = eval::wire::encode_frame(
          eval::wire::FrameType::kEvalRequest, i,
          eval::wire::encode_request(requests[i]));
      const std::string response_frame = eval::wire::encode_frame(
          eval::wire::FrameType::kEvalResponse, i,
          eval::wire::encode_response(responses[i]));
      eval::wire::Frame frame;
      std::size_t consumed = 0;
      eval::EvalRequest request_back;
      eval::EvalResponse response_back;
      const bool ok =
          eval::wire::try_decode(request_frame, frame, consumed) ==
              eval::wire::DecodeStatus::kOk &&
          eval::wire::decode_request(frame.payload, request_back) &&
          eval::wire::try_decode(response_frame, frame, consumed) ==
              eval::wire::DecodeStatus::kOk &&
          eval::wire::decode_response(frame.payload, response_back);
      if (verify) {
        wire_bytes += request_frame.size() + response_frame.size();
        wire_bad += ok && same_run(response_back.run, responses[i].run) &&
                            request_back.app == requests[i].app
                        ? 0
                        : 1;
      }
    }
  };
  round_trip(true);
  out.layers.set("wire.codec_us",
                 per_call_us(requests.size(), [&] { round_trip(false); }))
      .set("wire.bytes_per_eval",
           static_cast<double>(wire_bytes) /
               static_cast<double>(requests.size()));
  out.check("replay_wire_roundtrip", wire_bad == 0, wire_bad);

  // --- eval/fused + ml: observe / refit / predict on the answers ------------
  {
    obs::Span span("replay.fused", "replay");
    eval::FusedModel model(pinned_service("", nullptr).fused_options());
    for (const TraceKey& key : keys) {
      model.summary(static_cast<kernels::App>(key.first), key.second);
    }
    const std::size_t n = std::min(in.answers.size(), kReplayObservations);
    std::vector<double> observe_us, refit_ms;
    for (std::size_t i = 0; i < n; ++i) {
      const Answer& answer = in.answers[i];
      const Stopwatch watch;
      const bool refit = model.observe(answer.app, answer.config,
                                       static_cast<double>(answer.cycles));
      (refit ? refit_ms : observe_us)
          .push_back(refit ? watch.millis() : watch.seconds() * 1e6);
    }
    double predict_sink = 0.0;
    const Stopwatch predict;
    for (std::size_t i = 0; i < n; ++i) {
      predict_sink += model.predict(in.answers[i].app, in.answers[i].config).cycles;
    }
    out.layers.set("fused.observe_us", mean(observe_us))
        .set("fused.refit_ms", mean(refit_ms))
        .set("fused.predict_us",
             predict.seconds() * 1e6 / static_cast<double>(n));
    out.info.set("replay_refits", static_cast<std::uint64_t>(refit_ms.size()))
        .set("replay_predict_sink", predict_sink);
  }
}

}  // namespace perfbench
