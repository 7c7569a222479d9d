#include "eval/service.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

#include "common/env.hpp"
#include "common/hash.hpp"
#include "common/require.hpp"
#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace adse::eval {

namespace {

/// The memo tag of a fused model's surrogate answers: one per model, so a
/// second model on the same service never inherits the first's predictions.
std::uint64_t fused_tag(const FusedModel& model) {
  return ResultStore::tag("fused/" + std::to_string(model.id()));
}

/// A process-wide trace counter: sim::trace counts into the global registry,
/// since its artifacts are shared by every service in the process.
std::uint64_t trace_count(const char* name) {
  return obs::Registry::global().counter(name).value();
}

}  // namespace

const char* status_name(EvalStatus status) {
  switch (status) {
    case EvalStatus::kOk: return "ok";
    case EvalStatus::kBadRequest: return "bad-request";
    case EvalStatus::kBadFrame: return "bad-frame";
    case EvalStatus::kVersionMismatch: return "version-mismatch";
    case EvalStatus::kBackendError: return "backend-error";
    case EvalStatus::kDraining: return "draining";
    case EvalStatus::kTimeout: return "timeout";
    case EvalStatus::kDisconnected: return "disconnected";
    case EvalStatus::kInternal: return "internal";
  }
  return "unknown";
}

void require_ok(std::span<const EvalResponse> responses) {
  for (const EvalResponse& response : responses) {
    if (!response.ok()) throw InvariantError(response.error);
  }
}

ServiceConfig ServiceConfig::from_env() {
  // The single read site for the knobs the service layers used to getenv
  // piecemeal; everything downstream consumes the resolved struct.
  ServiceConfig config;
  config.threads = static_cast<int>(num_threads());
  config.batch_k = static_cast<int>(adse::batch_k());
  config.fused_threshold = adse::fused_threshold();
  config.probe_every = static_cast<int>(adse::fused_probe_every());
  return config;
}

FusedOptions ServiceConfig::fused_options() const {
  FusedOptions options = fused_options_from_env();
  if (fused_threshold >= 0.0) options.threshold = fused_threshold;
  if (probe_every >= 0) options.probe_every = probe_every;
  return options;
}

std::size_t EvalService::MemoKeyHash::operator()(const MemoKey& key) const {
  // Word-wise FNV-1a (common/hash.hpp) over the key's 8-byte slots; features
  // are compared (and hashed) by exact bit pattern, which is sound because
  // every feature vector comes out of the same discrete ParameterSpace
  // generation path. Nothing iterates the memo maps, so the hash only places
  // keys in shards and buckets.
  std::uint64_t h = hash::mix_word(hash::kFnvOffset, key.tag);
  h = hash::mix_word(
      h, static_cast<std::uint64_t>(static_cast<std::int64_t>(key.app)));
  for (double f : key.features) h = hash::mix_double(h, f);
  return static_cast<std::size_t>(h);
}

EvalService::Shard& EvalService::shard_for(const MemoKey& key) {
  return shards_[MemoKeyHash{}(key) % kNumShards];
}

EvalService::EvalService(ServiceConfig config)
    : options_(std::move(config)),
      own_metrics_(options_.registry != nullptr
                       ? nullptr
                       : std::make_unique<obs::Registry>()),
      metrics_(options_.registry != nullptr ? options_.registry
                                            : own_metrics_.get()),
      requests_(&metrics_->counter("eval.requests")),
      backend_runs_(&metrics_->counter("eval.backend_runs")),
      sim_runs_(&metrics_->counter("eval.sim_runs")),
      memo_hits_(&metrics_->counter("eval.memo_hits")),
      store_hits_(&metrics_->counter("eval.store_hits")),
      inflight_joins_(&metrics_->counter("eval.inflight_joins")),
      routed_surrogate_(&metrics_->counter("eval.routed_surrogate")),
      routed_sim_(&metrics_->counter("eval.routed_sim")),
      fused_probes_(&metrics_->counter("eval.fused_probes")),
      residual_refits_(&metrics_->counter("eval.residual_refits")),
      routing_error_pct_(&metrics_->histogram("eval.routing_error_pct")),
      batch_width_(&metrics_->histogram("eval.batch_width")),
      pool_threads_(&metrics_->gauge("eval.pool_threads")),
      pool_queue_depth_(&metrics_->gauge("eval.pool_queue_depth")),
      pool_queue_high_water_(&metrics_->gauge("eval.pool_queue_high_water")),
      store_loaded_(&metrics_->gauge("eval.store_loaded")),
      store_appended_(&metrics_->gauge("eval.store_appended")),
      pool_(static_cast<std::size_t>(
          options_.threads > 0 ? options_.threads
                               : static_cast<int>(num_threads()))),
      batch_k_(options_.batch_k > 0 ? options_.batch_k
                                    : static_cast<int>(adse::batch_k())) {
  // Teardown-order pin: pool workers may emit spans (and, for services on
  // the global registry, counter adds) right up until ~EvalService joins
  // them — which for the process-wide service happens during exit's static
  // destruction. Touching the tracer here guarantees it is constructed
  // before this service completes construction, so C++ destroys it *after*
  // the pool is gone. (Registry::global() is pinned the same way by
  // shared(); hermetic services own their registry as a member.)
  obs::Tracer::global();
  pool_threads_->set(static_cast<double>(pool_.size()));
  if (!options_.store_path.empty()) {
    store_ = std::make_unique<ResultStore>(options_.store_path,
                                           options_.verbose);
    // Pre-warm the memo with everything previous runs paid for. Duplicate
    // records (two processes appending the same point) collapse on insert.
    for (const StoreRecord& record : store_->loaded()) {
      MemoKey key{record.backend_tag, record.app, record.features};
      Shard& shard = shard_for(key);
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto [it, inserted] = shard.map.try_emplace(key);
      if (!inserted) continue;
      Slot& slot = it->second;
      slot.core = record.core;
      slot.mem = record.mem;
      slot.power = record.power;
      slot.from_store = true;
      slot.state = Slot::State::kDone;
    }
    store_loaded_->set(static_cast<double>(store_->loaded().size()));
    if (options_.verbose && !store_->loaded().empty()) {
      obs::logf(obs::LogLevel::kInfo,
                "[eval] warm result store: %zu records from %s\n",
                store_->loaded().size(), store_->path().c_str());
    }
  }
}

EvalService::~EvalService() = default;

EvalService::MemoKey EvalService::make_key(const EvalRequest& request,
                                           std::uint64_t tag) const {
  return MemoKey{tag, static_cast<std::int32_t>(request.app),
                 config::feature_vector(request.config)};
}

void EvalService::fill_from_slot(const EvalRequest& request, const Slot& slot,
                                 ResultSource source, EvalResponse& out) {
  out.status = EvalStatus::kOk;
  out.source = source;
  // Labels are reconstructed from the request so cached and fresh results
  // are indistinguishable (traces are named by app slug).
  out.run.app = kernels::app_slug(request.app);
  out.run.config_name = request.config.name;
  out.run.core = slot.core;
  out.run.mem = slot.mem;
  out.run.power = slot.power;
}

EvalService::ChunkRunner EvalService::backend_runner(const Backend& backend) {
  const auto run = [this, &backend](std::span<const EvalRequest> requests,
                                    std::span<const std::size_t> members) {
    batch_width_->observe(static_cast<double>(members.size()));
    const EvalRequest& first = requests[members.front()];
    std::vector<config::CpuConfig> configs;
    configs.reserve(members.size());
    for (const std::size_t i : members) configs.push_back(requests[i].config);
    return backend.run_batch(
        configs, first.app,
        sim::trace(first.app, first.config.core.vector_length_bits));
  };
  const auto trace_length = [](const EvalRequest& request) {
    return sim::trace(request.app, request.config.core.vector_length_bits)
        .size();
  };
  return {run, trace_length};
}

std::optional<std::string> EvalService::run_chunk(
    std::span<const EvalRequest> requests, std::span<const Claim> claims,
    bool persist, const RunChunk& run, std::span<EvalResponse> out) {
  obs::Span span("eval.backend_run_batch", "eval");
  span.set_detail(std::to_string(claims.size()) + " lanes");
  std::vector<std::size_t> members;
  members.reserve(claims.size());
  for (const Claim& claim : claims) members.push_back(claim.index);
  // Leave no memo entry for a failed run: revert every claim and wake the
  // waiters, one of which re-claims (and re-fails, if the fault is its own).
  const auto revert = [&] {
    for (const Claim& claim : claims) {
      {
        std::lock_guard<std::mutex> lock(claim.shard->mutex);
        claim.slot->state = Slot::State::kEmpty;
      }
      claim.shard->cv.notify_all();
    }
  };
  std::vector<sim::RunResult> results;
  try {
    results = run(requests, members);
    ADSE_REQUIRE_MSG(results.size() == claims.size(),
                     "backend answered " << results.size() << " of "
                                         << claims.size() << " lanes");
  } catch (const InvariantError& err) {
    revert();
    return err.what();
  } catch (...) {
    revert();
    throw;
  }
  for (std::size_t lane = 0; lane < claims.size(); ++lane) {
    const Claim& claim = claims[lane];
    Slot& slot = *claim.slot;
    {
      std::lock_guard<std::mutex> lock(claim.shard->mutex);
      slot.core = results[lane].core;
      slot.mem = results[lane].mem;
      slot.power = results[lane].power;
      slot.state = Slot::State::kDone;
    }
    claim.shard->cv.notify_all();
    backend_runs_->add(1);
    if (persist) {
      sim_runs_->add(1);
      if (store_ != nullptr) {
        store_->append({claim.key->tag, claim.key->app, claim.key->features,
                        slot.core, slot.mem, slot.power});
      }
    }
    fill_from_slot(requests[claim.index], slot, ResultSource::kBackend,
                   out[claim.index]);
  }
  return std::nullopt;
}

std::vector<EvalResponse> EvalService::run_pipeline(
    std::span<const EvalRequest> requests, std::uint64_t tag, bool persist,
    const ChunkRunner& runner, const Progress& progress) {
  std::vector<EvalResponse> out(requests.size());
  std::atomic<std::size_t> completed{0};
  const auto note_done = [&] {
    if (progress) progress(completed.fetch_add(1) + 1, requests.size());
  };

  // 1. Resolve and claim. Each request's memo entry is found or inserted
  // across the pool (a single request inline), so hashing and new entries
  // are spread over the workers; claims are then taken in request order, so
  // which of two duplicates claims does not depend on the pool. A finished
  // slot is answered now; an empty one is claimed (state -> kRunning) for
  // this call's chunks; a running one — another caller's, or an earlier
  // duplicate in this batch — is joined in step 4.
  std::vector<Claim> resolved(requests.size());
  const auto resolve = [&](std::size_t i) {
    const MemoKey key = make_key(requests[i], tag);
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto& entry = *shard.map.try_emplace(key).first;
    resolved[i] = {i, &shard, &entry.first, &entry.second};
  };
  if (requests.size() == 1) {
    resolve(0);
  } else {
    pool_.parallel_for(requests.size(), resolve);
  }
  std::vector<Claim> claims;
  std::vector<Claim> joins;
  for (const Claim& claim : resolved) {
    Slot::State state;
    {
      std::lock_guard<std::mutex> lock(claim.shard->mutex);
      state = claim.slot->state;
      if (state == Slot::State::kEmpty) {
        claim.slot->state = Slot::State::kRunning;
      }
    }
    requests_->add(1);
    if (state == Slot::State::kDone) {
      const bool stored = claim.slot->from_store;
      (stored ? store_hits_ : memo_hits_)->add(1);
      fill_from_slot(requests[claim.index], *claim.slot,
                     stored ? ResultSource::kStore : ResultSource::kMemo,
                     out[claim.index]);
      note_done();
    } else {
      (state == Slot::State::kEmpty ? claims : joins).push_back(claim);
    }
  }

  // 2. Chunk the claims. A pipeline with at most batch_k claims per runner
  // (the pool's threads plus the caller) — a routed round's sims, a small
  // daemon batch — runs one lane per chunk, longest first by the runner's
  // lane cost, so no runner idles while another works through a multi-lane
  // chunk or starts the longest run last. A larger one groups its claims by
  // (app, VL) — a chunk shares one trace — into chunks of at most batch_k
  // lanes, in request order within a group.
  const std::size_t k = static_cast<std::size_t>(std::max(batch_k_, 1));
  std::vector<std::span<const Claim>> chunks;
  if (claims.size() <= k * (pool_.size() + 1)) {
    if (runner.lane_cost) {
      std::vector<std::pair<std::size_t, Claim>> ranked;
      ranked.reserve(claims.size());
      for (const Claim& claim : claims) {
        ranked.emplace_back(runner.lane_cost(requests[claim.index]), claim);
      }
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const auto& a, const auto& b) {
                         return a.first > b.first;
                       });
      for (std::size_t i = 0; i < claims.size(); ++i) {
        claims[i] = ranked[i].second;
      }
    }
    for (const Claim& claim : claims) chunks.emplace_back(&claim, 1);
  } else {
    const auto group = [&](const Claim& claim) {
      const EvalRequest& request = requests[claim.index];
      return std::pair{static_cast<int>(request.app),
                       request.config.core.vector_length_bits};
    };
    std::stable_sort(claims.begin(), claims.end(),
                     [&](const Claim& a, const Claim& b) {
                       return group(a) < group(b);
                     });
    for (std::size_t begin = 0; begin < claims.size();) {
      std::size_t end = begin + 1;
      while (end < claims.size() && end - begin < k &&
             group(claims[end]) == group(claims[begin])) {
        ++end;
      }
      chunks.emplace_back(claims.data() + begin, end - begin);
      begin = end;
    }
  }

  // 3. Run the chunks across the pool (a single chunk inline). A failed
  // chunk was reverted; a lone member has failed by itself, the members of
  // a wider one join in step 4 and run alone there.
  const auto fail = [&](const Claim& claim, std::string error) {
    out[claim.index].status = EvalStatus::kBackendError;
    out[claim.index].error = std::move(error);
    note_done();
  };
  std::vector<std::optional<std::string>> errors(chunks.size());
  const auto run_one = [&](std::size_t c) {
    errors[c] = run_chunk(requests, chunks[c], persist, runner.run, out);
    if (errors[c]) return;
    for (std::size_t lane = 0; lane < chunks[c].size(); ++lane) note_done();
  };
  if (chunks.size() == 1) {
    run_one(0);
  } else if (!chunks.empty()) {
    pool_.parallel_for(chunks.size(), run_one);
  }
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    if (!errors[c]) continue;
    if (chunks[c].size() == 1) {
      fail(chunks[c].front(), std::move(*errors[c]));
    } else {
      joins.insert(joins.end(), chunks[c].begin(), chunks[c].end());
    }
  }

  // 4. Join: wait out slots another caller is running. A slot left empty by
  // a failed run is re-claimed and run alone, so only a request that fails
  // by itself is answered kBackendError.
  for (const Claim& claim : joins) {
    std::unique_lock<std::mutex> lock(claim.shard->mutex);
    claim.shard->cv.wait(
        lock, [&] { return claim.slot->state != Slot::State::kRunning; });
    if (claim.slot->state == Slot::State::kDone) {
      lock.unlock();
      inflight_joins_->add(1);
      fill_from_slot(requests[claim.index], *claim.slot,
                     ResultSource::kInflight, out[claim.index]);
    } else {
      claim.slot->state = Slot::State::kRunning;
      lock.unlock();
      if (auto error =
              run_chunk(requests, {&claim, 1}, persist, runner.run, out)) {
        fail(claim, std::move(*error));
        continue;
      }
    }
    note_done();
  }
  return out;
}

std::vector<EvalResponse> EvalService::evaluate(
    std::span<const EvalRequest> requests, const EvalPolicy& policy) {
  const Backend& backend =
      policy.backend != nullptr ? *policy.backend : simulator_;
  if (policy.fused != nullptr && policy.fused->options().threshold > 0.0) {
    return evaluate_routed(requests, *policy.fused, backend, policy.progress);
  }
  // Route nothing: every request runs on the backend, bit-identically (no
  // model reads, no observations — the policy is out of the loop).
  obs::Span span("eval.batch", "eval");
  span.set_detail(std::to_string(requests.size()) + " requests");
  return run_pipeline(requests, ResultStore::tag(backend.key()), true,
                      backend_runner(backend), policy.progress);
}

std::vector<EvalResponse> EvalService::evaluate_routed(
    std::span<const EvalRequest> requests, FusedModel& model,
    const Backend& sim, const Progress& progress) {
  std::vector<EvalResponse> out(requests.size());
  if (requests.empty()) return out;
  obs::Span span("eval.routed_batch", "eval");
  span.set_detail(std::to_string(requests.size()) + " requests");
  const std::uint64_t sim_tag = ResultStore::tag(sim.key());
  const std::uint64_t surrogate_tag = fused_tag(model);

  const std::size_t round =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   model.options().round_size));
  for (std::size_t start = 0; start < requests.size(); start += round) {
    const std::span<const EvalRequest> window =
        requests.subspan(start, std::min(round, requests.size() - start));

    // Gate each candidate with the model as of the previous round: predict
    // on the pool (requests with allow_surrogate off stay not-ready), then
    // apply the threshold and the probe clock in request order, so routing
    // does not depend on the thread count. A probe is a surrogate-eligible
    // candidate the probe clock diverts to the simulator anyway — its
    // prediction is remembered so truth can price it.
    std::vector<FusedPrediction> predictions(window.size());
    pool_.parallel_for(window.size(), [&](std::size_t i) {
      if (window[i].allow_surrogate) {
        predictions[i] = model.predict(window[i].app, window[i].config);
      }
    });
    std::vector<std::size_t> sim_members;     // window-relative indices
    std::vector<std::size_t> fused_members;
    std::vector<std::pair<std::size_t, double>> probes;  // (member, predicted)
    for (std::size_t i = 0; i < window.size(); ++i) {
      const bool eligible = predictions[i].ready &&
                            predictions[i].spread < model.options().threshold;
      if (eligible && model.take_probe_tick()) {
        probes.emplace_back(sim_members.size(), predictions[i].cycles);
        sim_members.push_back(i);
      } else if (eligible) {
        fused_members.push_back(i);
      } else {
        sim_members.push_back(i);
      }
    }
    const auto gather = [&](const std::vector<std::size_t>& members) {
      std::vector<EvalRequest> gathered;
      gathered.reserve(members.size());
      for (const std::size_t i : members) gathered.push_back(window[i]);
      return gathered;
    };
    const auto scatter = [&](const std::vector<std::size_t>& members,
                             std::vector<EvalResponse>& results) {
      for (std::size_t m = 0; m < members.size(); ++m) {
        out[start + members[m]] = std::move(results[m]);
      }
    };

    // Real-simulator side (including probes): the pipeline on the backend,
    // then every fresh truth feeds the residual model.
    const std::vector<EvalRequest> sim_requests = gather(sim_members);
    std::vector<EvalResponse> sim_results =
        run_pipeline(sim_requests, sim_tag, true, backend_runner(sim), {});
    routed_sim_->add(sim_results.size());
    std::array<bool, kernels::kNumApps> refit{};
    for (std::size_t m = 0; m < sim_members.size(); ++m) {
      const EvalRequest& request = sim_requests[m];
      if (sim_results[m].ok() &&
          model.observe(request.app, request.config,
                        static_cast<double>(sim_results[m].cycles()),
                        &pool_)) {
        refit[static_cast<std::size_t>(request.app)] = true;
        residual_refits_->add(1);
      }
    }
    for (const auto& [m, predicted] : probes) {
      fused_probes_->add(1);
      const double truth = static_cast<double>(sim_results[m].cycles());
      if (truth > 0.0) {
        routing_error_pct_->observe(std::abs(predicted - truth) / truth *
                                    100.0);
      }
    }
    scatter(sim_members, sim_results);

    // Surrogate side: the same pipeline with a trace-free runner whose
    // answers are the gated predictions (re-predicted from the new snapshot
    // for an app that refit above), memoised under this model's tag and
    // never persisted. It has no lane cost, so it never builds a trace.
    const ChunkRunner surrogate{
        .run = [&](std::span<const EvalRequest> batch,
                   std::span<const std::size_t> members) {
          std::vector<sim::RunResult> answers;
          answers.reserve(members.size());
          for (const std::size_t m : members) {
            const EvalRequest& request = batch[m];
            const double cycles =
                refit[static_cast<std::size_t>(request.app)]
                    ? model.predict(request.app, request.config).cycles
                    : predictions[fused_members[m]].cycles;
            answers.push_back(
                surrogate_result(request.config, request.app, cycles));
          }
          return answers;
        },
        .lane_cost = nullptr};
    const std::vector<EvalRequest> fused_requests = gather(fused_members);
    std::vector<EvalResponse> fused_results = run_pipeline(
        fused_requests, surrogate_tag, false, surrogate, {});
    scatter(fused_members, fused_results);
    routed_surrogate_->add(fused_members.size());
    if (progress) progress(start + window.size(), requests.size());
  }
  return out;
}

void EvalService::refresh_gauges() const {
  pool_queue_depth_->set(static_cast<double>(pool_.queue_depth()));
  pool_queue_high_water_->set(static_cast<double>(pool_.max_queue_depth()));
  if (store_ != nullptr) {
    store_appended_->set(static_cast<double>(store_->appended()));
  }
}

std::string EvalService::summary_line() const {
  // Byte-stable: CI's cache-reuse smoke greps
  // "[eval] fresh simulator runs: 0 ". Only the simulator's runs count
  // here; a routed campaign's surrogate answers are backend runs too.
  refresh_gauges();
  std::ostringstream os;
  os << "[eval] fresh simulator runs: " << sim_runs_->value()
     << " | requests: " << requests_->value()
     << " | memo hits: " << memo_hits_->value()
     << " | store hits: " << store_hits_->value()
     << " | in-flight joins: " << inflight_joins_->value()
     << " | traces built: " << trace_count("eval.trace_builds");
  return os.str();
}

std::string EvalService::cache_table() const {
  refresh_gauges();
  const std::uint64_t requests = requests_->value();
  const std::uint64_t cached = memo_hits_->value() + store_hits_->value() +
                               inflight_joins_->value();
  const double cached_pct =
      requests == 0 ? 0.0
                    : static_cast<double>(cached) /
                          static_cast<double>(requests) * 100.0;
  auto grouped = [](std::uint64_t v) {
    return format_grouped(static_cast<long long>(v));
  };
  TextTable table({"evaluation service", "count"});
  table.add_row({"requests served", grouped(requests)});
  table.add_row({"fresh backend runs", grouped(backend_runs_->value())});
  table.add_row({"memo hits", grouped(memo_hits_->value())});
  table.add_row({"result-store hits", grouped(store_hits_->value())});
  table.add_row({"in-flight joins", grouped(inflight_joins_->value())});
  table.add_row({"cached %", format_fixed(cached_pct, 2)});
  table.add_row({"store records loaded",
                 grouped(store_ ? store_->loaded().size() : 0)});
  table.add_row({"store records appended",
                 grouped(store_ ? store_->appended() : 0)});
  table.add_row({"traces built", grouped(trace_count("eval.trace_builds"))});
  table.add_row({"trace-cache hits", grouped(trace_count("eval.trace_hits"))});
  std::ostringstream os;
  os << "evaluation cache decomposition:\n" << table.render();
  return os.str();
}

void EvalService::flush() {
  refresh_gauges();
  if (store_ != nullptr) store_->flush();
}

EvalService& EvalService::shared() {
  // The cache dir and env knobs are read once, at first use; every entry
  // point that goes through the shared service inherits them. Touching
  // Registry::global() inside the initializer pins it ahead of the service
  // in static-destruction order: exit-time teardown destroys the service
  // (joining its pool) while the registry its counters live in is still
  // alive.
  static EvalService service([] {
    ServiceConfig config = ServiceConfig::from_env();
    config.store_path = cache_dir() + "/eval_store.bin";
    config.verbose = true;
    config.registry = &obs::Registry::global();
    return config;
  }());
  return service;
}

}  // namespace adse::eval
