#include "eval/service.hpp"

#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "common/env.hpp"
#include "common/require.hpp"
#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace adse::eval {

namespace {

const isa::Program& empty_program() {
  static const isa::Program program;
  return program;
}

/// Runs `request` on `backend`, with the app's trace when it needs one.
sim::RunResult run_backend(const Backend& backend, const EvalRequest& request,
                           TraceCache& traces) {
  const isa::Program& trace =
      backend.needs_trace()
          ? traces.get(request.app, request.config.core.vector_length_bits)
          : empty_program();
  return backend.run(request.config, request.app, trace);
}

/// The memo tag of a fused model's surrogate answers: one per model, so a
/// second model on the same service never inherits the first's predictions.
std::uint64_t fused_tag(const FusedModel& model) {
  return ResultStore::tag("fused/" + std::to_string(model.id()));
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
  // FNV-1a over the key's 8-byte slots; features are compared (and hashed)
  // by exact bit pattern, which is sound because every feature vector comes
  // out of the same discrete ParameterSpace generation path.
  std::uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  mix(key.tag);
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(key.app)));
  for (double f : key.features) {
    std::uint64_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    mix(bits);
  }
  return static_cast<std::size_t>(hash);
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
                                    : static_cast<int>(adse::batch_k())),
      traces_(&metrics_->counter("eval.trace_hits"),
              &metrics_->counter("eval.trace_builds")) {
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
      if (!slot.power.valid()) {
        // Record migrated from a pre-power (v1) store: rebuild the config
        // from its features and re-run the analytical model. Best effort —
        // area and leakage are exact (pure functions of the config and the
        // cycle count); dynamic energy misses the v2-only event counters,
        // which decode as zero.
        slot.power = power::analyze(config::config_from_features(record.features),
                                    record.core, record.mem);
      }
      slot.from_store = true;
      slot.state = Slot::State::kDone;
      slot.done.store(true, std::memory_order_release);
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

EvalResponse EvalService::join(const EvalRequest& request, const MemoKey& key,
                               bool persist,
                               const std::function<sim::RunResult()>& run) {
  Shard& shard = shard_for(key);
  std::unique_lock<std::mutex> lock(shard.mutex);
  Slot& slot = shard.map[key];
  EvalResponse out;
  shard.cv.wait(lock, [&] { return slot.state != Slot::State::kRunning; });
  if (slot.state == Slot::State::kDone) {
    // An identical concurrent request ran the backend while we waited.
    inflight_joins_->add(1);
    fill_from_slot(request, slot, ResultSource::kInflight, out);
    return out;
  }
  slot.state = Slot::State::kRunning;
  lock.unlock();
  try {
    // Coarse per-simulation span: one event per fresh backend run keeps a
    // 180k-config trace readable and the disabled-tracer cost to a branch.
    obs::Span span("eval.backend_run", "eval");
    const sim::RunResult fresh = run();
    slot.core = fresh.core;
    slot.mem = fresh.mem;
    slot.power = fresh.power;
  } catch (...) {
    // Leave no memo entry: revert the claim and wake waiters so one of them
    // re-claims (and deterministically re-fails, if the failure is the
    // model's).
    lock.lock();
    slot.state = Slot::State::kEmpty;
    lock.unlock();
    shard.cv.notify_all();
    throw;
  }
  lock.lock();
  slot.state = Slot::State::kDone;
  slot.done.store(true, std::memory_order_release);
  lock.unlock();
  shard.cv.notify_all();
  backend_runs_->add(1);
  if (store_ != nullptr && persist) {
    store_->append(
        {key.tag, key.app, key.features, slot.core, slot.mem, slot.power});
  }
  fill_from_slot(request, slot, ResultSource::kBackend, out);
  return out;
}

template <typename Run>
EvalResponse EvalService::serve_one(const EvalRequest& request,
                                    const MemoKey& key, bool persist,
                                    const Run& run) {
  Shard& shard = shard_for(key);
  Slot* slot;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    slot = &shard.map[key];
  }
  requests_->add(1);
  // One named result on every path keeps the hit path free of a copy.
  EvalResponse out;
  if (slot->done.load(std::memory_order_acquire)) {
    const ResultSource source =
        slot->from_store ? ResultSource::kStore : ResultSource::kMemo;
    (slot->from_store ? store_hits_ : memo_hits_)->add(1);
    fill_from_slot(request, *slot, source, out);
  } else {
    out = join(request, key, persist, run);
  }
  return out;
}

EvalResponse EvalService::evaluate_one(const EvalRequest& request,
                                       const Backend* backend) {
  const Backend& chosen = backend != nullptr ? *backend : simulator_;
  return serve_one(request, make_key(request, ResultStore::tag(chosen.key())),
                   chosen.persistable(),
                   [&] { return run_backend(chosen, request, traces_); });
}

EvalResponse EvalService::evaluate_checked(const EvalRequest& request,
                                           const Backend* backend) {
  try {
    return evaluate_one(request, backend);
  } catch (const InvariantError& err) {
    EvalResponse failed;
    failed.status = EvalStatus::kBackendError;
    failed.error = err.what();
    return failed;
  }
}

std::vector<EvalResponse> EvalService::evaluate(
    std::span<const EvalRequest> requests, const EvalPolicy& policy) {
  if (policy.fused != nullptr && policy.fused->options().threshold > 0.0) {
    return evaluate_routed(requests, *policy.fused, policy.backend,
                           policy.progress);
  }
  // Route nothing: the plain all-sim path, bit-identically (no model reads,
  // no observations — the policy is entirely out of the loop).
  return evaluate_plain(requests, policy.backend, policy.progress);
}

std::vector<EvalResponse> EvalService::evaluate_plain(
    std::span<const EvalRequest> requests, const Backend* backend,
    const Progress& progress) {
  std::vector<EvalResponse> out(requests.size());
  if (requests.empty()) return out;
  obs::Span span("eval.batch", "eval");
  span.set_detail(std::to_string(requests.size()) + " requests");
  const Backend& chosen = backend != nullptr ? *backend : simulator_;
  if (batch_k_ > 1 && requests.size() > 1 && chosen.needs_trace()) {
    return evaluate_batched(requests, chosen, batch_k_, progress);
  }
  std::atomic<std::size_t> done{0};
  auto run_one = [&](std::size_t i) {
    out[i] = evaluate_one(requests[i], backend);
    if (progress) progress(done.fetch_add(1) + 1, requests.size());
  };
  if (requests.size() == 1) {
    run_one(0);
  } else {
    pool_.parallel_for(requests.size(), run_one);
  }
  return out;
}

std::vector<EvalResponse> EvalService::evaluate_routed(
    std::span<const EvalRequest> requests, FusedModel& model,
    const Backend* sim_backend, const Progress& progress) {
  const Backend& sim = sim_backend != nullptr ? *sim_backend : simulator_;

  std::vector<EvalResponse> out(requests.size());
  if (requests.empty()) return out;
  obs::Span span("eval.routed_batch", "eval");
  span.set_detail(std::to_string(requests.size()) + " requests");
  const std::uint64_t surrogate_tag = fused_tag(model);
  std::size_t completed = 0;
  const auto note_round = [&](std::size_t done_in_round) {
    completed += done_in_round;
    if (progress) progress(completed, requests.size());
  };

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

    // Real-simulator side (including probes): the normal batched path, then
    // every fresh truth feeds the residual model.
    std::vector<EvalRequest> sim_requests;
    sim_requests.reserve(sim_members.size());
    for (const std::size_t i : sim_members) sim_requests.push_back(window[i]);
    const std::vector<EvalResponse> sim_results =
        evaluate_plain(sim_requests, &sim, {});
    routed_sim_->add(sim_results.size());
    std::array<bool, kernels::kNumApps> refit{};
    for (std::size_t m = 0; m < sim_members.size(); ++m) {
      const EvalRequest& request = window[sim_members[m]];
      out[start + sim_members[m]] = sim_results[m];
      if (model.observe(request.app, request.config,
                        static_cast<double>(sim_results[m].cycles()))) {
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

    // Surrogate side: answers are the gated predictions (re-predicted from
    // the new snapshot for an app that refit above), memoised under this
    // model's tag and never persisted.
    pool_.parallel_for(fused_members.size(), [&](std::size_t m) {
      const std::size_t i = fused_members[m];
      const EvalRequest& request = window[i];
      out[start + i] = serve_one(
          request, make_key(request, surrogate_tag), false, [&] {
            const double cycles =
                refit[static_cast<std::size_t>(request.app)]
                    ? model.predict(request.app, request.config).cycles
                    : predictions[i].cycles;
            return surrogate_result(request.config, request.app, cycles);
          });
    });
    routed_surrogate_->add(fused_members.size());
    note_round(window.size());
  }
  return out;
}

std::vector<EvalResponse> EvalService::evaluate_batched(
    std::span<const EvalRequest> requests, const Backend& backend, int k,
    const Progress& progress) {
  std::vector<EvalResponse> out(requests.size());
  std::atomic<std::size_t> completed{0};
  auto note_done = [&] {
    if (progress) progress(completed.fetch_add(1) + 1, requests.size());
  };

  // Claim phase: resolve every request against the memo. Finished slots are
  // served immediately; empty slots are claimed (state -> kRunning) for the
  // chunked engine passes below; slots another thread (or an earlier
  // duplicate in this very batch) is already running are joined later.
  struct Claimed {
    std::size_t index;  ///< position in `requests` / `out`
    MemoKey key;
  };
  std::vector<Claimed> claimed;
  std::vector<std::pair<std::size_t, MemoKey>> waiting;
  const std::uint64_t tag = ResultStore::tag(backend.key());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const MemoKey key = make_key(requests[i], tag);
    Shard& shard = shard_for(key);
    requests_->add(1);
    std::lock_guard<std::mutex> lock(shard.mutex);
    Slot& slot = shard.map[key];
    if (slot.state == Slot::State::kDone) {
      const ResultSource source =
          slot.from_store ? ResultSource::kStore : ResultSource::kMemo;
      (slot.from_store ? store_hits_ : memo_hits_)->add(1);
      fill_from_slot(requests[i], slot, source, out[i]);
      note_done();
    } else if (slot.state == Slot::State::kEmpty) {
      slot.state = Slot::State::kRunning;
      claimed.push_back({i, key});
    } else {
      waiting.emplace_back(i, key);
    }
  }

  // Group claimed requests by (app, VL) — a batch shares one trace — and
  // chunk each group into K-lane engine passes, farmed across the pool.
  std::map<std::pair<int, int>, std::vector<std::size_t>> groups;
  for (std::size_t c = 0; c < claimed.size(); ++c) {
    const EvalRequest& request = requests[claimed[c].index];
    groups[{static_cast<int>(request.app),
            request.config.core.vector_length_bits}]
        .push_back(c);
  }
  struct Chunk {
    kernels::App app;
    int vl = 0;
    std::span<const std::size_t> members;  ///< indices into `claimed`
  };
  std::vector<Chunk> chunks;
  for (const auto& [app_vl, members] : groups) {
    for (std::size_t start = 0; start < members.size();
         start += static_cast<std::size_t>(k)) {
      const std::size_t width =
          std::min(static_cast<std::size_t>(k), members.size() - start);
      chunks.push_back({static_cast<kernels::App>(app_vl.first), app_vl.second,
                        {members.data() + start, width}});
    }
  }

  auto run_chunk = [&](std::size_t ci) {
    const Chunk& chunk = chunks[ci];
    obs::Span chunk_span("eval.backend_run_batch", "eval");
    chunk_span.set_detail(std::to_string(chunk.members.size()) + " lanes");
    batch_width_->observe(static_cast<double>(chunk.members.size()));
    const isa::Program& trace = traces_.get(chunk.app, chunk.vl);
    std::vector<config::CpuConfig> configs;
    configs.reserve(chunk.members.size());
    for (const std::size_t c : chunk.members) {
      configs.push_back(requests[claimed[c].index].config);
    }
    std::vector<sim::RunResult> results;
    try {
      results = backend.run_batch(configs, chunk.app, trace);
    } catch (...) {
      // Revert every claim in the chunk so no memo entry survives a failed
      // pass; waiters re-claim and re-fail deterministically.
      for (const std::size_t c : chunk.members) {
        Shard& shard = shard_for(claimed[c].key);
        {
          std::lock_guard<std::mutex> lock(shard.mutex);
          shard.map[claimed[c].key].state = Slot::State::kEmpty;
        }
        shard.cv.notify_all();
      }
      throw;
    }
    for (std::size_t lane = 0; lane < chunk.members.size(); ++lane) {
      const std::size_t c = chunk.members[lane];
      const MemoKey& key = claimed[c].key;
      Shard& shard = shard_for(key);
      Slot* slot;
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        slot = &shard.map[key];
        slot->core = results[lane].core;
        slot->mem = results[lane].mem;
        slot->power = results[lane].power;
        slot->state = Slot::State::kDone;
        slot->done.store(true, std::memory_order_release);
      }
      shard.cv.notify_all();
      backend_runs_->add(1);
      if (store_ != nullptr && backend.persistable()) {
        store_->append({key.tag, key.app, key.features, slot->core, slot->mem,
                        slot->power});
      }
      fill_from_slot(requests[claimed[c].index], *slot, ResultSource::kBackend,
                     out[claimed[c].index]);
      note_done();
    }
  };
  if (chunks.size() == 1) {
    run_chunk(0);
  } else if (!chunks.empty()) {
    pool_.parallel_for(chunks.size(), run_chunk);
  }

  // Join phase: wait for slots someone else is running. If a claim was
  // reverted by a failure, take it over on this thread.
  for (const auto& [i, key] : waiting) {
    out[i] = join(requests[i], key, backend.persistable(),
                  [&] { return run_backend(backend, requests[i], traces_); });
    note_done();
  }
  return out;
}

EvalStats EvalService::stats() const {
  EvalStats s;
  s.requests = requests_->value();
  s.backend_runs = backend_runs_->value();
  s.memo_hits = memo_hits_->value();
  s.store_hits = store_hits_->value();
  s.inflight_joins = inflight_joins_->value();
  if (store_ != nullptr) {
    s.store_loaded = store_->loaded().size();
    s.store_appended = store_->appended();
  }
  s.trace_hits = traces_.hits();
  s.trace_builds = traces_.builds();
  // Refresh the sampled gauges so a registry snapshot taken after stats()
  // (the bench/CI artifact path) reflects the pool and store state.
  pool_queue_depth_->set(static_cast<double>(pool_.queue_depth()));
  pool_queue_high_water_->set(static_cast<double>(pool_.max_queue_depth()));
  store_appended_->set(static_cast<double>(s.store_appended));
  return s;
}

std::string EvalService::summary_line() const {
  // Byte-stable with the historical sim::summarize_eval(EvalStats) output:
  // CI's cache-reuse smoke greps "[eval] fresh simulator runs: 0 ".
  const EvalStats s = stats();
  std::ostringstream os;
  os << "[eval] fresh simulator runs: " << s.backend_runs
     << " | requests: " << s.requests << " | memo hits: " << s.memo_hits
     << " | store hits: " << s.store_hits << " | in-flight joins: "
     << s.inflight_joins << " | traces built: " << s.trace_builds;
  return os.str();
}

std::string EvalService::cache_table() const {
  const EvalStats s = stats();
  auto grouped = [](std::uint64_t v) {
    return format_grouped(static_cast<long long>(v));
  };
  std::ostringstream os;
  TextTable table({"evaluation service", "count"});
  table.add_row({"requests served", grouped(s.requests)});
  table.add_row({"fresh backend runs", grouped(s.backend_runs)});
  table.add_row({"memo hits", grouped(s.memo_hits)});
  table.add_row({"result-store hits", grouped(s.store_hits)});
  table.add_row({"in-flight joins", grouped(s.inflight_joins)});
  table.add_row({"cached %", format_fixed(s.hit_fraction() * 100.0, 2)});
  table.add_row({"store records loaded", grouped(s.store_loaded)});
  table.add_row({"store records appended", grouped(s.store_appended)});
  table.add_row({"traces built", grouped(s.trace_builds)});
  table.add_row({"trace-cache hits", grouped(s.trace_hits)});
  os << "evaluation cache decomposition:\n" << table.render();
  return os.str();
}

void EvalService::flush() {
  stats();  // refreshes the sampled gauges
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
