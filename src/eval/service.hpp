#pragma once
/// \file service.hpp
/// The unified evaluation service: every simulation in the repo —
/// campaign rows, DSE batches, bench probes, example binaries — flows
/// through one `EvalService::evaluate()` front-end. The service owns the
/// machinery its callers used to duplicate (thread pool, trace cache) and
/// adds the two layers none of them had:
///
///   * a sharded in-memory memo keyed by (backend, app, feature vector),
///     with in-flight request deduplication — N concurrent requests for the
///     same point cost exactly one backend run;
///   * a persistent append-only result store under the cache dir, so a DSE
///     run, a re-invoked bench binary, or tomorrow's campaign reuse every
///     configuration any previous run already paid to simulate.
///
/// Backends are pluggable (`eval::Backend`): the cycle simulator is the
/// default, the hardware proxy and a forest surrogate ride the same memo.
/// The public request/response/config types live in `eval/api.hpp` (shared
/// with the socket client); `adse::serve` wraps this class in a daemon so
/// the memo, store and surrogates are shared across processes.
///
/// Observability: the service's cache/dedup counters are `obs::Registry`
/// metrics (the shared service reports into the global registry; hermetic
/// services get a private one), each batch and each fresh backend run is a
/// trace span, and `stats()` snapshots everything into `EvalStats`.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "config/cpu_config.hpp"
#include "eval/api.hpp"
#include "eval/backend.hpp"
#include "eval/eval_stats.hpp"
#include "eval/fused.hpp"
#include "eval/result_store.hpp"
#include "eval/trace_cache.hpp"
#include "kernels/workloads.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace adse::eval {

class EvalService final : public Evaluator {
 public:
  /// Batch progress callback; may be invoked concurrently from workers.
  using Progress = eval::Progress;

  explicit EvalService(ServiceConfig config = {});
  ~EvalService() override;

  std::size_t threads() const { return pool_.size(); }

  /// The built-in backends (callers may also bring their own).
  const Backend& simulator() const { return simulator_; }
  const Backend& hardware_proxy() const { return proxy_; }

  /// Evaluates a batch across the pool; results come back in request order.
  /// Duplicate requests — within the batch, across concurrent batches, or
  /// against history — collapse onto a single backend run.
  ///
  /// The policy is the one entry point for both the plain and the routed
  /// path (the old `evaluate_routed`): with `policy.fused` null (or its
  /// threshold <= 0) every request runs on `policy.backend` (default: the
  /// cycle simulator) bit-identically; with a routing model set, requests
  /// whose `allow_surrogate` flag is on are gated per-round on the model's
  /// predictive spread (DESIGN.md §14) — confident ones are answered with
  /// the gate's prediction (memoised per model, never persisted), the rest
  /// (plus every probe_every-th eligible candidate, re-simulated to price
  /// the error in "eval.routing_error_pct") run for real and feed the
  /// model. Counters:
  /// "eval.routed_surrogate", "eval.routed_sim", "eval.fused_probes",
  /// "eval.residual_refits".
  std::vector<EvalResponse> evaluate(std::span<const EvalRequest> requests,
                                     const EvalPolicy& policy);

  /// Evaluator: the policy-free form every client/server-neutral caller
  /// uses (plain path, default backend).
  std::vector<EvalResponse> evaluate(
      std::span<const EvalRequest> requests) override {
    return evaluate(requests, EvalPolicy{});
  }

  /// Single-request form; runs on the calling thread (no pool hop).
  EvalResponse evaluate_one(const EvalRequest& request,
                            const Backend* backend = nullptr);

  /// evaluate_one with model-invariant failures carried as data instead of
  /// unwinding a whole batch: the check fuzzer probes hostile corners of
  /// the design space where a violation is the *signal*, not an abort. A
  /// failed request comes back with `status == EvalStatus::kBackendError`
  /// and the InvariantError message in `error`; it leaves no memo entry, so
  /// replaying it deterministically re-fails.
  EvalResponse evaluate_checked(const EvalRequest& request,
                                const Backend* backend = nullptr);

  /// Shared trace cache (traces depend only on app and vector length).
  const isa::Program& trace(kernels::App app, int vl) {
    return traces_.get(app, vl);
  }

  /// Runs fn(i) for i in [0, count) on the service's pool — for callers
  /// (the DSE scorer) with parallel work that is not an evaluation.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn) {
    pool_.parallel_for(count, fn);
  }

  /// Snapshot of the cache/dedup counters. The live counters are obs
  /// registry metrics ("eval.requests", "eval.backend_runs", ...); this
  /// reads them into the plain EvalStats block, and refreshes the service's
  /// pool/store gauges as a side effect.
  EvalStats stats() const;

  /// The greppable one-line cache summary ("[eval] fresh simulator runs:
  /// ..."), read straight from the registry counters. Byte-stable: CI's
  /// cache-reuse smoke greps its prefix.
  std::string summary_line() const;

  /// The human-readable cache-decomposition table (registry-backed
  /// replacement for the old sim::render_eval_stats(EvalStats) shim path).
  std::string cache_table() const;

  /// The registry this service reports into (its own unless ServiceConfig
  /// supplied one).
  obs::Registry& metrics() const { return *metrics_; }

  /// Flushes persistent state (the result store syncs per-append already;
  /// this fsync-like hook exists for the daemon's drain path) and refreshes
  /// the sampled gauges.
  void flush();

  /// The process-wide service: ServiceConfig::from_env() knobs, persistent
  /// store under the cache dir. Entry points (benches, examples,
  /// campaign/DSE convenience overloads) all share this instance — and
  /// therefore its memo.
  static EvalService& shared();

 private:
  struct MemoKey {
    std::uint64_t tag;  ///< ResultStore::tag of a Backend::key() or a model
    std::int32_t app;
    std::array<double, config::kNumParams> features;

    bool operator==(const MemoKey& other) const {
      return tag == other.tag && app == other.app &&
             features == other.features;
    }
  };

  struct MemoKeyHash {
    std::size_t operator()(const MemoKey& key) const;
  };

  /// One memoised evaluation. unordered_map nodes are address-stable, so a
  /// slot reference survives the shard lock being dropped; `done` flips
  /// (release) only after the stat blocks are written, and readers check it
  /// with acquire before touching them.
  ///
  /// `state` (guarded by the shard mutex) is the claim latch: a request
  /// finding kEmpty flips it to kRunning and owns the backend run — scalar
  /// callers run inline, the batched dispatcher claims many slots and runs
  /// them as one engine pass. Waiters block on the shard condition variable
  /// until kDone. A failed run reverts to kEmpty (and wakes waiters, one of
  /// which re-claims), so a violating request leaves no memo entry — the
  /// behaviour evaluate_checked and the check fuzzer rely on.
  struct Slot {
    enum class State : std::uint8_t { kEmpty, kRunning, kDone };
    State state = State::kEmpty;
    std::atomic<bool> done{false};
    bool from_store = false;
    core::CoreStats core;
    mem::MemStats mem;
    power::PowerResult power;
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;
    std::unordered_map<MemoKey, Slot, MemoKeyHash> map;
  };

  static constexpr std::size_t kNumShards = 16;

  Shard& shard_for(const MemoKey& key);

  MemoKey make_key(const EvalRequest& request, std::uint64_t tag) const;

  /// Serves `out` from a finished slot, attributing the hit. Caller ensures
  /// the slot is done (acquire-loaded or seen kDone under the shard lock).
  void fill_from_slot(const EvalRequest& request, const Slot& slot,
                      ResultSource source, EvalResponse& out);

  /// Resolves a request whose slot was not done when probed: joins a run
  /// in flight (kInflight), or claims the slot and answers it with `run()`
  /// on the calling thread (kBackend; persisted when `persist`). A failed
  /// run reverts the claim, so it leaves no memo entry.
  EvalResponse join(const EvalRequest& request, const MemoKey& key,
                    bool persist, const std::function<sim::RunResult()>& run);

  /// One request through the memo on the calling thread: a done slot is
  /// served as a hit, anything else goes to join(). `run` is a callable
  /// returning sim::RunResult.
  template <typename Run>
  EvalResponse serve_one(const EvalRequest& request, const MemoKey& key,
                         bool persist, const Run& run);

  /// The plain (non-routed) batch path behind evaluate().
  std::vector<EvalResponse> evaluate_plain(std::span<const EvalRequest> requests,
                                           const Backend* backend,
                                           const Progress& progress);

  /// The uncertainty-gated routing policy (DESIGN.md §14) behind
  /// evaluate() when a fused model is supplied.
  std::vector<EvalResponse> evaluate_routed(std::span<const EvalRequest> requests,
                                            FusedModel& model,
                                            const Backend* sim_backend,
                                            const Progress& progress);

  /// The batched dispatch path: groups claimable fresh requests by
  /// (app, VL), chunks them into `k`-lane batches, and runs each chunk
  /// through Backend::run_batch on the pool.
  std::vector<EvalResponse> evaluate_batched(std::span<const EvalRequest> requests,
                                             const Backend& backend, int k,
                                             const Progress& progress);

  ServiceConfig options_;
  /// Present only when options_.registry was null (hermetic service).
  std::unique_ptr<obs::Registry> own_metrics_;
  obs::Registry* metrics_;
  // Cached registry metrics — the single source of truth EvalStats reads.
  obs::Counter* requests_;
  obs::Counter* backend_runs_;
  obs::Counter* memo_hits_;
  obs::Counter* store_hits_;
  obs::Counter* inflight_joins_;
  obs::Counter* routed_surrogate_;
  obs::Counter* routed_sim_;
  obs::Counter* fused_probes_;
  obs::Counter* residual_refits_;
  obs::Histogram* routing_error_pct_;
  obs::Histogram* batch_width_;
  obs::Gauge* pool_threads_;
  obs::Gauge* pool_queue_depth_;
  obs::Gauge* pool_queue_high_water_;
  obs::Gauge* store_loaded_;
  obs::Gauge* store_appended_;
  ThreadPool pool_;
  /// Batch width ceiling (ServiceConfig::batch_k, env-inherited when 0);
  /// <= 1 keeps every request on the scalar path.
  int batch_k_;
  TraceCache traces_;
  SimulatorBackend simulator_;
  HardwareProxyBackend proxy_;
  std::unique_ptr<ResultStore> store_;
  std::array<Shard, kNumShards> shards_;
};

}  // namespace adse::eval
