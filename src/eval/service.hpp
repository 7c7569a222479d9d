#pragma once
/// \file service.hpp
/// The unified evaluation service: every simulation in the repo —
/// campaign rows, DSE batches, bench probes, example binaries — flows
/// through one `EvalService::evaluate()` front-end. The service owns the
/// machinery its callers used to duplicate (the thread pool; traces are the
/// process-wide sim::trace artifacts) and adds the two layers none of them
/// had:
///
///   * a sharded in-memory memo keyed by (backend, app, feature vector),
///     with in-flight request deduplication — N concurrent requests for the
///     same point cost exactly one backend run;
///   * a persistent append-only result store under the cache dir, so a DSE
///     run, a re-invoked bench binary, or tomorrow's campaign reuse every
///     configuration any previous run already paid to simulate.
///
/// Every request — plain or routed, one or a campaign's thousands — takes
/// one pipeline: resolve and claim against the memo, group the claims by
/// (app, VL) into engine passes, run them on the pool, join what another
/// caller is running. Model failures come back as data (`EvalStatus`), not
/// as exceptions. The backend is pluggable (`eval::Backend`); the cycle
/// simulator is the default. The public request/response/config types live
/// in `eval/api.hpp` (shared with the socket client); `adse::serve` wraps
/// this class in a daemon so the memo, store and surrogate are shared
/// across processes.
///
/// Observability: the service's cache/dedup counters are `obs::Registry`
/// metrics (the shared service reports into the global registry; hermetic
/// services get a private one), and each batch and each engine pass is a
/// trace span.

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "config/cpu_config.hpp"
#include "eval/api.hpp"
#include "eval/backend.hpp"
#include "eval/fused.hpp"
#include "eval/result_store.hpp"
#include "kernels/workloads.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace adse::eval {

class EvalService final : public Evaluator {
 public:
  /// Batch progress callback; may be invoked concurrently from workers.
  using Progress = eval::Progress;

  explicit EvalService(ServiceConfig config = {});
  ~EvalService() override;

  std::size_t threads() const { return pool_.size(); }

  /// The built-in backend (callers may also bring their own).
  const Backend& simulator() const { return simulator_; }

  /// Evaluates a batch; results come back in request order. Duplicate
  /// requests — within the batch, across concurrent batches, or against
  /// history — collapse onto a single backend run. Never throws a model
  /// InvariantError: a request whose run fails alone comes back with
  /// `EvalStatus::kBackendError` and the message in `error`, and leaves no
  /// memo entry, so replaying it re-runs (and re-fails) deterministically.
  ///
  /// With `policy.fused` null (or its threshold <= 0) every request runs on
  /// `policy.backend` (default: the cycle simulator) bit-identically; with a
  /// routing model set, requests whose `allow_surrogate` flag is on are
  /// gated per-round on the model's predictive spread (DESIGN.md §14) —
  /// confident ones are answered with the gate's prediction (memoised per
  /// model, never persisted), the rest (plus every probe_every-th eligible
  /// candidate, re-simulated to price the error in "eval.routing_error_pct")
  /// run for real and feed the model. Counters: "eval.routed_surrogate",
  /// "eval.routed_sim", "eval.fused_probes", "eval.residual_refits".
  std::vector<EvalResponse> evaluate(std::span<const EvalRequest> requests,
                                     const EvalPolicy& policy);

  /// Evaluator: the policy-free form every client/server-neutral caller
  /// uses (plain path, default backend).
  std::vector<EvalResponse> evaluate(
      std::span<const EvalRequest> requests) override {
    return evaluate(requests, EvalPolicy{});
  }

  /// The process-wide trace artifact for (app, vl) (sim::trace).
  const sim::Trace& trace(kernels::App app, int vl) {
    return sim::trace(app, vl);
  }

  /// Runs fn(i) for i in [0, count) on the service's pool — for callers
  /// (the DSE scorer) with parallel work that is not an evaluation.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn) {
    pool_.parallel_for(count, fn);
  }

  /// The greppable one-line cache summary ("[eval] fresh simulator runs:
  /// ..."), read straight from the registry counters. Byte-stable: CI's
  /// cache-reuse smoke greps its prefix.
  std::string summary_line() const;

  /// The human-readable cache-decomposition table, read from the registry.
  std::string cache_table() const;

  /// The registry this service reports into (its own unless ServiceConfig
  /// supplied one).
  obs::Registry& metrics() const { return *metrics_; }

  /// Flushes persistent state (the result store syncs per-append already;
  /// this fsync-like hook exists for the daemon's drain path) and refreshes
  /// the sampled pool/store gauges, so a registry snapshot taken after it
  /// reflects them.
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
  /// slot pointer survives the shard lock being dropped.
  ///
  /// `state` (guarded by the shard mutex) is the claim latch: a request
  /// finding kEmpty flips it to kRunning and owns the backend run; others
  /// block on the shard condition variable until kDone. A failed run reverts
  /// to kEmpty (and wakes waiters, one of which re-claims), so a failing
  /// request leaves no memo entry. The stat blocks are written before the
  /// flip to kDone and never change after it, so a reader that saw kDone
  /// under the lock may copy them without it.
  struct Slot {
    enum class State : std::uint8_t { kEmpty, kRunning, kDone };
    State state = State::kEmpty;
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

  /// A request's memo entry, held by the pipeline between claim and answer.
  struct Claim {
    std::size_t index;  ///< position in the batch
    Shard* shard;
    const MemoKey* key;  ///< the entry's key, address-stable like its slot
    Slot* slot;
  };

  /// Answers a chunk of a batch's requests — the members, which share an app
  /// and vector length — with one result per member, in member order.
  using RunChunk = std::function<std::vector<sim::RunResult>(
      std::span<const EvalRequest> batch, std::span<const std::size_t> members)>;

  /// How a pipeline answers its claims. `lane_cost`, when set, ranks one
  /// request's run time, and a small pipeline starts its one-lane chunks
  /// in falling cost order. The backend runner ranks by trace length; the
  /// surrogate runner sets none, so it never builds a trace.
  struct ChunkRunner {
    RunChunk run;
    std::function<std::size_t(const EvalRequest&)> lane_cost;
  };

  Shard& shard_for(const MemoKey& key);

  MemoKey make_key(const EvalRequest& request, std::uint64_t tag) const;

  /// Serves `out` from a finished slot, attributing the hit.
  void fill_from_slot(const EvalRequest& request, const Slot& slot,
                      ResultSource source, EvalResponse& out);

  /// The one evaluation pipeline (DESIGN.md §8): resolve and claim every
  /// request against the memo under `tag`; chunk the claims — one lane per
  /// chunk, longest first, when there are at most batch_k per runner (pool
  /// threads plus the caller), else grouped by (app, VL) into chunks of at
  /// most batch_k lanes; run the chunks through `runner` on the pool (a
  /// single chunk inline); join the requests whose slots another caller is
  /// running. A chunk that throws InvariantError is reverted: a one-lane
  /// chunk's request fails with kBackendError, the members of a wider one
  /// are re-claimed and run alone in the join step. With `persist`, the
  /// runner runs a backend: its fresh answers are stored and counted
  /// in eval.sim_runs; the surrogate pipeline passes false.
  std::vector<EvalResponse> run_pipeline(std::span<const EvalRequest> requests,
                                         std::uint64_t tag, bool persist,
                                         const ChunkRunner& runner,
                                         const Progress& progress);

  /// Runs `claims` as one chunk and publishes the answers into `out`
  /// (indexed by Claim::index). If `run` throws InvariantError, reverts
  /// every claim and returns the message instead.
  std::optional<std::string> run_chunk(std::span<const EvalRequest> requests,
                                       std::span<const Claim> claims,
                                       bool persist, const RunChunk& run,
                                       std::span<EvalResponse> out);

  /// The ChunkRunner that runs members on `backend` with their app's trace.
  ChunkRunner backend_runner(const Backend& backend);

  /// The uncertainty-gated routing policy (DESIGN.md §14) behind
  /// evaluate() when a fused model is supplied.
  std::vector<EvalResponse> evaluate_routed(
      std::span<const EvalRequest> requests, FusedModel& model,
      const Backend& sim, const Progress& progress);

  /// Samples the pool and store gauges into the registry.
  void refresh_gauges() const;

  ServiceConfig options_;
  /// Present only when options_.registry was null (hermetic service).
  std::unique_ptr<obs::Registry> own_metrics_;
  obs::Registry* metrics_;
  // Cached registry metrics — the single source of truth for every report.
  obs::Counter* requests_;
  obs::Counter* backend_runs_;  ///< every fresh answer, surrogate included
  obs::Counter* sim_runs_;      ///< fresh answers of a backend, not a model
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
  /// Lanes per chunk (ServiceConfig::batch_k, env-inherited when 0); <= 1
  /// runs one lane per chunk.
  int batch_k_;
  SimulatorBackend simulator_;
  std::unique_ptr<ResultStore> store_;
  std::array<Shard, kNumShards> shards_;
};

}  // namespace adse::eval
