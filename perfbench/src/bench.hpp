#pragma once
/// \file bench.hpp
/// Shared declarations of the perfbench workloads: the pinned program
/// knobs, the run options run.py passes, the per-run outcome
/// record, and the layer replays (replay.cpp) that time each module's
/// public functions on a workload's own inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "config/cpu_config.hpp"
#include "eval/api.hpp"
#include "kernels/workloads.hpp"
#include "measure.hpp"
#include "sim/simulation.hpp"

namespace adse::eval {
class EvalService;
}  // namespace adse::eval
namespace adse::obs {
class Registry;
}  // namespace adse::obs

namespace perfbench {

// Every program knob is pinned here and passed explicitly; none is read
// from the environment (main() also clears every ADSE_* variable).
inline constexpr int kWorkers = 2;         ///< pool threads / daemon workers
inline constexpr int kClients = 2;         ///< serve client threads
inline constexpr int kBatchK = 8;          ///< config-parallel batch width
inline constexpr double kFusedThreshold = 1.0;
inline constexpr int kProbeEvery = 64;
/// Requests per pipelined call. The daemon's threads sleep whenever a
/// call's pipeline drains, and on a shared VM the wake-up latency then sets
/// the throughput: six runs of one build gave 58k-168k evals/s with 16,
/// 202k-238k with 256, and 1024 halved the loss in slow stretches again.
inline constexpr int kServeBatch = 1024;
inline constexpr int kColdConfigs = 256;   ///< configs per cold campaign
inline constexpr int kWarmConfigs = 256;   ///< serve warm set
inline constexpr int kFusedConfigs = 5000; ///< configs per fused campaign

// The timed work is sized from --seconds with nominal rates of the 4-core
// reference VM instead of being cut by a clock, so one seed and --seconds
// always do the same work: counts, memory and digests repeat exactly.
inline constexpr double kColdUnitSeconds = 2.0;        ///< per cold campaign
inline constexpr double kFusedUnitSeconds = 5.0;       ///< per fused campaign
inline constexpr double kServeCallsPerSecond = 112.0;  ///< per client
/// Per client; 1,000 calls in all leave 10 samples beyond the p99.
inline constexpr int kServeSingleUnitCalls = 500;

/// Options run.py passes on the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Run one unit of work instead of the --seconds-sized amount (the
  /// traced run and its untraced twin).
  bool single_unit = false;
  /// Run the layer replays and report per-layer values.
  bool layers = false;
  /// Set up once, report the set-up time and stop.
  bool setup_only = false;
};

/// What one run reports: metrics, output checks and the failure count.
struct Outcome {
  Json e2e;     ///< end-to-end metrics
  Json layers;  ///< per-layer values computed in-process
  Json checks;  ///< check name -> passed
  Json info;    ///< digests, sample counts, timed-phase totals
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  /// Records a named output check; a failed check fails the run and counts
  /// `failures` failed evaluations (at least one).
  void check(const std::string& name, bool passed,
             std::uint64_t failures = 1);
};

Outcome run_campaign_cold(const RunOptions& options);
Outcome run_serve_warm(const RunOptions& options);
Outcome run_fused_campaign(const RunOptions& options);

/// Pinned service configuration (store path empty = no store).
adse::eval::ServiceConfig pinned_service(const std::string& store_path,
                                         adse::obs::Registry* registry);

// --- answers, digests and replays (replay.cpp) ------------------------------

/// One answered evaluation, as the benchmark saw it.
struct Answer {
  adse::config::CpuConfig config;
  adse::kernels::App app = adse::kernels::App::kStream;
  std::uint64_t cycles = 0;
};

/// Digest of every (config features, app, cycles) triple, in order.
std::string digest_answers(const std::vector<Answer>& answers);

/// True when two runs are bit-identical in every counter and power value.
bool same_run(const adse::sim::RunResult& a, const adse::sim::RunResult& b);

/// The fixed, seed-independent canary set: 8 configs x 4 apps whose cycle
/// digest is recorded beside the benchmark.
std::vector<adse::eval::EvalRequest> canary_requests();

/// Turns a response list into answers (cycles only).
std::vector<Answer> to_answers(
    const std::vector<adse::eval::EvalRequest>& requests,
    const std::vector<adse::eval::EvalResponse>& responses);

/// Per-layer serve metrics from a daemon registry and client call times.
void report_serve_layer(adse::obs::Registry& registry,
                        const std::vector<double>& call_us,
                        int requests_per_call, int workers, Outcome& out);

/// Inputs of the layer replays: the workload's own answers (real
/// simulations only) and a service whose memo holds them.
struct ReplayInputs {
  std::vector<Answer> answers;
  adse::eval::EvalService* memo_service = nullptr;
};

/// Times each module's public functions on the inputs and records the
/// per-layer values and the replay checks into `out`.
void run_replays(const ReplayInputs& inputs, Outcome& out);

}  // namespace perfbench
