#pragma once
/// \file fuzzer.hpp
/// The two fuzzers of the verification harness. They share one options and
/// report shape, and the shrinker and repro files of repro.hpp.
///
/// `fuzz` hammers the simulator with random valid design points and checks
/// two property families on each: the structural invariants and the
/// reference model's oracle facts/bounds (check.hpp), and single-parameter
/// monotonicity (walking one capacity parameter upward on a fixed
/// configuration must never make a fixed trace slower).
///
/// `mc_fuzz` hammers the tiled MSI machine with random (cores, directory
/// scheme, directory size, VL, app, interleaving) points with the
/// conservation laws of coherence/tiled_memory.hpp armed. It proves itself
/// by injection: with a deliberate protocol defect (a dropped invalidation
/// ack, a leaked sharer bit, a missed downgrade) the same laws must fire.
///
/// Iterations are independently seeded from (seed, iteration), so a report
/// does not depend on thread count or ordering, and each violation is
/// shrunk toward its baseline into a minimal deterministic repro.

#include <cstdint>
#include <string>
#include <vector>

#include "check/repro.hpp"
#include "coherence/tiled_memory.hpp"
#include "config/param_space.hpp"
#include "eval/service.hpp"

namespace adse::check {

/// Runs one single-core point through `service` and checks it: structural
/// invariants (surfaced as a kBackendError response) plus the oracle
/// properties. Returns the combined failure message, or "" for a clean run;
/// `cycles` (if non-null) is filled for runs that completed.
std::string check_point(eval::EvalService& service,
                        const config::CpuConfig& config, kernels::App app,
                        std::uint64_t* cycles);

/// Parameters whose chains the fuzzer walks: capacity/width resources where
/// "more must never be slower" holds in this model (empirically validated by
/// the extended fuzz soak; see DESIGN.md §10 for why e.g. prefetch depth and
/// cache geometry are excluded — they legitimately trade off).
const std::vector<config::ParamId>& monotone_params();

/// One monotonicity chain: ascending values of one parameter on a fixed
/// base configuration, with the measured cycles for each point.
struct ChainResult {
  config::ParamId param = config::ParamId::kRobSize;
  std::vector<double> values;          ///< ascending range members
  std::vector<std::uint64_t> cycles;   ///< one entry per value
  std::vector<std::string> errors;     ///< invariant failures ("" = clean)

  /// Index i (>= 1) of the first point slower than its predecessor by more
  /// than the monotonicity slack, or -1.
  int first_regression() const;
};

/// Evaluates `base` with `param` set to each of `values` (ascending, all
/// range members) on `app`. Invariant failures are recorded per point; such
/// points are excluded from the monotonicity comparison.
ChainResult run_chain(eval::EvalService& service,
                      const config::CpuConfig& base, config::ParamId param,
                      std::vector<double> values, kernels::App app);

struct FuzzOptions {
  int iterations = 32;
  std::uint64_t seed = 1;
  /// Shrink violations toward the baseline before reporting.
  bool shrink = true;
  /// Directory for repro files ("" = do not write any).
  std::string repro_dir;
  bool verbose = false;
  /// Config-space fuzzer: points per monotonicity chain (>= 2 to be able
  /// to compare).
  int chain_points = 3;
  /// Coherence fuzzer: deliberate defect injected into every run (harness
  /// self-test: the laws must catch it). kNone for production fuzzing.
  coherence::InjectedBug inject = coherence::InjectedBug::kNone;
  /// Coherence fuzzer: largest tile count sampled (power of two in [2,16];
  /// check_tool takes it from ADSE_CORES).
  int max_cores = 8;
};

struct FuzzReport {
  int iterations = 0;
  std::uint64_t evaluations = 0;  ///< simulator runs requested (pre-memo)
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

/// Runs the config-space fuzzer on the service's pool. Deterministic for a
/// fixed (iterations, seed, chain_points): violations come back sorted by
/// iteration and shrinking is sequential. The structural check layer is
/// force-enabled for the duration of the call.
FuzzReport fuzz(eval::EvalService& service, const FuzzOptions& options);

/// Runs one coherence point under the armed check layer with `inject`
/// applied. Returns the InvariantError message, or "" when every law held.
/// Throws InvariantError if the point's configuration is invalid: an
/// invalid point is a caller error, never a finding.
std::string mc_run_point(const McPoint& point, coherence::InjectedBug inject);

/// Runs the coherence fuzzer. Deterministic for a fixed (iterations, seed,
/// max_cores, inject): violations come back sorted by iteration, shrinking
/// is sequential.
FuzzReport mc_fuzz(const FuzzOptions& options);

}  // namespace adse::check
