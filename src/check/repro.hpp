#pragma once
/// \file repro.hpp
/// Failure records, delta-shrinking and deterministic repro files, shared by
/// the config-space fuzzer and the coherence fuzzer (fuzzer.hpp).
///
/// A fuzzer finding is only useful if it survives the fuzzer: every
/// violation is shrunk toward its baseline (the ThunderX2 configuration, or
/// the 2-core full-map McPoint) until a minimal set of dimensions still
/// triggers it, then written as a small text file that `check_tool --repro`
/// replays bit-for-bit (both evaluation paths are deterministic, so a repro
/// either fires or the bug is fixed).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "coherence/tiled_memory.hpp"
#include "config/cpu_config.hpp"
#include "eval/service.hpp"
#include "kernels/threaded.hpp"
#include "kernels/workloads.hpp"

namespace adse::check {

/// Slack for the monotonicity property, shared by chain detection
/// (fuzzer.hpp) and repro replay so both call the same thing a violation.
/// Strict monotonicity does not hold with memory in the loop: extra
/// capacity exposes more loads at once, which re-times evictions and
/// writebacks and can mildly thrash the caches (the fuzz soak's worst
/// genuine case is +6.7% cycles; real hardware shows the same excess-MLP
/// effect on streaming codes). So the checked property is "raising a
/// capacity resource may cost at most rel·cycles + abs": loose enough for
/// legitimate re-timing, tight enough that a broken stall condition
/// (2-10x slowdowns) still fails.
inline constexpr double kMonotoneRelSlack = 0.10;
inline constexpr std::uint64_t kMonotoneAbsSlack = 64;

/// cycles_hi exceeding this for a given cycles_lo is a monotonicity
/// violation (more resources made the fixed trace slower beyond the slack).
inline constexpr std::uint64_t monotone_allowed_cycles(std::uint64_t lo) {
  const auto rel =
      static_cast<std::uint64_t>(static_cast<double>(lo) * kMonotoneRelSlack);
  return lo + (rel > kMonotoneAbsSlack ? rel : kMonotoneAbsSlack);
}

/// One multicore design point plus its schedule perturbation. The coherence
/// shrink baseline is the default-constructed value (2 cores, full map, auto
/// entries, VL 128, ring, no skew).
struct McPoint {
  int num_cores = 2;
  config::DirectoryScheme directory_scheme = config::DirectoryScheme::kFullMap;
  int directory_entries = 0;  ///< 0 = auto (sparse only)
  int vector_length_bits = 128;
  kernels::McApp app = kernels::McApp::kRingPass;
  /// Seeds the per-core start skews (0 = lockstep start). Distinct seeds
  /// exercise distinct protocol race orderings deterministically.
  std::uint64_t interleave_seed = 0;

  bool operator==(const McPoint&) const = default;
};

/// The CpuConfig this point describes: the ThunderX2 baseline with the
/// point's VL and multicore block applied.
config::CpuConfig mc_point_config(const McPoint& point);

/// One property violation found by a fuzzer (or loaded from a repro file).
struct Violation {
  enum class Kind {
    kInvariant,     ///< a model invariant / oracle bound failed on one run
    kMonotonicity,  ///< adding a resource made a fixed trace slower
    kCoherence,     ///< a coherence conservation law fired on the tiled machine
  };

  Kind kind = Kind::kInvariant;
  kernels::App app = kernels::App::kStream;  ///< single-core kinds
  std::uint64_t seed = 0;       ///< fuzzer seed that produced it
  std::uint64_t iteration = 0;  ///< fuzzer iteration that produced it
  /// The failing single-core design point (post-shrink: minimal diff vs the
  /// baseline).
  config::CpuConfig config;
  std::string message;

  // Monotonicity context: raising `chain_param` from chain_lo to chain_hi on
  // `config` moved cycles from cycles_lo up to cycles_hi.
  std::optional<config::ParamId> chain_param;
  double chain_lo = 0.0;
  double chain_hi = 0.0;
  std::uint64_t cycles_lo = 0;
  std::uint64_t cycles_hi = 0;

  // Coherence context: the multicore point (post-shrink: minimal machine
  // that fires) and the protocol defect injected into its runs.
  McPoint point;
  coherence::InjectedBug inject = coherence::InjectedBug::kNone;

  /// Where the repro file was written ("" if none was).
  std::string repro_path;
};

/// "invariant", "monotonicity" or "coherence": the repro file's kind line.
const char* kind_name(Violation::Kind kind);

/// Parameters on which `config` differs from `reference` (ParamId order).
std::vector<config::ParamId> diff_params(const config::CpuConfig& config,
                                         const config::CpuConfig& reference);

/// Feature-vector accessors: read / functionally update one parameter of a
/// configuration (the fuzzer's chain runner and the shrinker edit configs
/// this way so every edit round-trips the canonical feature encoding).
double param_value(const config::CpuConfig& config, config::ParamId id);
config::CpuConfig with_param(const config::CpuConfig& config,
                             config::ParamId id, double value);

/// Whether a shrink candidate still shows the violation. It may rewrite the
/// candidate's message (the coherence fuzzer keeps the latest firing text).
using Fires = std::function<bool(Violation&)>;

/// Delta-shrinks a single-core violation toward `target` (coordinate ddmin,
/// one dimension per ParamId): repeatedly resets each differing parameter to
/// the target's value, keeping the reset whenever `fires(candidate)` says
/// the violation still reproduces, until a pass changes nothing. Invalid
/// candidates are skipped; a monotonicity violation's chain parameter is
/// never reset. Returns the number of parameters still differing.
std::size_t shrink_violation(const Fires& fires, Violation& violation,
                             const config::CpuConfig& target);

/// The same ddmin toward the violation's own baseline: the ThunderX2
/// configuration for single-core kinds; the default McPoint for coherence,
/// over six dimensions (cores, scheme with its entries, entries, VL, app,
/// interleaving). Returns the number of parameters / McPoint fields still
/// differing.
std::size_t shrink_violation(const Fires& fires, Violation& violation);

/// Re-runs a violation. True = still fires. Invariant violations re-check
/// the run through `service` against the oracle; monotonicity violations
/// re-run the (chain_lo, chain_hi) pair and compare cycles; coherence
/// violations re-run the point on the tiled machine (`service` unused).
bool reproduces(eval::EvalService& service, const Violation& violation);

/// Serialises a violation as a deterministic "adse-check-repro v1" text
/// repro (stable line order, one-line message; %.17g values and the
/// parameter diff vs the ThunderX2 baseline for single-core kinds, the
/// McPoint and injected bug for coherence).
std::string repro_to_string(const Violation& violation);

/// Inverse of repro_to_string; throws InvariantError on malformed input,
/// including a point whose configuration fails config::validate.
Violation repro_from_string(const std::string& text);

/// File wrappers. save_repro creates `dir` if needed and names the file
/// repro-<seed>-<iteration>.txt (mc-repro-… for coherence), storing the
/// path in violation.repro_path.
void save_repro(const std::string& dir, Violation& violation);
Violation load_repro(const std::string& path);

}  // namespace adse::check
