#pragma once
/// \file analytical_features.hpp
/// Per-resource analytical throughput bounds as a reusable feature extractor
/// — the Concorde decomposition (PAPERS.md): compute one cheap cycle bound
/// per micro-architectural resource limit analytically, and leave only the
/// residual interaction term for an ML model to learn.
///
/// The computation splits along the config axis:
///
///   * `TraceSummary` — everything that depends only on the trace, folded in
///     ONE pass over the program: retirement counts, stored bytes, the
///     serialised execution total, a cumulative loop-body-size table (so the
///     fetch-byte count for ANY loop-buffer size is a binary search away)
///     and memory-walk line totals for every admissible cache-line width.
///   * `analyze(summary, config)` — per-candidate evaluation in O(1): no
///     trace decode, no per-op loop, just arithmetic against the summary.
///
/// Consumers: `check::oracle_from` (the Oracle's bounds ARE these
/// features — one implementation, differentially tested), and the fused
/// surrogate (`eval::FusedModel`), which predicts cycles as
/// `min_cycles x exp(learned residual)`.

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "config/cpu_config.hpp"
#include "isa/program.hpp"

namespace adse::analysis {

/// Serial-model pricing constants (documented in DESIGN.md §10). Every op
/// pays the full pipeline traversal; the slack absorbs drain effects at the
/// very start/end of a run. Both are part of the oracle's contract: tests
/// hand-compute expected bounds from them.
inline constexpr int kSerialPerOpOverhead = 8;
inline constexpr int kSerialSlackCycles = 64;

/// Cache-line widths the config space admits ({32..256, pow2} — see
/// config::MemParams). TraceSummary precomputes the memory-walk line total
/// for each so analyze() never re-walks the trace.
inline constexpr std::array<std::uint32_t, 4> kLineWidths{32, 64, 128, 256};

/// Config-independent digest of one µop trace, built in a single pass.
struct TraceSummary {
  std::string name;

  // Retirement facts (exact: every op retires exactly once).
  std::uint64_t total_ops = 0;
  std::uint64_t by_group[isa::kNumInstrGroups] = {};
  std::uint64_t sve_ops = 0;
  std::uint64_t stored_bytes = 0;

  /// Serialised execution total: sum over ops of
  /// (kSerialPerOpOverhead + execution_latency(group)).
  std::uint64_t serial_exec_cycles = 0;

  /// Cumulative loop-streamability table: sorted (body_size, ops) pairs
  /// where `ops` counts µops with 0 < loop_body_size <= body_size and the
  /// first-iteration flag clear. streamable_ops(L) answers "how many ops
  /// stream from an L-entry loop buffer" by binary search.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> streamable_cum;

  /// Memory-walk totals: lines spanned by all loads+stores at each
  /// admissible cache-line width (same line split MemoryHierarchy::access
  /// uses), indexed parallel to kLineWidths.
  std::array<std::uint64_t, kLineWidths.size()> memory_lines{};

  std::uint64_t count(isa::InstrGroup g) const {
    return by_group[static_cast<int>(g)];
  }
  std::uint64_t loads() const { return count(isa::InstrGroup::kLoad); }
  std::uint64_t stores() const { return count(isa::InstrGroup::kStore); }

  /// µops an L-entry loop buffer streams (fetch-block-free).
  std::uint64_t streamable_ops(std::uint32_t loop_buffer_size) const;

  /// Non-streamed encoding bytes the fetch stage must pull through fetch
  /// blocks under an L-entry loop buffer.
  std::uint64_t fetch_bytes(std::uint32_t loop_buffer_size) const;

  /// Total lines walked at `line_bytes` (must be one of kLineWidths).
  std::uint64_t lines_for(std::uint32_t line_bytes) const;
};

/// One pass over `program` (throws on an empty trace).
TraceSummary summarize_trace(const isa::Program& program);

/// Per-resource analytical cycle bounds for one (trace, config) pair — each
/// field is the minimum cycles that single resource alone imposes on any
/// schedule (0 where the resource has no capacity to bound, e.g. an empty
/// port mask). O(1) given a TraceSummary.
struct AnalyticalFeatures {
  // Width limits: commit/dispatch/frontend handle at most W µops per cycle.
  std::uint64_t commit_bound = 0;
  std::uint64_t dispatch_bound = 0;
  std::uint64_t frontend_bound = 0;
  /// Fetch bandwidth: at most fetch_block_bytes of non-loop-buffer encoding
  /// per cycle.
  std::uint64_t fetch_bound = 0;
  // Issue-port bounds: each µop occupies exactly one port for one cycle.
  std::uint64_t port_group_bound = 0;    ///< worst single group vs its ports
  std::uint64_t port_all_bound = 0;      ///< all ops vs the full port union
  std::uint64_t port_ls_bound = 0;       ///< loads+stores vs the L/S union
  std::uint64_t port_vecpred_bound = 0;  ///< vector+predicate union
  std::uint64_t port_scalar_bound = 0;   ///< int/mul/fp/fpdiv/branch union
  // Store drain: stores are never forwarded away.
  std::uint64_t store_send_bound = 0;       ///< stores / mem_stores_per_cycle
  std::uint64_t store_request_bound = 0;    ///< stores / mem_requests_per_cycle
  std::uint64_t store_bandwidth_bound = 0;  ///< bytes / store_bandwidth_bytes

  /// Encoding bytes fetched under this config's loop-buffer size.
  std::uint64_t fetch_bytes = 0;

  /// Ideal-throughput lower bound: the tightest of every bound above (>= 1).
  std::uint64_t min_cycles = 1;

  // Serialised-replay terms (the Oracle's upper bound).
  double line_cost = 0.0;          ///< cold-miss price per line walked
  std::uint64_t memory_lines = 0;  ///< lines at this config's line width
  std::uint64_t serial_exec_cycles = 0;
  std::uint64_t max_cycles = 0;

  // Op-mix fractions of total_ops.
  double sve_fraction = 0.0;
  double load_fraction = 0.0;
  double store_fraction = 0.0;
  double vec_fraction = 0.0;
  double branch_fraction = 0.0;
  double fpdiv_fraction = 0.0;

  /// The features as an ML row (log-compressed cycle terms + mix fractions),
  /// ordered as ml_feature_names(). Appended to the raw config parameters by
  /// the fused surrogate's residual model.
  std::vector<double> ml_features() const;
  static const std::vector<std::string>& ml_feature_names();
};

/// Evaluates every analytical bound for `config`. Pure, O(1), allocation-free.
AnalyticalFeatures analyze(const TraceSummary& summary,
                           const config::CpuConfig& config);

}  // namespace adse::analysis
