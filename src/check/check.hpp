#pragma once
/// \file check.hpp
/// The differential-verification oracle: a deliberately dumb in-order scalar
/// reference model that replays the same µop trace the out-of-order core
/// runs and derives facts the OoO result must respect, whatever the
/// configuration:
///
///   * exact retirement facts — total µops, per-group counts, SVE count
///     (retirement is in order and every op retires exactly once, so these
///     are config-independent);
///   * an ideal-throughput *lower* cycle bound: no schedule can beat the
///     tightest of the width, fetch-bandwidth, issue-port and store-send
///     rate limits;
///   * a fully serialised *upper* cycle bound: one op in flight at a time,
///     every memory line priced at a cold miss through every level plus its
///     worst-case port, writeback and prefetch-pollution budget.
///
/// DiffTune-style motivation (PAPERS.md): simulator parameter semantics
/// drift silently unless an independent oracle pins what the numbers may
/// legally be. These bounds are loose by design — they are invariants, not
/// predictions — but tight enough to catch grossly broken timing (a stage
/// that stops charging cycles, a latency applied in the wrong clock domain).

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analytical_features.hpp"
#include "config/cpu_config.hpp"
#include "isa/program.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace adse::check {

/// Serial-model pricing constants (documented in DESIGN.md §10) — now owned
/// by the shared analytical-feature extractor (analysis::analyze computes
/// the Oracle's bounds); re-exported here because tests hand-compute
/// expected bounds from them under these names.
inline constexpr int kSerialPerOpOverhead = analysis::kSerialPerOpOverhead;
inline constexpr int kSerialSlackCycles = analysis::kSerialSlackCycles;

/// Config-independent retirement facts plus config-dependent cycle bounds
/// for one (trace, configuration) pair.
struct Oracle {
  // Retirement facts (must match CoreStats exactly).
  std::uint64_t total_ops = 0;
  std::uint64_t by_group[isa::kNumInstrGroups] = {};
  std::uint64_t sve_ops = 0;

  // Frontend accounting: bytes the fetch stage must pull through fetch
  // blocks (loop-buffer-streamed ops are free after their training pass).
  std::uint64_t fetch_bytes = 0;

  // Cycle bounds: min_cycles <= RunResult.cycles() <= max_cycles.
  std::uint64_t min_cycles = 0;
  std::uint64_t max_cycles = 0;
};

/// The oracle facts of the in-order scalar reference model under `config`,
/// priced from a trace's summary (`analysis::summarize_trace`, or a trace
/// artifact's `summary()`): an O(1) analysis::analyze call, so a caller
/// probing many configs against one trace summarises it once. Pure
/// function of its inputs.
Oracle oracle_from(const analysis::TraceSummary& summary,
                   const config::CpuConfig& config);

/// Verifies a completed simulation against the oracle (priced from the
/// trace artifact's summary) and the structural accounting identities.
/// Returns one human-readable string per violated property (empty = clean
/// run).
std::vector<std::string> verify_run(const config::CpuConfig& config,
                                    const sim::Trace& trace,
                                    const sim::RunResult& result);

/// verify_run that throws InvariantError listing every violation.
void require_clean_run(const config::CpuConfig& config,
                       const sim::Trace& trace,
                       const sim::RunResult& result);

}  // namespace adse::check
