#pragma once
/// \file multicore.hpp
/// Deterministic lockstep simulation of N tile cores over a ThreadedProgram:
/// one simple in-order core per tile (commit-width IPC cap, blocking loads,
/// posted stores) driving the coherent TiledMemory. The tile core is
/// deliberately simpler than the out-of-order engine (core::BatchedCore),
/// which owns the single-core fidelity story, while the multicore mode
/// isolates what the coherence protocol and the shared memory system do to
/// scaling. Fully
/// deterministic: same config + program + options => bit-identical cycles
/// (pinned by tests/test_golden_cycles.cpp).

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/stats.hpp"
#include "coherence/tiled_memory.hpp"
#include "config/cpu_config.hpp"
#include "kernels/threaded.hpp"
#include "power/power_model.hpp"

namespace adse::sim {

struct MulticoreOptions {
  /// Cycle each core starts executing (empty = all start at cycle 0). The
  /// fuzzer derives skews from its interleaving seed so distinct protocol
  /// race orderings are exercised.
  std::vector<std::uint64_t> start_skew;

  /// Deliberate protocol defect (litmus/fuzz harness only).
  coherence::InjectedBug inject = coherence::InjectedBug::kNone;

  /// Hang guard: exceeding this many cycles throws InvariantError.
  std::uint64_t max_cycles = 500'000'000;

  /// Full conservation-law walk cadence in *entered* cycles when the check
  /// layer (ADSE_CHECK=1 / ScopedCheck) is armed; the O(1) counter laws run
  /// after every access regardless. 0 disables the periodic walk (the
  /// end-of-run walk still happens).
  std::uint32_t walk_every = 1024;
};

/// Everything one multicore simulation returns.
struct MulticoreResult {
  std::string app;
  std::string config_name;
  int num_cores = 1;
  std::uint64_t cycles = 0;        ///< last core's finish cycle
  std::uint64_t retired_uops = 0;  ///< summed over cores
  std::vector<std::uint64_t> per_core_cycles;
  coherence::CoherenceStats mem;
  power::PowerResult power;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(retired_uops) /
                             static_cast<double>(cycles);
  }
};

/// Runs `program.threads[c]` on tile c of the tiled machine described by
/// `config` (config.mc.num_cores must equal program.num_threads()).
MulticoreResult simulate_multicore(const config::CpuConfig& config,
                                   const kernels::ThreadedProgram& program,
                                   const MulticoreOptions& options = {});

/// Convenience: builds the multicore app's default trace for the config's
/// core count and vector length, then simulates it.
MulticoreResult simulate_mc_app(const config::CpuConfig& config,
                                kernels::McApp app,
                                const MulticoreOptions& options = {});

}  // namespace adse::sim
