#pragma once
/// \file batched_core.hpp
/// The SimEng-substitute core model: a cycle-driven, trace-fed out-of-order
/// superscalar pipeline, run for K configurations per trace pass. Every
/// simulation in the repository runs on this engine; a single simulation is
/// a batch of one lane.
///
/// Pipeline (per simulated cycle, processed back to front so same-cycle
/// structural hazards resolve like a real pipeline):
///
///   COMMIT    — in order, up to commit_width completed ROB entries; frees
///               previous register mappings and LQ/SQ entries.
///   COMPLETE  — memory responses drain through the LSQ completion pipe
///               (lsq_completion_width per cycle); ALU results complete from
///               the execution buckets; destinations wake RS consumers.
///   MEM SEND  — ready loads/stores go to the memory hierarchy subject to
///               Table II's per-cycle request/load/store caps and load/store
///               bandwidth (bytes per cycle); loads check older stores for
///               forwarding or conflicts first.
///   ISSUE     — oldest-first from the unified reservation station onto the
///               configured ports (L/S, SVE, predicate, mixed).
///   DISPATCH  — up to dispatch_width µops/cycle from the frontend queue into
///               ROB + RS (+ LQ/SQ for memory ops).
///   FRONTEND  — fetch/decode/rename up to frontend_width µops, bounded by
///               the fetch block (bytes/cycle) unless streaming from the
///               loop buffer; renaming stalls when a physical register file
///               is exhausted.
///
/// Branches are trace-driven (perfectly predicted); the hardware-proxy layer
/// adds mispredict penalties through `CoreFidelity`. An event skip
/// fast-forwards idle cycles so memory-latency-bound regions simulate
/// quickly without changing counts.
///
/// The hot loop is event-driven (DESIGN.md §7): issue is wakeup-driven (RS
/// entries count not-ready sources and are pushed onto a seq-ordered ready
/// list by completing producers instead of being scanned and sorted every
/// cycle), RS slots come from a free list, loads cache their
/// youngest-older-overlapping-store dependence at dispatch, and execution
/// completions live on an occupancy-masked event wheel so the idle-skip
/// target is found in O(1). All of it is a pure scheduling-cost
/// optimisation: cycle counts are bit-identical to the brute-force
/// per-cycle seed model (tests/test_golden_cycles.cpp pins them).
///
/// Lanes: all lanes share one decoded µop stream (decode/fetch metadata is
/// extracted once per trace, not once per config) and keep their own
/// pipeline state — ROB/LSQ rings, RS free list, per-phys-reg waiter lists,
/// execution event wheel, register files. Scheduling is windowed
/// round-robin: the trace is cut into fixed-size windows; each active lane
/// runs cycles until its fetch cursor crosses the window boundary, then the
/// next lane reuses the same (hot) window. Lanes that finish early are
/// retired from the active set by swap-erase compaction, so a batch never
/// drags dead lanes. Lanes are fully independent, so the interleaving the
/// scheduler picks cannot affect any lane's counts (DESIGN.md §12).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "config/cpu_config.hpp"
#include "core/core_stats.hpp"
#include "isa/program.hpp"
#include "mem/hierarchy.hpp"

namespace adse::core {

/// Extra effects for hardware-proxy fidelity (see sim/hardware_proxy).
struct CoreFidelity {
  /// Every `mispredict_interval`-th branch flushes the frontend for
  /// `mispredict_penalty` cycles (deterministic, reproducible). 0 = off.
  int mispredict_interval = 0;
  int mispredict_penalty = 12;
  /// Mispredict every loop-exit branch (how real predictors actually miss on
  /// loop-heavy HPC codes) instead of, or in addition to, the fixed interval.
  bool mispredict_loop_exits = false;
  /// Store->load forwarding latency in cycles. The campaign simulator uses
  /// the idealised 1 cycle (as SimEng's LSQ effectively does); real cores
  /// pay ~10 cycles, which the hardware proxy models.
  int forward_latency = 1;
};

/// Scheduler observability for a batched run (lane-occupancy accounting the
/// bench records: how full the batch stayed as lanes retired early).
struct BatchRunInfo {
  std::uint64_t windows = 0;       ///< trace-window rounds swept
  std::uint64_t lane_windows = 0;  ///< sum of active lanes over rounds

  /// Mean number of live lanes per window round (== batch width when no lane
  /// retires before the final window).
  double mean_active_lanes() const {
    return windows == 0 ? 0.0
                        : static_cast<double>(lane_windows) /
                              static_cast<double>(windows);
  }
};

/// A program decoded once into the engine's flat µop records, shareable
/// across every batch run of the same (app, VL) trace: a caller that chunks
/// one group into many K-lane batches can decode once rather than once per
/// chunk. Immutable after construction, so concurrent engine runs may share
/// one instance. Throws on an empty program.
class DecodedTrace {
 public:
  explicit DecodedTrace(const isa::Program& program);
  ~DecodedTrace();

  DecodedTrace(const DecodedTrace&) = delete;
  DecodedTrace& operator=(const DecodedTrace&) = delete;

  std::size_t size() const;
  const std::string& name() const { return name_; }

 private:
  friend class BatchedCore;
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::string name_;
};

class BatchedCore {
 public:
  /// Ops per trace window (scheduling granularity). Small enough that a
  /// window of decoded µops stays L2-resident while every lane sweeps it,
  /// large enough that per-switch overhead is noise.
  static constexpr std::size_t kWindowOps = 16384;
  /// Cycle quantum per lane per round once fetch reaches the trace tail:
  /// lanes drain round-robin so slow lanes don't serialise the batch tail and
  /// early-finishing lanes retire (and compact) as soon as they are done.
  static constexpr std::uint64_t kDrainCycles = 8192;

  /// One lane per config; `hierarchies[i]` is lane i's memory hierarchy and
  /// must outlive the engine. All configs must share a vector length (they
  /// share one trace). Every config is validated.
  BatchedCore(std::span<const config::CpuConfig> configs,
              std::span<mem::MemoryHierarchy* const> hierarchies,
              const CoreFidelity& fidelity = {});
  ~BatchedCore();

  BatchedCore(const BatchedCore&) = delete;
  BatchedCore& operator=(const BatchedCore&) = delete;

  /// Runs `trace` to completion on every lane; stats come back in lane
  /// (== config) order. Single-use: an engine holds one run's state. Throws
  /// if any lane exceeds `max_cycles` (guards against model deadlock).
  std::vector<CoreStats> run(const DecodedTrace& trace,
                             std::uint64_t max_cycles = 2'000'000'000ULL);

  std::size_t lanes() const { return lanes_.size(); }
  const BatchRunInfo& info() const { return info_; }

  /// Implementation detail (defined in the .cpp; declared here so the
  /// file-local stage functions can name them).
  struct Lane;
  struct DecodedOp;

 private:
  void step_cycle(Lane& lane, std::span<const DecodedOp> ops);

  std::vector<std::unique_ptr<Lane>> lanes_;
  BatchRunInfo info_;
  std::uint64_t max_cycles_ = 0;
  const char* program_name_ = "";
  bool check_ = false;
  bool ran_ = false;
};

}  // namespace adse::core
