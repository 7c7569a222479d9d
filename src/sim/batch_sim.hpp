#pragma once
/// \file batch_sim.hpp
/// The one path from configurations to RunResults: K configurations per
/// trace pass on the lane engine (core::BatchedCore). The batch shares one
/// decoded µop stream (all configs must have the same vector length — traces
/// depend only on (app, VL)) and returns one RunResult per config, each
/// validated and priced by adse::power. sim::simulate and
/// sim::simulate_hardware are one-lane passes through the same code, so
/// campaign CSVs, the eval result store, and the adse::check conservation
/// laws see no difference between a lane and a single run.

#include <span>
#include <vector>

#include "config/cpu_config.hpp"
#include "core/batched_core.hpp"
#include "isa/program.hpp"
#include "mem/hierarchy.hpp"
#include "sim/simulation.hpp"

namespace adse::sim {

/// Simulates every config against `program` in one batched pass. Results
/// come back in config order and are bit-identical to per-config
/// sim::simulate calls. Throws InvariantError when the batch mixes vector
/// lengths (group by (app, VL) first — eval::EvalService does). `info`, when
/// non-null, receives the scheduler's lane-occupancy accounting.
std::vector<RunResult> simulate_batch(
    std::span<const config::CpuConfig> configs, const isa::Program& program,
    core::BatchRunInfo* info = nullptr);

/// Same, with the trace pre-decoded: callers chunking a large group into
/// many K-lane batches (the throughput bench) pay the µop decode once, not
/// once per chunk. `program` must be the program `decoded` was built from.
std::vector<RunResult> simulate_batch(
    std::span<const config::CpuConfig> configs, const isa::Program& program,
    const core::DecodedTrace& decoded, core::BatchRunInfo* info = nullptr);

/// The engine pass behind every entry point above and sim::simulate /
/// sim::simulate_hardware: one lane per config over `decoded`, each lane
/// with its own memory hierarchy built with `mem_fidelity`, the core with
/// `core_fidelity`. Assembles, validates, prices and (under CheckContext)
/// conservation-checks every result, and exports the per-run `sim.*`
/// counters. Opens no trace span and counts no batch: callers do.
std::vector<RunResult> simulate_lanes(
    std::span<const config::CpuConfig> configs, const isa::Program& program,
    const core::DecodedTrace& decoded, const mem::FidelityOptions& mem_fidelity,
    const core::CoreFidelity& core_fidelity, core::BatchRunInfo* info);

}  // namespace adse::sim
