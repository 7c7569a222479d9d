#pragma once
/// \file batch_sim.hpp
/// The one path from configurations to RunResults: K configurations per
/// trace pass on the lane engine (core::BatchedCore). The batch shares one
/// decoded µop stream (all configs must have the same vector length — traces
/// depend only on (app, VL)) and returns one RunResult per config, each
/// validated and priced by adse::power. sim::simulate is the one-lane pass
/// through the same code, so campaign CSVs, the eval result store, and the
/// adse::check conservation laws see no difference between a lane and a
/// single run.

#include <span>
#include <vector>

#include "config/cpu_config.hpp"
#include "core/batched_core.hpp"
#include "isa/program.hpp"
#include "sim/simulation.hpp"

namespace adse::sim {

/// Simulates every config against `trace` in one batched pass under the
/// "sim.simulate_batch" span. Results come back in config order and are
/// bit-identical to per-config sim::simulate calls. Throws InvariantError
/// when the batch mixes vector lengths (group by (app, VL) first —
/// eval::EvalService does). `info`, when non-null, receives the scheduler's
/// lane-occupancy accounting.
std::vector<RunResult> simulate_batch(
    std::span<const config::CpuConfig> configs, const Trace& trace,
    const Fidelity& fidelity = {}, core::BatchRunInfo* info = nullptr);

/// The same campaign-fidelity pass over a caller-held decode of `program`
/// (the benchmark's replay keeps its own). `program` must be the program
/// `decoded` was built from.
std::vector<RunResult> simulate_batch(
    std::span<const config::CpuConfig> configs, const isa::Program& program,
    const core::DecodedTrace& decoded, core::BatchRunInfo* info = nullptr);

}  // namespace adse::sim
