#pragma once
/// \file power_model.hpp
/// McPAT-style analytical power and area model for the configurable core
/// (SNIPPETS.md snippet 1): every sized structure contributes static area
/// from its geometry, leakage scales with area, and dynamic energy is priced
/// per event from the counters the simulator already collects — regfile
/// reads/writes, SVE lane-ops, per-level cache reads/writes, DRAM requests.
///
/// Two deliberate modelling choices drive the Pareto-knee shape-check
/// (ROADMAP item 4):
///  1. the vector datapath's area grows *superlinearly* in lane count
///     (`kVectorAreaExponent` > 1: wider SIMD pays disproportionate wiring,
///     bypass and shuffle-network area, as McPAT models for wide FP units);
///  2. the per-lane-op dynamic energy carries a wiring factor that rises
///     with VL (`vector_wiring_factor`), so even at *fixed total lane work*
///     a wider engine burns more energy per element.
/// Together these make wide-VL designs win cycles but lose energy/area, so
/// the (cycles, energy, area) front bends where cycles-only search is blind.
///
/// All constants are constexpr and exposed here so tests can hand-compute
/// expected results; provenance is documented in DESIGN.md §11. Timing
/// parameters (latencies, clocks, prefetch depth) carry no area of their
/// own — they influence energy only through the cycle count (leakage) and
/// the event mix.

#include <cmath>
#include <cstdint>
#include <limits>

#include "coherence/stats.hpp"
#include "config/cpu_config.hpp"
#include "core/core_stats.hpp"
#include "mem/hierarchy.hpp"

namespace adse::power {

// ---- leakage -------------------------------------------------------------
/// Leakage power density (W per mm² of active logic/SRAM).
inline constexpr double kLeakageWattsPerMm2 = 0.05;

// ---- static area (mm²) ---------------------------------------------------
/// Fixed core overhead (decode tables, branch unit, clock tree, ...).
inline constexpr double kCoreBaseMm2 = 1.2;
inline constexpr double kRobEntryMm2 = 3.5e-4;
inline constexpr double kLsqEntryMm2 = 2.5e-4;
inline constexpr double kGpRegMm2 = 6.0e-5;
inline constexpr double kCondRegMm2 = 1.0e-5;
/// FP/SVE and predicate registers are VL-wide bit arrays.
inline constexpr double kVectorRegMm2PerBit = 1.2e-6;
/// Regfile area multiplier per port (McPAT: wordlines/bitlines per port).
inline constexpr double kRegfilePortAreaFactor = 0.08;
/// SRAM density for caches, plus a per-way tag/comparator overhead.
inline constexpr double kSramMm2PerKib = 1.1e-3;
inline constexpr double kCacheTagFactorPerWay = 0.005;
/// Vector datapath: per vector port at VL=128, scaled superlinearly in the
/// relative lane count (VL/128)^kVectorAreaExponent.
inline constexpr double kVectorPortMm2 = 0.22;
inline constexpr double kVectorAreaExponent = 1.35;
/// Frontend sizing: fetch-block datapath, loop-buffer storage, pipe widths.
inline constexpr double kFetchByteMm2 = 2.0e-4;
inline constexpr double kLoopBufferOpMm2 = 1.0e-4;
inline constexpr double kPipeWidthMm2 = 1.0e-2;

// ---- dynamic energy (pJ per event) ---------------------------------------
inline constexpr double kRobWritePj = 1.0;   ///< per dispatched µop
inline constexpr double kRobReadPj = 0.8;    ///< per committed µop
inline constexpr double kGpRegReadPj = 0.9;
inline constexpr double kGpRegWritePj = 1.4;
inline constexpr double kCondRegReadPj = 0.2;
inline constexpr double kCondRegWritePj = 0.3;
/// Vector-class register accesses move VL (FP) or VL/8 (predicate) bits.
inline constexpr double kVectorRegPjPerBit = 0.006;
inline constexpr double kRegWriteFactor = 1.5;  ///< write vs read, wide regs
/// SVE execution: energy per 64-bit lane-op before the wiring factor.
inline constexpr double kSveLaneOpPj = 2.0;
/// Per-lane wiring/bypass overhead slope in (VL/128 - 1).
inline constexpr double kVectorWiringFactor = 0.15;
/// Cache access energy: base × sqrt(capacity ratio) × line ratio × way term.
inline constexpr double kL1ReadPjBase = 10.0;   ///< at 32 KiB, 64 B line
inline constexpr double kL2ReadPjBase = 25.0;   ///< at 256 KiB, 64 B line
inline constexpr double kCacheWriteFactor = 1.4;
inline constexpr double kCacheWayEnergyFactor = 0.02;
/// DRAM: per byte of line transferred (demand fills and dirty writebacks).
inline constexpr double kRamPjPerByte = 20.0;
inline constexpr double kLsqSearchPj = 1.5;   ///< per load/store sent, CAM
inline constexpr double kFrontendOpPj = 1.5;  ///< fetch/decode/rename per µop
inline constexpr double kWakeupPj = 0.3;      ///< per RS operand wakeup

// ---- multicore coherence (adse::coherence) -------------------------------
/// Directory SRAM: area per storage bit. An entry costs one presence bit per
/// tile plus kDirEntryOverheadBits (owner field, state, sparse tag).
inline constexpr double kDirectoryBitMm2 = 1.6e-7;
inline constexpr int kDirEntryOverheadBits = 38;
/// Per coherence message crossing the tile network (invalidation, ack,
/// downgrade, owner writeback, back-invalidation, remote request).
inline constexpr double kCoherenceMsgPj = 6.0;
/// Per directory lookup at a home slice (CAM/tag probe beside the L2 tags).
inline constexpr double kDirectoryLookupPj = 2.0;

/// What the model returns for one run. NaN until computed.
struct PowerResult {
  double dynamic_j = std::numeric_limits<double>::quiet_NaN();
  double leakage_j = std::numeric_limits<double>::quiet_NaN();
  double area_mm2 = std::numeric_limits<double>::quiet_NaN();

  bool valid() const {
    return !std::isnan(dynamic_j) && !std::isnan(leakage_j) &&
           !std::isnan(area_mm2);
  }
  double energy_j() const { return dynamic_j + leakage_j; }
};

/// Per-structure area decomposition (all mm²).
struct AreaBreakdown {
  double base = 0;
  double rob = 0;
  double regfile = 0;
  double lsq = 0;
  double frontend = 0;
  double vector_datapath = 0;
  double l1 = 0;
  double l2 = 0;

  double total() const {
    return base + rob + regfile + lsq + frontend + vector_datapath + l1 + l2;
  }
};

/// Per-structure dynamic-energy decomposition (all joules).
struct EnergyBreakdown {
  double rob = 0;
  double regfile = 0;
  double vector_datapath = 0;
  double lsq = 0;
  double frontend = 0;
  double wakeup = 0;
  double l1 = 0;
  double l2 = 0;
  double ram = 0;

  double total() const {
    return rob + regfile + vector_datapath + lsq + frontend + wakeup + l1 +
           l2 + ram;
  }
};

/// Dynamic per-lane-op energy multiplier for a given vector length:
/// 1.0 at VL=128, rising linearly with the relative width.
double vector_wiring_factor(int vector_length_bits);

/// Per-access cache energies in pJ (read; writes cost kCacheWriteFactor ×).
double l1_read_energy_pj(const config::MemParams& mem);
double l2_read_energy_pj(const config::MemParams& mem);

/// Static area of a configuration, per structure / in total.
AreaBreakdown area_breakdown(const config::CpuConfig& config);
double area_mm2(const config::CpuConfig& config);

/// Leakage power (W) — kLeakageWattsPerMm2 × area.
double leakage_watts(const config::CpuConfig& config);

/// Dynamic energy priced from a run's event counts.
EnergyBreakdown dynamic_breakdown(const config::CpuConfig& config,
                                  const core::CoreStats& core,
                                  const mem::MemStats& mem);

/// Full model: dynamic energy from events, leakage over the run's wall time
/// (cycles at config::kCoreClockGhz), static area. A run with zero events
/// costs exactly leakage.
PowerResult analyze(const config::CpuConfig& config,
                    const core::CoreStats& core, const mem::MemStats& mem);

// ---- multicore -----------------------------------------------------------

/// Directory storage area across all home slices: num_cores entries tables,
/// each entry holding one presence bit per tile plus the overhead bits, with
/// full-map capacity = one entry per slice line and sparse capacity =
/// resolved_directory_entries().
double directory_area_mm2(const config::CpuConfig& config);

/// Total die area of the tiled machine: num_cores single-tile replicas
/// (core + private L1 + L2 slice) plus the directory storage.
double multicore_area_mm2(const config::CpuConfig& config);

/// Power/area of a tiled multicore run: tile-replicated leakage plus dynamic
/// energy priced from the coherence counters — cache and DRAM events as in
/// the single-core model, plus per-message network energy and per-lookup
/// directory energy. The tile core model retires in order, so regfile/RS
/// events are folded into the per-µop frontend cost.
PowerResult analyze_multicore(const config::CpuConfig& config,
                              std::uint64_t cycles,
                              std::uint64_t retired_uops,
                              const coherence::CoherenceStats& mem);

}  // namespace adse::power
