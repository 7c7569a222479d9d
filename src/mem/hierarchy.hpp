#pragma once
/// \file hierarchy.hpp
/// The SST-substitute memory backend: L1D + L2 + DRAM timing model.
///
/// Modelling choices mirror what the paper reports about its SST setup:
///  * Inter-level transfers cost one *request* regardless of line width, so a
///    wider cache line directly raises L1–L2 and L2–RAM bandwidth ("each
///    memory request has the same latency, yet yields more data", §VI-B).
///  * Memory banks are infinite by default ("SST models an infinite number of
///    memory banks unless explicitly specified"): the line requests of one
///    wide vector access proceed in parallel, only queuing on level ports.
///  * Cache/DRAM clock domains scale latencies and port service intervals
///    into core cycles.
///  * A simple next-line prefetcher with configurable depth ("basic
///    prefetching algorithms", §IV-B).
///
/// Fidelity extras (finite banks, finite MSHRs, TLB walks) are disabled for
/// the campaign simulator and enabled by the hardware proxy (see sim/).

#include <cstdint>
#include <unordered_map>

#include "config/cpu_config.hpp"
#include "mem/cache.hpp"

namespace adse::mem {

/// Which level served a request.
enum class ServedBy : std::uint8_t { kL1, kL2, kRam };

/// Optional higher-fidelity effects (hardware-proxy mode).
struct FidelityOptions {
  int finite_banks = 0;    ///< 0 = infinite banks (SST default)
  int mshr_entries = 0;    ///< 0 = unlimited outstanding misses
  bool model_tlb = false;  ///< charge TLB walks on 4 KiB page transitions
  double tlb_walk_ns = 20.0;
  int tlb_entries = 48;
  /// Memory-controller effects the simple model abstracts away (refresh,
  /// bank turnaround, queuing): multiplicative penalties on DRAM latency and
  /// per-request service time. 1.0 = off (campaign simulator).
  double dram_latency_scale = 1.0;
  double dram_interval_scale = 1.0;
  /// Hardware-prefetcher realism: extra next-line depth beyond the config's
  /// prefetch_distance, applied separately for misses served by L2 (repeat
  /// streams, where real L2 prefetchers excel) and by DRAM (cold streams,
  /// where prefetching is far less timely). 0 = campaign behaviour.
  int prefetch_boost_l2 = 0;
  int prefetch_boost_ram = 0;
  /// Where prefetched lines land. The campaign model keeps SST's simple
  /// behaviour — prefetch into L2 only, so demand misses still pay the
  /// L1->L2 trip. Real cores (the proxy) also fill L1.
  bool prefetch_into_l1 = false;
  /// Whether L2-served misses also trigger prefetch. SST's "basic
  /// prefetching" sits at the memory controller and only sees RAM-served
  /// misses (campaign default); real core-side prefetchers (the proxy) train
  /// on L1 misses regardless of which level serves them — this is what makes
  /// hardware faster than the simulator on L2-resident stencil codes.
  bool prefetch_on_l2_hits = false;
  /// Stride/stream prefetcher (hardware-proxy mode): tracks up to
  /// `stream_table_entries` concurrent sequential streams on *every* access
  /// (hits included) and keeps them `prefetch_distance + prefetch_boost_l2`
  /// lines ahead in L1 — the capability gap between real cores and the
  /// next-line-on-miss campaign model.
  bool stream_prefetcher = false;
  int stream_table_entries = 4;
};

/// The clock-domain conversions of one memory configuration, in (fractional)
/// core cycles: each level's hit latency and the service interval of its
/// port (one line request each). Pure arithmetic on the parameters — the one
/// formula that MemoryHierarchy, coherence::TiledMemory and the analytical
/// bounds (analysis::analyze, check::Oracle) all price memory with.
struct LevelTiming {
  double l1_latency = 0;
  double l2_latency = 0;
  double ram_latency = 0;
  double l1_interval = 0;
  double l2_interval = 0;
  double ram_interval = 0;
};

/// Converts `params`' level clocks and latencies into core cycles at
/// `core_clock_ghz`, with `fidelity`'s DRAM scales applied.
LevelTiming level_timing(const config::MemParams& params,
                         double core_clock_ghz,
                         const FidelityOptions& fidelity = {});

/// Aggregate access statistics.
struct MemStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t line_requests = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  // Read/write splits per level, for the energy model (a write access costs
  // more than a read in SRAM). l1_reads + l1_writes == line_requests;
  // l2_reads counts demand lookups after an L1 miss, l2_writes counts dirty
  // L1 victims written back into L2.
  std::uint64_t l1_reads = 0;
  std::uint64_t l1_writes = 0;
  std::uint64_t l2_reads = 0;
  std::uint64_t l2_writes = 0;
  std::uint64_t ram_requests = 0;
  std::uint64_t dirty_writebacks = 0;
  std::uint64_t prefetch_fills = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t bank_conflicts = 0;

  double l1_hit_rate() const {
    const auto total = l1_hits + l1_misses;
    return total == 0 ? 0.0 : static_cast<double>(l1_hits) / static_cast<double>(total);
  }
};

/// Timing result for one (possibly multi-line) access.
struct AccessResult {
  std::uint64_t ready_cycle = 0;  ///< core cycle when all data is available
  ServedBy worst_level = ServedBy::kL1;  ///< deepest level touched
};

class MemoryHierarchy {
 public:
  /// Builds the hierarchy for a memory configuration. `core_clock_ghz`
  /// anchors all clock-domain conversions.
  MemoryHierarchy(const config::MemParams& params, double core_clock_ghz,
                  const FidelityOptions& fidelity = {});

  /// Issues one demand access of `size_bytes` at `addr` starting at core
  /// cycle `now`. Accesses spanning multiple lines issue one request per
  /// line; with infinite banks these overlap. `now` values must be
  /// non-decreasing across calls (the core issues in cycle order).
  AccessResult access(std::uint64_t addr, std::uint32_t size_bytes,
                      bool is_store, std::uint64_t now);

  const MemStats& stats() const { return stats_; }
  const config::MemParams& params() const { return params_; }

  /// Invalidates caches and timing state (between runs).
  void reset();

 private:
  /// Issues one line-granular request; returns its completion core cycle.
  std::uint64_t line_request(std::uint64_t line_addr, bool is_store,
                             double start);

  /// Charges a TLB lookup/walk; returns extra core cycles of latency.
  double tlb_penalty(std::uint64_t addr);

  /// Issues next-line prefetches after a demand miss; depth depends on the
  /// level that served the miss (see FidelityOptions::prefetch_boost_*).
  void prefetch_after_miss(std::uint64_t line_addr, double start,
                           bool served_by_l2);

  /// Fetches one line toward the caches ahead of demand (stream prefetcher).
  void issue_prefetch_line(std::uint64_t line_addr, double start);

  /// Trains the stream table on an access and prefetches ahead on advance.
  void stream_prefetch(std::uint64_t line_index, double start);

  config::MemParams params_;
  FidelityOptions fidelity_;
  double core_clock_ghz_;
  // Latencies and port service intervals in core cycles.
  LevelTiming timing_;

  Cache l1_;
  Cache l2_;

  // Port next-free times (fractional core cycles).
  double l1_free_ = 0;
  double l2_free_ = 0;
  double ram_free_ = 0;

  // Finite-bank next-free times + resident line (hardware-proxy mode).
  std::vector<double> bank_free_;
  std::vector<std::uint64_t> bank_last_line_;

  // Finite-MSHR state: completion times of outstanding L1 misses.
  std::vector<double> mshr_busy_until_;

  // Direct-mapped TLB of page tags (hardware-proxy mode).
  std::vector<std::uint64_t> tlb_tags_;

  // Stream-prefetcher state: last line index per tracked stream.
  std::vector<std::uint64_t> stream_heads_;
  std::size_t stream_rr_ = 0;

  // Prefetched lines still in flight: a demand access to one waits for its
  // arrival instead of getting the line "for free" the instant the prefetch
  // was issued. Lazily pruned.
  std::unordered_map<std::uint64_t, double> inflight_fills_;

  MemStats stats_;
};

}  // namespace adse::mem
