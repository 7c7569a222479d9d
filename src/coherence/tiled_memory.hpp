#pragma once
/// \file tiled_memory.hpp
/// The multicore tiled memory subsystem: N tiles, each pairing one logical
/// core with a private L1, sharing an address-interleaved L2 whose slices sit
/// one per tile on a ring. An MSI directory at each home slice keeps the L1s
/// coherent (Graphite's pr_l1_sh_l2 organisation with either a full-map or a
/// limited/sparse directory — see DESIGN.md §16).
///
/// State encoding reuses the bits mem::Cache already keeps per line:
/// valid+dirty = Modified, valid+clean = Shared, absent = Invalid. All L1
/// evictions are notified to the home slice (non-silent), so the directory's
/// sharer vectors are exact — which is what makes the conservation laws in
/// verify() checkable at every quiescent point:
///   1. at most one Modified copy of any line, and the directory's owner
///      field names exactly that tile;
///   2. an owner implies no other sharers (MSI exclusivity);
///   3. every directory sharer bit is backed by a resident L1 copy, and
///      every resident L1 copy is backed by a sharer bit;
///   4. invalidations_sent == invalidation_acks (no message is ever lost);
///   5. sharer_adds - sharer_drops == sharer bits currently live (the
///      per-line epoch counters balance);
///   6. L2 slices are inclusive of the L1s, and every tracked line lives at
///      its home slice.
///
/// Timing follows MemoryHierarchy's conventions (the same mem::level_timing
/// conversions, the same port-interval model) plus a ring network:
/// each hop between tiles costs kHopCoreCycles. The tiled model deliberately
/// omits the prefetcher — coherent prefetching is its own research problem —
/// so `prefetch_distance` is ignored in multicore mode.

#include <cstdint>
#include <vector>

#include "coherence/directory.hpp"
#include "coherence/stats.hpp"
#include "config/cpu_config.hpp"
#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"

namespace adse::coherence {

/// One-way latency per ring hop, in core cycles (on-die mesh-class link).
inline constexpr double kHopCoreCycles = 8.0;

/// Directory occupancy per invalidation handled (serialised at the home).
inline constexpr double kInvalServiceCoreCycles = 2.0;

/// Deliberate protocol defects for the litmus/fuzz harness. Each fires ONCE
/// per TiledMemory lifetime — a single lost message is the hardest kind of
/// coherence bug to catch, and it is exactly what the conservation laws must
/// flag. kNone in production paths.
enum class InjectedBug : int {
  kNone = 0,
  /// The home sends an invalidation but the message is lost: the remote S
  /// copy survives, the sharer bit stays set, and no ack arrives. Trips law
  /// 4 (and later 2, once the new owner writes).
  kDropInvalAck = 1,
  /// An L1 eviction notification is lost: the L1 drops the line but the
  /// directory keeps its sharer bit. Trips law 3 on the next full walk.
  kLeakSharerBit = 2,
  /// A read-miss downgrade forgets to clear the remote owner's dirty bit:
  /// a Modified copy survives with no directory owner. Trips law 1.
  kSkipDowngrade = 3,
};

const std::string& injected_bug_name(InjectedBug bug);
InjectedBug injected_bug_from_name(const std::string& name);

struct TiledOptions {
  InjectedBug inject = InjectedBug::kNone;
};

class TiledMemory {
 public:
  /// Builds cfg.mc.num_cores tiles from `cfg`: each tile gets a private L1 of
  /// cfg.mem.l1_size_kib and an L2 slice of cfg.mem.l2_size_kib; the sparse
  /// directory capacity per slice resolves via resolved_directory_entries().
  /// Works for num_cores == 1 (degenerate single tile, no remote traffic).
  explicit TiledMemory(const config::CpuConfig& cfg,
                       double core_clock_ghz = config::kCoreClockGhz,
                       const TiledOptions& options = {});

  /// Issues one demand access from `tile` (possibly spanning lines), starting
  /// at core cycle `now`; returns when all data is available at the tile.
  mem::AccessResult access(int tile, std::uint64_t addr,
                           std::uint32_t size_bytes, bool is_store,
                           std::uint64_t now);

  int num_tiles() const { return tiles_; }
  const CoherenceStats& stats() const { return stats_; }

  /// The tile whose L2 slice (and directory) is home to this line.
  int home(std::uint64_t addr) const {
    return static_cast<int>((addr >> line_shift_) &
                            static_cast<std::uint64_t>(tiles_ - 1));
  }

  // --- litmus-test introspection -------------------------------------------

  /// MSI state of the line containing `addr` in one tile's private L1.
  enum class L1State { kInvalid, kShared, kModified };
  L1State l1_state(int tile, std::uint64_t addr) const;

  /// Directory view of the line: sharer bit-vector (0 if untracked) and the
  /// Modified owner (-1 if none / untracked).
  std::uint32_t directory_sharers(std::uint64_t addr) const;
  int directory_owner(std::uint64_t addr) const;

  /// Sparse directory-entry evictions so far, summed over slices.
  std::uint64_t directory_evictions() const;

  // --- conservation laws ---------------------------------------------------

  /// The O(1) counter laws (4, 5 and demand accounting). Runs after every
  /// access automatically when the check layer is armed; public so the
  /// multicore simulator can also call it each entered cycle.
  void verify_counters(const char* when) const;

  /// The full structural walk: every law, cross-checking each directory
  /// entry against the actual L1 and L2 contents. O(cached lines); call at
  /// quiescent points (litmus steps, periodic fuzz cadence, end of run).
  void verify(const char* when) const;

  void reset();

 private:
  std::uint32_t bit(int tile) const { return 1u << tile; }

  /// Ring distance a->b in core cycles (0 when a == b).
  double net(int a, int b) const;

  /// One line-granular request from `tile`; returns completion core cycle.
  double line_request(int tile, std::uint64_t line_addr, bool is_store,
                      double start);

  /// Sends invalidations to every sharer of `e` except `exclude`; collects
  /// acks, clears bits. Returns the time all acks are home. This is where
  /// kDropInvalAck fires.
  double invalidate_sharers(DirEntry* e, int slice, int exclude, double t);

  /// A sparse directory eviction: recalls every cached copy of the victim's
  /// line (writing Modified data back into the home slice) so the entry can
  /// be reused. The line itself stays L2-resident, merely untracked.
  double forced_invalidate(const DirEntry& victim, int slice, double t);

  /// An L1 capacity eviction, notified to the home (non-silent).
  void handle_l1_eviction(int tile, std::uint64_t line_addr, bool dirty);

  /// An L2 slice eviction: back-invalidates all L1 copies (inclusivity) and
  /// writes dirty data to DRAM.
  void handle_l2_eviction(int slice, const mem::Eviction& ev);

  void add_sharer(DirEntry* e, int tile);
  void drop_sharer(DirEntry* e, int slice, int tile);

  int tiles_ = 1;
  std::uint32_t line_shift_ = 0;
  std::uint32_t line_bytes_ = 0;
  InjectedBug inject_ = InjectedBug::kNone;
  bool inject_armed_ = false;  ///< true until the one-shot bug has fired

  std::vector<mem::Cache> l1_;      // one per tile
  std::vector<mem::Cache> l2_;      // one slice per tile
  std::vector<Directory> dir_;      // one per slice

  // Latencies / port intervals in core cycles (MemoryHierarchy's formulas).
  mem::LevelTiming timing_;

  std::vector<double> l1_free_;  // per tile
  std::vector<double> l2_free_;  // per slice
  double ram_free_ = 0;          // one shared memory controller

  /// Sharer bits currently set across all directories, maintained
  /// incrementally by add_sharer/drop_sharer; law 5 cross-checks it against
  /// both the epoch counters (O(1)) and the walk's popcount total.
  std::uint64_t live_sharer_bits_ = 0;

  CoherenceStats stats_;
};

}  // namespace adse::coherence
