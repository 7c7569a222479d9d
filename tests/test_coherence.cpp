/// \file test_coherence.cpp
/// Coherence litmus suite: hand-built 2–4 core interleavings driven through
/// TiledMemory with exact expected MSI state transitions after every step,
/// for BOTH directory variants (full-map and limited/sparse); the injected
/// protocol defects proven catchable by the conservation laws; and the
/// multicore fuzzer end-to-end (clean soak, injection -> detection ->
/// ddmin shrink -> repro round-trip) plus multicore-simulation determinism.
///
/// Address scheme (4 tiles, ThunderX2 geometry: 64 B lines, 32 KiB 8-way L1,
/// so 64 L1 sets): home(addr) = line-index bits [1:0], L1 set = line-index
/// bits [5:0]. Same-L1-set addresses differ by 64*64 = 4096 B and always
/// share a home slice.

#include "coherence/tiled_memory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "check/fuzzer.hpp"
#include "check/repro.hpp"
#include "common/check.hpp"
#include "common/require.hpp"
#include "config/baselines.hpp"
#include "kernels/threaded.hpp"
#include "sim/multicore.hpp"

namespace adse::coherence {
namespace {

using check::FuzzOptions;
using check::Violation;
using config::CpuConfig;
using config::DirectoryScheme;

constexpr std::uint64_t kLine = 64;       // baseline cache_line_bytes
constexpr std::uint64_t kSetStride = 64 * kLine;  // same L1 set, same home

CpuConfig make_cfg(int cores, DirectoryScheme scheme, int entries = 0) {
  CpuConfig cfg = config::thunderx2_baseline();
  cfg.mc.num_cores = cores;
  cfg.mc.directory_scheme = scheme;
  cfg.mc.directory_entries = entries;
  return cfg;
}

/// Each litmus runs under both directory variants; a full-size sparse
/// directory must behave identically to the full map (no forced evictions).
const DirectoryScheme kBothSchemes[] = {DirectoryScheme::kFullMap,
                                        DirectoryScheme::kSparse};

/// One 8-byte access, sequentially timed; returns the tiled machine's clock.
std::uint64_t touch(TiledMemory& mem, int tile, std::uint64_t addr,
                    bool is_store, std::uint64_t now) {
  return mem.access(tile, addr, 8, is_store, now).ready_cycle;
}

// ---- litmus 1: read-shared then upgrade ------------------------------------

TEST(Litmus, ReadSharedThenUpgrade) {
  for (DirectoryScheme scheme : kBothSchemes) {
    SCOPED_TRACE(config::directory_scheme_name(scheme));
    TiledMemory mem(make_cfg(4, scheme));
    ScopedCheck armed(true);
    const std::uint64_t a = 0x10080;  // line index 0x402 -> home tile 2
    ASSERT_EQ(mem.home(a), 2);
    std::uint64_t t = 0;

    // Core 0 read-misses: Shared, sole sharer, no owner.
    t = touch(mem, 0, a, false, t);
    EXPECT_EQ(mem.l1_state(0, a), TiledMemory::L1State::kShared);
    EXPECT_EQ(mem.directory_sharers(a), 0b0001u);
    EXPECT_EQ(mem.directory_owner(a), -1);
    mem.verify("litmus step 1");

    // Core 1 read-misses: both Shared.
    t = touch(mem, 1, a, false, t);
    EXPECT_EQ(mem.l1_state(0, a), TiledMemory::L1State::kShared);
    EXPECT_EQ(mem.l1_state(1, a), TiledMemory::L1State::kShared);
    EXPECT_EQ(mem.directory_sharers(a), 0b0011u);
    EXPECT_EQ(mem.directory_owner(a), -1);
    mem.verify("litmus step 2");

    // Core 1 store-hits on its Shared copy: upgrade. The home invalidates
    // core 0 (exactly one invalidation, acked) and records core 1 as owner.
    t = touch(mem, 1, a, true, t);
    EXPECT_EQ(mem.l1_state(0, a), TiledMemory::L1State::kInvalid);
    EXPECT_EQ(mem.l1_state(1, a), TiledMemory::L1State::kModified);
    EXPECT_EQ(mem.directory_sharers(a), 0b0010u);
    EXPECT_EQ(mem.directory_owner(a), 1);
    EXPECT_EQ(mem.stats().upgrades, 1u);
    EXPECT_EQ(mem.stats().invalidations_sent, 1u);
    EXPECT_EQ(mem.stats().invalidation_acks, 1u);
    mem.verify("litmus step 3");
  }
}

// ---- litmus 2: M -> S downgrade on a remote read ---------------------------

TEST(Litmus, RemoteReadDowngradesModifiedOwner) {
  for (DirectoryScheme scheme : kBothSchemes) {
    SCOPED_TRACE(config::directory_scheme_name(scheme));
    TiledMemory mem(make_cfg(4, scheme));
    ScopedCheck armed(true);
    const std::uint64_t a = 0x100C0;  // line index 0x403 -> home tile 3
    ASSERT_EQ(mem.home(a), 3);
    std::uint64_t t = 0;

    // Core 2 store-misses: fetch-exclusive, Modified.
    t = touch(mem, 2, a, true, t);
    EXPECT_EQ(mem.l1_state(2, a), TiledMemory::L1State::kModified);
    EXPECT_EQ(mem.directory_owner(a), 2);
    mem.verify("litmus step 1");

    // Core 0 reads: the home downgrades the owner (M -> S, dirty data
    // written back into the home slice) and both end up Shared.
    t = touch(mem, 0, a, false, t);
    EXPECT_EQ(mem.l1_state(2, a), TiledMemory::L1State::kShared);
    EXPECT_EQ(mem.l1_state(0, a), TiledMemory::L1State::kShared);
    EXPECT_EQ(mem.directory_sharers(a), 0b0101u);
    EXPECT_EQ(mem.directory_owner(a), -1);
    EXPECT_EQ(mem.stats().downgrades, 1u);
    EXPECT_EQ(mem.stats().writebacks_owner, 1u);
    mem.verify("litmus step 2");
  }
}

// ---- litmus 3: store to a remotely-Modified line ---------------------------

TEST(Litmus, RemoteWriteInvalidatesModifiedOwner) {
  for (DirectoryScheme scheme : kBothSchemes) {
    SCOPED_TRACE(config::directory_scheme_name(scheme));
    TiledMemory mem(make_cfg(2, scheme));
    ScopedCheck armed(true);
    const std::uint64_t a = 0x10040;  // 2 tiles: line index 0x401 -> home 1
    ASSERT_EQ(mem.home(a), 1);
    std::uint64_t t = 0;

    t = touch(mem, 0, a, true, t);
    EXPECT_EQ(mem.l1_state(0, a), TiledMemory::L1State::kModified);

    // Core 1 store-misses: ownership migrates, core 0 loses its copy.
    t = touch(mem, 1, a, true, t);
    EXPECT_EQ(mem.l1_state(0, a), TiledMemory::L1State::kInvalid);
    EXPECT_EQ(mem.l1_state(1, a), TiledMemory::L1State::kModified);
    EXPECT_EQ(mem.directory_sharers(a), 0b10u);
    EXPECT_EQ(mem.directory_owner(a), 1);
    EXPECT_EQ(mem.stats().invalidations_sent, mem.stats().invalidation_acks);
    EXPECT_EQ(mem.stats().writebacks_owner, 1u);
    mem.verify("litmus step 2");
  }
}

// ---- litmus 4: writeback on M-line L1 eviction -----------------------------

TEST(Litmus, ModifiedEvictionWritesBackAndUntracks) {
  for (DirectoryScheme scheme : kBothSchemes) {
    SCOPED_TRACE(config::directory_scheme_name(scheme));
    TiledMemory mem(make_cfg(4, scheme));
    ScopedCheck armed(true);
    const std::uint64_t a = 0x10000;  // line index 0x400 -> home tile 0
    std::uint64_t t = 0;

    t = touch(mem, 0, a, true, t);
    EXPECT_EQ(mem.l1_state(0, a), TiledMemory::L1State::kModified);

    // Eight more lines in the same 8-way L1 set force a's true-LRU eviction.
    // Non-silent protocol: the dirty line is written back to its home slice
    // and the directory entry is released.
    for (int k = 1; k <= 8; ++k) {
      t = touch(mem, 0, a + k * kSetStride, false, t);
      mem.verify("litmus fill");
    }
    EXPECT_EQ(mem.l1_state(0, a), TiledMemory::L1State::kInvalid);
    EXPECT_EQ(mem.directory_sharers(a), 0u);
    EXPECT_EQ(mem.directory_owner(a), -1);
    EXPECT_EQ(mem.stats().writebacks_eviction, 1u);
    mem.verify("litmus end");
  }
}

// ---- litmus 5: sparse directory eviction forces invalidation ---------------

TEST(Litmus, SparseDirectoryEvictionInvalidatesTrackedSharers) {
  // 8 directory entries per slice (2 sets x 4 ways). Reading 16 distinct
  // lines homed at one slice must overflow the entry table; every forced
  // eviction recalls a line some L1 still holds.
  TiledMemory mem(make_cfg(4, DirectoryScheme::kSparse, 8));
  ScopedCheck armed(true);
  std::uint64_t t = 0;
  const int kLines = 16;
  for (int k = 0; k < kLines; ++k) {
    // line index 4k: home 0, distinct L1 sets for k < 16.
    t = touch(mem, 1, static_cast<std::uint64_t>(4 * k) * kLine, false, t);
    mem.verify("sparse fill");
  }
  EXPECT_GE(mem.directory_evictions(), 8u);

  // Each directory eviction dropped a resident Shared copy, so fewer than
  // kLines survive in core 1's L1 even though its capacity is untouched.
  int shared = 0;
  for (int k = 0; k < kLines; ++k) {
    const std::uint64_t a = static_cast<std::uint64_t>(4 * k) * kLine;
    if (mem.l1_state(1, a) == TiledMemory::L1State::kShared) shared++;
  }
  EXPECT_LE(shared, 8);
  EXPECT_EQ(mem.stats().invalidations_sent, mem.stats().invalidation_acks);
  mem.verify("sparse end");

  // A full map given the same workload never evicts directory entries.
  TiledMemory full(make_cfg(4, DirectoryScheme::kFullMap));
  std::uint64_t tf = 0;
  for (int k = 0; k < kLines; ++k) {
    tf = touch(full, 1, static_cast<std::uint64_t>(4 * k) * kLine, false, tf);
  }
  EXPECT_EQ(full.directory_evictions(), 0u);
}

// ---- injected defects: every planted bug must trip a law -------------------

TEST(Injection, DroppedInvalidationAckTripsConservation) {
  TiledOptions opt;
  opt.inject = InjectedBug::kDropInvalAck;
  TiledMemory mem(make_cfg(2, DirectoryScheme::kFullMap), config::kCoreClockGhz,
                  opt);
  ScopedCheck armed(true);
  const std::uint64_t a = 0x10000;
  std::uint64_t t = touch(mem, 0, a, false, 0);
  // Core 1's upgrade sends the (lost) invalidation; the armed post-access
  // counter check sees sent != acked immediately.
  EXPECT_THROW(touch(mem, 1, a, true, t), InvariantError);
}

TEST(Injection, LeakedSharerBitTripsWalk) {
  TiledOptions opt;
  opt.inject = InjectedBug::kLeakSharerBit;
  TiledMemory mem(make_cfg(2, DirectoryScheme::kFullMap), config::kCoreClockGhz,
                  opt);
  const std::uint64_t a = 0x10000;
  std::uint64_t t = touch(mem, 0, a, false, 0);
  // Evict a (clean) from core 0's L1: the eviction notification is lost, the
  // directory keeps a stale sharer bit. Counters stay balanced — only the
  // full structural walk catches this one.
  for (int k = 1; k <= 8; ++k) {
    t = touch(mem, 0, a + k * kSetStride, false, t);
  }
  EXPECT_EQ(mem.l1_state(0, a), TiledMemory::L1State::kInvalid);
  EXPECT_THROW(mem.verify("stale sharer"), InvariantError);
}

TEST(Injection, SkippedDowngradeTripsWalk) {
  TiledOptions opt;
  opt.inject = InjectedBug::kSkipDowngrade;
  TiledMemory mem(make_cfg(2, DirectoryScheme::kFullMap), config::kCoreClockGhz,
                  opt);
  const std::uint64_t a = 0x10000;
  std::uint64_t t = touch(mem, 0, a, true, 0);
  t = touch(mem, 1, a, false, t);  // the downgrade core 0 never performs
  EXPECT_EQ(mem.l1_state(0, a), TiledMemory::L1State::kModified);
  EXPECT_THROW(mem.verify("modified without ownership"), InvariantError);
}

// ---- multicore fuzzer end-to-end -------------------------------------------

TEST(McFuzz, CleanSoakFindsNothing) {
  FuzzOptions options;
  options.iterations = 16;
  options.seed = 7;
  const check::FuzzReport report = check::mc_fuzz(options);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.evaluations, 16u);
}

TEST(McFuzz, InjectedBugCaughtAndShrunkToTwoDimensions) {
  FuzzOptions options;
  options.iterations = 8;
  options.seed = 1;
  options.inject = InjectedBug::kDropInvalAck;
  const check::FuzzReport report = check::mc_fuzz(options);
  ASSERT_FALSE(report.ok());
  // ddmin must land within two non-baseline dimensions of the default
  // McPoint (the acceptance bar for the planted-defect demo).
  eval::EvalService service;  // coherence replays do not use it
  const auto fires = [&service](Violation& probe) {
    return check::reproduces(service, probe);
  };
  for (const Violation& v : report.violations) {
    Violation copy = v;
    EXPECT_LE(check::shrink_violation(fires, copy), 2u) << copy.message;
    EXPECT_TRUE(check::reproduces(service, copy));
  }
}

TEST(McFuzz, ReproStringRoundTrips) {
  Violation v;
  v.kind = Violation::Kind::kCoherence;
  v.seed = 42;
  v.iteration = 7;
  v.point.num_cores = 8;
  v.point.directory_scheme = DirectoryScheme::kSparse;
  v.point.directory_entries = 16;
  v.point.vector_length_bits = 512;
  v.point.app = kernels::McApp::kThreadedStream;
  v.point.interleave_seed = 0xDEADBEEFCAFEF00DULL;  // > INT64_MAX when doubled
  v.inject = InjectedBug::kLeakSharerBit;
  v.message = "requirement failed: stale sharer bit";

  const Violation back =
      check::repro_from_string(check::repro_to_string(v));
  EXPECT_EQ(back.seed, v.seed);
  EXPECT_EQ(back.iteration, v.iteration);
  EXPECT_EQ(back.point.num_cores, v.point.num_cores);
  EXPECT_EQ(back.point.directory_scheme, v.point.directory_scheme);
  EXPECT_EQ(back.point.directory_entries, v.point.directory_entries);
  EXPECT_EQ(back.point.vector_length_bits, v.point.vector_length_bits);
  EXPECT_EQ(back.point.app, v.point.app);
  EXPECT_EQ(back.point.interleave_seed, v.point.interleave_seed);
  EXPECT_EQ(back.inject, v.inject);
  EXPECT_EQ(back.message, v.message);
}

TEST(McFuzz, ReproFileRoundTripsThroughDisk) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "adse_mc_repro_test").string();
  Violation v;
  v.kind = Violation::Kind::kCoherence;
  v.seed = 3;
  v.iteration = 11;
  v.point.num_cores = 4;
  v.inject = InjectedBug::kSkipDowngrade;
  v.message = "walk failed";
  check::save_repro(dir, v);
  EXPECT_EQ(v.repro_path, dir + "/mc-repro-3-11.txt");
  const Violation back = check::load_repro(v.repro_path);
  EXPECT_EQ(back.point.num_cores, 4);
  EXPECT_EQ(back.inject, InjectedBug::kSkipDowngrade);
  std::filesystem::remove_all(dir);
}

TEST(McFuzz, MalformedReproRejected) {
  EXPECT_THROW(check::repro_from_string("not a repro"), InvariantError);
  EXPECT_THROW(check::repro_from_string(
                   "adse-check-repro v1\nkind: coherence\nbogus_key: 1\n"),
               InvariantError);
  // Points whose configuration fails validate() are rejected on load, before
  // anything could run them: 3 tiles is not a power of two, a 100-bit VL is
  // not an SVE length, and -1 tiles would size the skew vector negatively.
  const std::string header = "adse-check-repro v1\nkind: coherence\n";
  EXPECT_THROW(check::repro_from_string(header + "cores: 3\n"),
               InvariantError);
  EXPECT_THROW(check::repro_from_string(header + "vl: 100\n"),
               InvariantError);
  EXPECT_THROW(check::repro_from_string(header +
                                        "cores: -1\ninterleave_seed: 5\n"),
               InvariantError);
}

// ---- multicore simulation: determinism and retirement ----------------------

TEST(MulticoreSim, DeterministicAndRetiresEveryUop) {
  for (kernels::McApp app : kernels::all_mc_apps()) {
    SCOPED_TRACE(kernels::mc_app_slug(app));
    const CpuConfig cfg = make_cfg(4, DirectoryScheme::kFullMap);
    ScopedCheck armed(true);
    const sim::MulticoreResult first = sim::simulate_mc_app(cfg, app);
    const sim::MulticoreResult second = sim::simulate_mc_app(cfg, app);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.retired_uops, second.retired_uops);
    EXPECT_EQ(first.per_core_cycles, second.per_core_cycles);

    const kernels::ThreadedProgram program =
        kernels::build_mc_app(app, 4, cfg.core.vector_length_bits);
    std::uint64_t expected = 0;
    for (const auto& thread : program.threads) expected += thread.ops.size();
    EXPECT_EQ(first.retired_uops, expected);
    EXPECT_GT(first.cycles, 0u);
    EXPECT_TRUE(first.power.valid());
    EXPECT_GT(first.power.energy_j(), 0.0);
  }
}

TEST(MulticoreSim, StartSkewChangesInterleavingNotCorrectness) {
  const CpuConfig cfg = make_cfg(2, DirectoryScheme::kFullMap);
  ScopedCheck armed(true);
  sim::MulticoreOptions skewed;
  skewed.start_skew = {0, 17};
  const sim::MulticoreResult base =
      sim::simulate_mc_app(cfg, kernels::McApp::kRingPass);
  const sim::MulticoreResult shifted =
      sim::simulate_mc_app(cfg, kernels::McApp::kRingPass, skewed);
  EXPECT_EQ(base.retired_uops, shifted.retired_uops);
  // Skew genuinely changes the protocol race ordering (here it happens to
  // *help*: the late starter dodges upgrade/downgrade ping-pong). The sim is
  // deterministic, so the inequality is stable.
  EXPECT_NE(shifted.cycles, base.cycles);
}

TEST(MulticoreSim, RingPassIsCoherenceBound) {
  const CpuConfig cfg = make_cfg(4, DirectoryScheme::kFullMap);
  ScopedCheck armed(true);
  const sim::MulticoreResult r =
      sim::simulate_mc_app(cfg, kernels::McApp::kRingPass);
  // Every round is a chain of downgrades and upgrades around the ring.
  EXPECT_GT(r.mem.downgrades, 0u);
  EXPECT_GT(r.mem.upgrades, 0u);
  EXPECT_GT(r.mem.invalidations_sent, 0u);
  EXPECT_EQ(r.mem.invalidations_sent, r.mem.invalidation_acks);
}

TEST(MulticoreSim, CoreCountMismatchThrows) {
  const CpuConfig cfg = make_cfg(4, DirectoryScheme::kFullMap);
  const kernels::ThreadedProgram two =
      kernels::build_mc_app(kernels::McApp::kRingPass, 2, 128);
  EXPECT_THROW(sim::simulate_multicore(cfg, two), InvariantError);
}

}  // namespace
}  // namespace adse::coherence
