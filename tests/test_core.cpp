#include <gtest/gtest.h>

#include "core/batched_core.hpp"

#include "common/require.hpp"
#include "config/baselines.hpp"
#include "kernels/kernel_builder.hpp"
#include "kernels/workloads.hpp"

namespace adse::core {
namespace {

using kernels::fp;
using kernels::gp;
using kernels::KernelBuilder;
using kernels::pred;
using isa::InstrGroup;

/// One simulation: a one-lane pass of the engine.
CoreStats run(const config::CpuConfig& cfg, const isa::Program& program,
              const CoreFidelity& fidelity = {}) {
  mem::MemoryHierarchy hierarchy(cfg.mem, config::kCoreClockGhz);
  mem::MemoryHierarchy* lane_hierarchy = &hierarchy;
  BatchedCore core({&cfg, 1}, {&lane_hierarchy, 1}, fidelity);
  return core.run(DecodedTrace(program))[0];
}

/// A wide-open configuration where only the aspect under test binds.
config::CpuConfig roomy() {
  config::CpuConfig c = config::thunderx2_baseline();
  c.name = "roomy";
  c.core.frontend_width = 16;
  c.core.commit_width = 16;
  c.core.fetch_block_bytes = 256;
  c.core.rob_size = 512;
  c.core.gp_phys_regs = 512;
  c.core.fp_phys_regs = 512;
  c.core.pred_phys_regs = 512;
  c.core.cond_phys_regs = 512;
  c.core.load_queue_size = 256;
  c.core.store_queue_size = 256;
  c.core.lsq_completion_width = 8;
  c.core.mem_requests_per_cycle = 8;
  c.core.mem_loads_per_cycle = 8;
  c.core.mem_stores_per_cycle = 8;
  c.core.load_bandwidth_bytes = 1024;
  c.core.store_bandwidth_bytes = 1024;
  return c;
}

isa::Program independent_ints(int n) {
  KernelBuilder b("ints");
  for (int i = 0; i < n; ++i) b.op(InstrGroup::kInt, gp(i % 16));
  return b.take();
}

isa::Program serial_fp_chain(int n) {
  KernelBuilder b("chain");
  b.op(InstrGroup::kFp, fp(0));
  for (int i = 0; i < n; ++i) b.op(InstrGroup::kFp, fp(0), fp(0));
  return b.take();
}

TEST(Core, RetiresEveryOp) {
  const auto program = independent_ints(1000);
  const CoreStats stats = run(roomy(), program);
  EXPECT_EQ(stats.retired, 1000u);
  EXPECT_EQ(stats.retired_by_group[static_cast<int>(InstrGroup::kInt)], 1000u);
}

TEST(Core, EmptyProgramThrows) {
  isa::Program empty;
  empty.name = "empty";
  EXPECT_THROW(run(roomy(), empty), InvariantError);
}

TEST(Core, IndependentIntsSaturateDispatch) {
  // 3 mixed ports bind INT throughput below the dispatch width of 4.
  const auto program = independent_ints(3000);
  const CoreStats stats = run(roomy(), program);
  EXPECT_GT(stats.ipc(), 2.5);
  EXPECT_LE(stats.ipc(), 3.1);  // 3 INT-capable ports
}

TEST(Core, SerialChainBoundByLatency) {
  const int n = 500;
  const CoreStats stats = run(roomy(), serial_fp_chain(n));
  // Each link waits 4 cycles for its predecessor.
  EXPECT_GE(stats.cycles, static_cast<std::uint64_t>(n) * 4);
  EXPECT_LE(stats.cycles, static_cast<std::uint64_t>(n) * 4 + 100);
}

TEST(Core, FrontendWidthThrottles) {
  config::CpuConfig narrow = roomy();
  narrow.core.frontend_width = 1;
  const auto program = independent_ints(2000);
  const CoreStats wide_stats = run(roomy(), program);
  const CoreStats narrow_stats = run(narrow, program);
  EXPECT_GT(narrow_stats.cycles, wide_stats.cycles * 2);
  EXPECT_LE(narrow_stats.ipc(), 1.01);
}

TEST(Core, CommitWidthThrottles) {
  config::CpuConfig narrow = roomy();
  narrow.core.commit_width = 1;
  const auto program = independent_ints(2000);
  const CoreStats stats = run(narrow, program);
  EXPECT_LE(stats.ipc(), 1.01);
}

TEST(Core, FetchBlockThrottles) {
  config::CpuConfig tiny = roomy();
  tiny.core.fetch_block_bytes = 4;  // one instruction per cycle
  const auto program = independent_ints(2000);
  const CoreStats stats = run(tiny, program);
  EXPECT_LE(stats.ipc(), 1.01);
  EXPECT_GT(stats.stall_fetch_bytes, 100u);
}

TEST(Core, LoopBufferBypassesFetchBlock) {
  // Same 1-byte/cycle fetch block, but the code is a small loop: after the
  // first iteration it streams from the loop buffer at full frontend width.
  auto loop_program = [] {
    KernelBuilder b("loop");
    b.begin_loop();
    for (int iter = 0; iter < 400; ++iter) {
      b.begin_iteration();
      for (int i = 0; i < 4; ++i) b.op(InstrGroup::kInt, gp(i + 1));
      b.end_iteration();
    }
    b.end_loop();
    return b.take();
  }();

  config::CpuConfig tiny = roomy();
  tiny.core.fetch_block_bytes = 4;
  tiny.core.loop_buffer_size = 16;
  const CoreStats with_lb = run(tiny, loop_program);

  config::CpuConfig no_lb = tiny;
  no_lb.core.loop_buffer_size = 1;  // body of 4 does not fit
  const CoreStats without_lb = run(no_lb, loop_program);

  EXPECT_LT(with_lb.cycles * 2, without_lb.cycles);
  EXPECT_GT(with_lb.loop_buffer_ops, 1000u);
  EXPECT_EQ(without_lb.loop_buffer_ops, 0u);
}

TEST(Core, RobSizeLimitsMemoryParallelism) {
  // Independent loads with long RAM latency: a bigger ROB overlaps more.
  auto loads = [] {
    KernelBuilder b("loads");
    for (int i = 0; i < 400; ++i) {
      b.load(fp(i % 8), 0x100000 + static_cast<std::uint64_t>(i) * 4096, 8,
             gp(1));
    }
    return b.take();
  }();
  config::CpuConfig small = roomy();
  // No prefetcher: otherwise useless next-line prefetches saturate DRAM
  // bandwidth and mask the latency-parallelism effect under test.
  small.mem.prefetch_distance = 0;
  small.core.rob_size = 8;
  config::CpuConfig big = roomy();
  big.mem.prefetch_distance = 0;
  const CoreStats small_stats = run(small, loads);
  const CoreStats big_stats = run(big, loads);
  EXPECT_GT(small_stats.cycles, big_stats.cycles * 3);
}

TEST(Core, RegisterPressureStalls) {
  config::CpuConfig starved = roomy();
  starved.core.fp_phys_regs = 38;  // 6 rename regs
  const auto program = serial_fp_chain(200);
  const CoreStats stats = run(starved, program);
  EXPECT_GT(stats.stall_no_phys[static_cast<int>(isa::RegClass::kFp)], 0u);
}

TEST(Core, StoreLoadForwardingObserved) {
  KernelBuilder b("fwd");
  b.op(InstrGroup::kFp, fp(1));
  b.store(0x5000, 8, fp(1), gp(1));
  b.load(fp(2), 0x5000, 8, gp(1));  // must see the store
  b.op(InstrGroup::kFp, fp(3), fp(2));
  const auto program = b.take();
  const CoreStats stats = run(roomy(), program);
  EXPECT_EQ(stats.loads_forwarded, 1u);
  EXPECT_EQ(stats.loads_sent, 0u);  // forwarded, never went to memory
  EXPECT_EQ(stats.stores_sent, 1u);
}

TEST(Core, ForwardLatencyFidelitySlowsChains) {
  KernelBuilder b("fwdchain");
  for (int i = 0; i < 100; ++i) {
    b.op(InstrGroup::kInt, gp(2), gp(2));
    b.store(0x5000 + static_cast<std::uint64_t>(i) * 8, 8, gp(2), gp(1));
    b.load(gp(2), 0x5000 + static_cast<std::uint64_t>(i) * 8, 8, gp(1));
  }
  const auto program = b.take();
  CoreFidelity slow;
  slow.forward_latency = 12;
  const CoreStats fast_stats = run(roomy(), program);
  const CoreStats slow_stats = run(roomy(), program, slow);
  EXPECT_GT(slow_stats.cycles, fast_stats.cycles + 500);
}

TEST(Core, LoadWaitsForOverlappingStoreData) {
  // A load overlapping a store whose data comes from a long FP chain cannot
  // complete before the chain does.
  KernelBuilder b("dep");
  b.op(InstrGroup::kFp, fp(0));
  for (int i = 0; i < 50; ++i) b.op(InstrGroup::kFp, fp(0), fp(0));
  b.store(0x7000, 8, fp(0), gp(1));
  b.load(fp(1), 0x7000, 8, gp(1));
  const auto program = b.take();
  const CoreStats stats = run(roomy(), program);
  EXPECT_GE(stats.cycles, 200u);  // 50 links x 4 cycles
}

TEST(Core, MispredictFidelityAddsCycles) {
  KernelBuilder b("branches");
  for (int i = 0; i < 3000; ++i) {
    b.cmp(gp(1), gp(2));
    b.branch();
    b.op(InstrGroup::kInt, gp(3));
  }
  const auto program = b.take();
  CoreFidelity flushy;
  flushy.mispredict_interval = 10;
  flushy.mispredict_penalty = 20;
  // Narrow frontend: fetch is the bottleneck, so flushes genuinely stall.
  config::CpuConfig cfg = roomy();
  cfg.core.frontend_width = 4;
  const CoreStats base = run(cfg, program);
  const CoreStats flushed = run(cfg, program, flushy);
  EXPECT_GT(flushed.cycles, base.cycles + 1000);
}

TEST(Core, LoopExitMispredictFidelity) {
  KernelBuilder b("exits");
  for (int loop = 0; loop < 100; ++loop) {
    b.begin_loop();
    for (int iter = 0; iter < 5; ++iter) {
      b.begin_iteration();
      b.op(InstrGroup::kInt, gp(1), gp(1));
      b.branch();
      b.end_iteration();
    }
    b.end_loop();
  }
  const auto program = b.take();
  CoreFidelity exits;
  exits.mispredict_loop_exits = true;
  exits.mispredict_penalty = 20;
  config::CpuConfig cfg = roomy();
  cfg.core.frontend_width = 2;  // keep fetch on the critical path
  const CoreStats base = run(cfg, program);
  const CoreStats flushed = run(cfg, program, exits);
  // 100 loop exits x ~20 cycles of flush, partially overlapped.
  EXPECT_GT(flushed.cycles, base.cycles + 500);
}

TEST(Core, MemRequestCapsThrottleLoads) {
  auto loads = [] {
    KernelBuilder b("l1loads");
    // Touch one line, then hammer it (all L1 hits after the first).
    for (int i = 0; i < 2000; ++i) b.load(fp(i % 8), 0x6000, 8, gp(1));
    return b.take();
  }();
  config::CpuConfig capped = roomy();
  capped.core.mem_loads_per_cycle = 1;
  capped.core.mem_requests_per_cycle = 1;
  const CoreStats capped_stats = run(capped, loads);
  const CoreStats open_stats = run(roomy(), loads);
  EXPECT_GT(capped_stats.cycles, open_stats.cycles * 3 / 2);
  EXPECT_GE(capped_stats.cycles, 2000u);  // at most 1 load sent per cycle
}

TEST(Core, LoadBandwidthThrottlesWideVectors) {
  auto vec_loads = [] {
    KernelBuilder b("wide");
    for (int i = 0; i < 500; ++i) {
      b.load(fp(i % 8), 0x8000 + static_cast<std::uint64_t>(i % 4) * 256, 256,
             gp(1));  // 2048-bit loads, L1-resident set
    }
    return b.take();
  }();
  config::CpuConfig wide = roomy();
  wide.core.vector_length_bits = 2048;
  config::CpuConfig narrow = wide;
  narrow.core.load_bandwidth_bytes = 256;  // exactly one vector per cycle
  wide.core.load_bandwidth_bytes = 1024;
  const CoreStats narrow_stats = run(narrow, vec_loads);
  const CoreStats wide_stats = run(wide, vec_loads);
  EXPECT_GE(narrow_stats.cycles, wide_stats.cycles);
  EXPECT_GE(narrow_stats.cycles, 500u);
}

TEST(Core, ImpossibleIpcNeverHappens) {
  const CoreStats stats = run(roomy(), independent_ints(5000));
  EXPECT_LE(stats.ipc(), config::kDispatchWidth);
}

TEST(Core, EventSkipObservability) {
  // Independent loads with long RAM latency: the core is idle between memory
  // responses, so the event wheel must fast-forward a large share of cycles —
  // and the accounting must decompose the run exactly.
  KernelBuilder b("skippy");
  for (int i = 0; i < 200; ++i) {
    b.load(fp(i % 8), 0x100000 + static_cast<std::uint64_t>(i) * 4096, 8,
           gp(1));
  }
  config::CpuConfig cfg = roomy();
  cfg.mem.prefetch_distance = 0;
  cfg.core.rob_size = 8;  // little overlap: plenty of pure waiting
  const CoreStats stats = run(cfg, b.take());
  EXPECT_EQ(stats.cycles_entered + stats.cycles_skipped, stats.cycles);
  EXPECT_GT(stats.cycles_skipped, stats.cycles / 4);
  // Stage attribution: every stage saw work, and no stage can have been
  // active on more cycles than the loop entered.
  for (int s = 0; s < kNumStages; ++s) {
    EXPECT_GT(stats.stage_active_cycles[s], 0u) << stage_name(static_cast<Stage>(s));
    EXPECT_LE(stats.stage_active_cycles[s], stats.cycles_entered)
        << stage_name(static_cast<Stage>(s));
  }
}

TEST(Core, WakeupsCountDependentOperands) {
  // A pure serial chain wakes exactly one consumer operand per link; the
  // first op (no sources) and the chain structure bound the count tightly.
  const int n = 300;
  const CoreStats stats = run(roomy(), serial_fp_chain(n));
  EXPECT_GE(stats.rs_wakeups, static_cast<std::uint64_t>(n) - 1);
  // Each link has one pending source; allow dispatch-time-ready slack only.
  EXPECT_LE(stats.rs_wakeups, static_cast<std::uint64_t>(n) + 1);
}

TEST(Core, ComputeBoundSkipsLittle) {
  // Back-to-back independent INTs keep every cycle busy: the event wheel
  // must not skip actively advancing cycles.
  const CoreStats stats = run(roomy(), independent_ints(2000));
  EXPECT_EQ(stats.cycles_entered + stats.cycles_skipped, stats.cycles);
  EXPECT_LT(stats.cycles_skipped, stats.cycles / 10);
}

TEST(Core, DeterministicAcrossRuns) {
  const auto program = kernels::build_app(kernels::App::kTeaLeaf, 128);
  const CoreStats a = run(config::thunderx2_baseline(), program);
  const CoreStats b = run(config::thunderx2_baseline(), program);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.retired, b.retired);
}

// Property: granting more of any single resource never increases cycles on a
// deterministic trace (per-app, per-resource parameterised sweep).
struct MonotonicCase {
  const char* label;
  void (*shrink)(config::CpuConfig&);
};

// Print the label so the listed test names do not hold load addresses (see
// PrintTo for InvalidCase in test_config.cpp).
void PrintTo(const MonotonicCase& c, std::ostream* os) { *os << c.label; }

class ResourceMonotonic : public ::testing::TestWithParam<MonotonicCase> {};

TEST_P(ResourceMonotonic, MoreResourceNeverSlower) {
  const auto program = kernels::build_app(kernels::App::kMiniBude, 128);
  const config::CpuConfig big = config::thunderx2_baseline();
  config::CpuConfig small = big;
  GetParam().shrink(small);
  const CoreStats big_stats = run(big, program);
  const CoreStats small_stats = run(small, program);
  // Allow a tiny slack: scheduling anomalies of a few cycles are possible.
  EXPECT_GE(small_stats.cycles + 16, big_stats.cycles) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Resources, ResourceMonotonic,
    ::testing::Values(
        MonotonicCase{"rob", [](config::CpuConfig& c) { c.core.rob_size = 16; }},
        MonotonicCase{"fp_regs", [](config::CpuConfig& c) { c.core.fp_phys_regs = 40; }},
        MonotonicCase{"gp_regs", [](config::CpuConfig& c) { c.core.gp_phys_regs = 38; }},
        MonotonicCase{"pred_regs", [](config::CpuConfig& c) { c.core.pred_phys_regs = 24; }},
        MonotonicCase{"cond_regs", [](config::CpuConfig& c) { c.core.cond_phys_regs = 8; }},
        MonotonicCase{"frontend", [](config::CpuConfig& c) { c.core.frontend_width = 1; }},
        MonotonicCase{"commit", [](config::CpuConfig& c) { c.core.commit_width = 1; }},
        MonotonicCase{"fetch_block", [](config::CpuConfig& c) { c.core.fetch_block_bytes = 8; }},
        MonotonicCase{"load_queue", [](config::CpuConfig& c) { c.core.load_queue_size = 4; }},
        MonotonicCase{"store_queue", [](config::CpuConfig& c) { c.core.store_queue_size = 4; }},
        MonotonicCase{"lsq_width", [](config::CpuConfig& c) { c.core.lsq_completion_width = 1; }},
        MonotonicCase{"mem_requests", [](config::CpuConfig& c) { c.core.mem_requests_per_cycle = 1; }},
        MonotonicCase{"loop_buffer", [](config::CpuConfig& c) { c.core.loop_buffer_size = 1; }}),
    [](const auto& info) { return std::string(info.param.label); });

}  // namespace
}  // namespace adse::core
