/// \file test_check.cpp
/// The verification harness verified: oracle bounds on hand-built traces
/// with hand-computed expectations, the invariant layer catching tampered
/// results, the ddmin shrinker on a synthetic failure predicate, and the
/// repro file round-trip.

#include "check/check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "check/fuzzer.hpp"
#include "check/repro.hpp"
#include "common/check.hpp"
#include "common/require.hpp"
#include "config/baselines.hpp"
#include "eval/service.hpp"
#include "kernels/kernel_builder.hpp"
#include "sim/simulation.hpp"

namespace adse::check {
namespace {

using config::CpuConfig;
using config::ParamId;
using kernels::gp;

isa::Program straight_line(int n, isa::InstrGroup group) {
  kernels::KernelBuilder b("hand");
  for (int i = 0; i < n; ++i) b.op(group, gp(1), gp(2));
  return b.take();
}

// ---- oracle: retirement facts ---------------------------------------------

TEST(Oracle, CountsMatchTraceStats) {
  const CpuConfig cfg = config::thunderx2_baseline();
  for (kernels::App app : kernels::all_apps()) {
    const isa::Program trace =
        kernels::build_app(app, cfg.core.vector_length_bits);
    const isa::TraceStats stats = isa::compute_stats(trace);
    const Oracle oracle = oracle_from(analysis::summarize_trace(trace), cfg);
    EXPECT_EQ(oracle.total_ops, stats.total);
    EXPECT_EQ(oracle.sve_ops, stats.sve_ops);
    for (int g = 0; g < isa::kNumInstrGroups; ++g) {
      EXPECT_EQ(oracle.by_group[g], stats.by_group[g]);
    }
  }
}

TEST(Oracle, EmptyProgramThrows) {
  const isa::Program empty;
  EXPECT_THROW(oracle_from(analysis::summarize_trace(empty),
                           config::thunderx2_baseline()),
               InvariantError);
}

// ---- oracle: hand-computed cycle bounds -----------------------------------

TEST(Oracle, SixIntOpsOnBaseline) {
  // 6 kInt ops on the ThunderX2 baseline. Lower bound: the width limits give
  // ceil(6/4) = 2, the three mixed ports give ceil(6/3) = 2, fetch needs
  // ceil(24/32) = 1 block — so 2. Upper bound: serial replay charges each op
  // the pipeline overhead plus its 1-cycle latency, then the slack.
  const Oracle oracle = oracle_from(
      analysis::summarize_trace(straight_line(6, isa::InstrGroup::kInt)),
      config::thunderx2_baseline());
  EXPECT_EQ(oracle.total_ops, 6u);
  EXPECT_EQ(oracle.fetch_bytes, 6u * isa::kInstrBytes);
  EXPECT_EQ(oracle.min_cycles, 2u);
  EXPECT_EQ(oracle.max_cycles,
            6u * (kSerialPerOpOverhead + 1) + kSerialSlackCycles);
}

TEST(Oracle, CommitWidthOneForcesOneRetirePerCycle) {
  CpuConfig cfg = config::thunderx2_baseline();
  cfg.core.commit_width = 1;
  const Oracle oracle = oracle_from(
      analysis::summarize_trace(straight_line(6, isa::InstrGroup::kInt)), cfg);
  EXPECT_EQ(oracle.min_cycles, 6u);
}

TEST(Oracle, FpDivLatencyPricedIntoUpperBound) {
  // kFpDiv has a 16-cycle execution latency.
  const Oracle oracle = oracle_from(
      analysis::summarize_trace(straight_line(2, isa::InstrGroup::kFpDiv)),
      config::thunderx2_baseline());
  EXPECT_EQ(oracle.max_cycles,
            2u * (kSerialPerOpOverhead + 16) + kSerialSlackCycles);
}

TEST(Oracle, StoreSendRateBoundsBelow) {
  // Baseline sends at most one store per cycle, so 5 stores need 5 cycles
  // whatever the widths.
  kernels::KernelBuilder b("stores");
  for (int i = 0; i < 5; ++i) {
    b.store(0x1000 + 8 * static_cast<std::uint64_t>(i), 8, gp(1), gp(2));
  }
  const Oracle oracle = oracle_from(analysis::summarize_trace(b.take()),
                                    config::thunderx2_baseline());
  EXPECT_EQ(oracle.min_cycles, 5u);
}

TEST(Oracle, LoopBufferStreamingExemptsFetchBytes) {
  // 3 iterations of a 3-op body: only the first (training) iteration pulls
  // encoding bytes through fetch blocks — unless the body does not fit the
  // loop buffer, in which case every op pays.
  kernels::KernelBuilder b("loop");
  b.begin_loop();
  for (int iter = 0; iter < 3; ++iter) {
    b.begin_iteration();
    b.op(isa::InstrGroup::kInt, gp(1));
    b.op(isa::InstrGroup::kInt, gp(2));
    b.branch();
    b.end_iteration();
  }
  b.end_loop();
  const isa::Program trace = b.take();

  CpuConfig fits = config::thunderx2_baseline();  // loop buffer holds 32
  EXPECT_EQ(oracle_from(analysis::summarize_trace(trace), fits).fetch_bytes,
            3u * isa::kInstrBytes);

  CpuConfig spills = fits;
  spills.core.loop_buffer_size = 2;  // 3-op body cannot stream
  EXPECT_EQ(oracle_from(analysis::summarize_trace(trace), spills).fetch_bytes,
            9u * isa::kInstrBytes);
}

TEST(Oracle, LineStraddlingLoadCostsTwoLines) {
  // Same single load, aligned vs straddling a 64 B line boundary: the
  // serial upper bound prices exactly one extra line.
  kernels::KernelBuilder aligned("aligned");
  aligned.load(gp(1), 0x1000, 8, gp(2));
  kernels::KernelBuilder straddle("straddle");
  straddle.load(gp(1), 0x103c, 8, gp(2));  // crosses 0x1040
  const CpuConfig cfg = config::thunderx2_baseline();
  const Oracle one =
      oracle_from(analysis::summarize_trace(aligned.take()), cfg);
  const Oracle two =
      oracle_from(analysis::summarize_trace(straddle.take()), cfg);
  EXPECT_GT(two.max_cycles, one.max_cycles);
  const std::uint64_t line_cost = two.max_cycles - one.max_cycles;
  // ...and that extra line is the full miss path: at least the raw
  // L1+L2+RAM latencies of the baseline (4 + 11 + ~238 core cycles).
  EXPECT_GT(line_cost, 200u);
}

// ---- oracle vs the real simulator -----------------------------------------

TEST(Oracle, BoundsBracketRealRunsOnAnchorConfigs) {
  for (const CpuConfig& cfg :
       {config::thunderx2_baseline(), config::minimal_viable(),
        config::big_future(), config::a64fx_like()}) {
    for (kernels::App app : kernels::all_apps()) {
      const sim::Trace& trace =
          sim::trace(app, cfg.core.vector_length_bits);
      const sim::RunResult result = sim::simulate(cfg, trace);
      const Oracle oracle = oracle_from(trace.summary(), cfg);
      EXPECT_GE(result.core.cycles, oracle.min_cycles)
          << cfg.name << "/" << kernels::app_slug(app);
      EXPECT_LE(result.core.cycles, oracle.max_cycles)
          << cfg.name << "/" << kernels::app_slug(app);
      EXPECT_TRUE(verify_run(cfg, trace, result).empty());
    }
  }
}

TEST(VerifyRun, FlagsTamperedResults) {
  const CpuConfig cfg = config::thunderx2_baseline();
  const sim::Trace& trace =
      sim::trace(kernels::App::kStream, cfg.core.vector_length_bits);
  sim::RunResult result = sim::simulate(cfg, trace);

  sim::RunResult wrong_retired = result;
  wrong_retired.core.retired += 1;
  EXPECT_FALSE(verify_run(cfg, trace, wrong_retired).empty());

  sim::RunResult too_fast = result;
  too_fast.core.cycles = 1;
  EXPECT_FALSE(verify_run(cfg, trace, too_fast).empty());

  sim::RunResult too_slow = result;
  too_slow.core.cycles = result.core.cycles * 1000;
  EXPECT_FALSE(verify_run(cfg, trace, too_slow).empty());

  sim::RunResult lost_load = result;
  lost_load.mem.loads -= 1;
  EXPECT_FALSE(verify_run(cfg, trace, lost_load).empty());

  EXPECT_NO_THROW(require_clean_run(cfg, trace, result));
  EXPECT_THROW(require_clean_run(cfg, trace, too_fast), InvariantError);
}

// ---- the invariant layer switch -------------------------------------------

TEST(CheckSwitch, ScopedCheckRestoresState) {
  const bool before = CheckContext::enabled();
  {
    ScopedCheck on(true);
    EXPECT_TRUE(CheckContext::enabled());
    {
      ScopedCheck off(false);
      EXPECT_FALSE(CheckContext::enabled());
    }
    EXPECT_TRUE(CheckContext::enabled());
  }
  EXPECT_EQ(CheckContext::enabled(), before);
}

TEST(CheckSwitch, SimulationCleanWithChecksOn) {
  ScopedCheck on(true);
  for (kernels::App app : kernels::all_apps()) {
    EXPECT_NO_THROW(sim::simulate_app(config::thunderx2_baseline(), app));
  }
}

// ---- parameter editing helpers --------------------------------------------

TEST(ParamEdit, WithParamRoundTrips) {
  const CpuConfig base = config::thunderx2_baseline();
  const CpuConfig edited = with_param(base, ParamId::kRobSize, 256.0);
  EXPECT_EQ(edited.core.rob_size, 256);
  EXPECT_EQ(param_value(edited, ParamId::kRobSize), 256.0);
  const auto diff = diff_params(edited, base);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], ParamId::kRobSize);
  EXPECT_TRUE(diff_params(base, base).empty());
}

// ---- the shrinker ----------------------------------------------------------

TEST(Shrink, DdminFindsTheTwoCulpritParameters) {
  // Synthetic failure: fires iff ROB >= 300 AND L1 is at least 64 KiB —
  // whatever else is set. Starting from a config that differs from the
  // baseline in many parameters, ddmin must strip every irrelevant one.
  const CpuConfig baseline = config::thunderx2_baseline();
  CpuConfig noisy = baseline;
  noisy.core.rob_size = 400;
  noisy.mem.l1_size_kib = 128;
  noisy.core.gp_phys_regs = 256;
  noisy.core.fp_phys_regs = 64;
  noisy.core.commit_width = 9;
  noisy.mem.prefetch_distance = 9;
  noisy.core.load_queue_size = 200;

  Violation violation;
  violation.config = noisy;
  int probes = 0;
  const auto fires = [&probes](const Violation& v) {
    ++probes;
    return v.config.core.rob_size >= 300 && v.config.mem.l1_size_kib >= 64;
  };
  const std::size_t left = shrink_violation(fires, violation, baseline);
  EXPECT_EQ(left, 2u);
  EXPECT_EQ(violation.config.core.rob_size, 400);
  EXPECT_EQ(violation.config.mem.l1_size_kib, 128);
  EXPECT_EQ(violation.config.core.commit_width, baseline.core.commit_width);
  EXPECT_GT(probes, 0);
}

TEST(Shrink, ChainParameterIsNeverReset) {
  const CpuConfig baseline = config::thunderx2_baseline();
  Violation violation;
  violation.kind = Violation::Kind::kMonotonicity;
  violation.chain_param = ParamId::kRobSize;
  violation.config = with_param(baseline, ParamId::kRobSize, 64.0);
  const auto always = [](const Violation&) { return true; };
  EXPECT_EQ(shrink_violation(always, violation, baseline), 1u);
  EXPECT_EQ(violation.config.core.rob_size, 64);
}

// ---- repro files -----------------------------------------------------------

TEST(Repro, RoundTripsMonotonicityViolation) {
  Violation v;
  v.kind = Violation::Kind::kMonotonicity;
  v.app = kernels::App::kTeaLeaf;
  v.seed = 7;
  v.iteration = 42;
  v.config = with_param(config::thunderx2_baseline(), ParamId::kRamClock,
                        0.88592601106074531);
  v.message = "raising rob_size made tealeaf slower";
  v.chain_param = ParamId::kRobSize;
  v.chain_lo = 296;
  v.chain_hi = 472;
  v.cycles_lo = 117210;
  v.cycles_hi = 126517;

  const std::string text = repro_to_string(v);
  const Violation back = repro_from_string(text);
  EXPECT_EQ(back.kind, v.kind);
  EXPECT_EQ(back.app, v.app);
  EXPECT_EQ(back.seed, v.seed);
  EXPECT_EQ(back.iteration, v.iteration);
  EXPECT_EQ(back.message, v.message);
  ASSERT_TRUE(back.chain_param.has_value());
  EXPECT_EQ(*back.chain_param, ParamId::kRobSize);
  EXPECT_EQ(back.chain_lo, v.chain_lo);
  EXPECT_EQ(back.chain_hi, v.chain_hi);
  EXPECT_EQ(back.cycles_lo, v.cycles_lo);
  EXPECT_EQ(back.cycles_hi, v.cycles_hi);
  // The %.17g encoding preserves the continuous parameter exactly.
  EXPECT_EQ(config::feature_vector(back.config),
            config::feature_vector(v.config));
  // Serialisation is deterministic.
  EXPECT_EQ(repro_to_string(back), text);
}

TEST(Repro, SaveAndLoadThroughAFile) {
  Violation v;
  v.kind = Violation::Kind::kInvariant;
  v.app = kernels::App::kMiniBude;
  v.seed = 3;
  v.iteration = 9;
  v.config = with_param(config::thunderx2_baseline(), ParamId::kRobSize, 64.0);
  v.message = "multi-line\nmessage gets flattened";
  const std::string dir = ::testing::TempDir() + "adse_check_repro";
  save_repros(dir, {&v, 1});
  ASSERT_FALSE(v.repro_path.empty());
  const Violation back = load_repro(v.repro_path);
  EXPECT_EQ(back.config.core.rob_size, 64);
  EXPECT_EQ(back.message, "multi-line;message gets flattened");
  std::remove(v.repro_path.c_str());
}

TEST(Repro, TwoFindingsOfOneIterationKeepTwoFiles) {
  // fuzz() can report a sampled-point and a chain-point finding for one
  // iteration; the second must not overwrite the first's repro.
  std::vector<Violation> found(2);
  for (std::size_t i = 0; i < found.size(); ++i) {
    found[i].kind = Violation::Kind::kInvariant;
    found[i].seed = 5;
    found[i].iteration = 2;
    found[i].config = with_param(config::thunderx2_baseline(),
                                 ParamId::kRobSize, 64.0 + 32.0 * i);
    found[i].message = "finding " + std::to_string(i);
  }
  const std::string dir = ::testing::TempDir() + "adse_check_repro_pair";
  std::filesystem::remove_all(dir);
  save_repros(dir, found);
  EXPECT_EQ(found[0].repro_path, dir + "/repro-5-2.txt");
  EXPECT_EQ(found[1].repro_path, dir + "/repro-5-2-2.txt");
  for (std::size_t i = 0; i < found.size(); ++i) {
    const Violation back = load_repro(found[i].repro_path);
    EXPECT_EQ(back.config.core.rob_size, 64 + 32 * static_cast<int>(i));
    EXPECT_EQ(back.message, found[i].message);
    EXPECT_EQ(back.iteration, 2u);
  }
  std::filesystem::remove_all(dir);
}

TEST(Repro, MalformedInputsThrow) {
  EXPECT_THROW(repro_from_string("not a repro"), InvariantError);
  EXPECT_THROW(repro_from_string("adse-check-repro v1\nbogus: x\nend\n"),
               InvariantError);
  EXPECT_THROW(
      repro_from_string("adse-check-repro v1\nkind: monotonicity\nend\n"),
      InvariantError);
  EXPECT_THROW(
      repro_from_string(
          "adse-check-repro v1\nset: rob_size not-a-number\nend\n"),
      InvariantError);
  // Numbers are parsed whole: trailing junk and a sign on an unsigned field
  // are errors, not 4 cores, a 64-entry ROB and seed 2^64-1.
  EXPECT_THROW(repro_from_string("adse-check-repro v1\nkind: coherence\n"
                                 "cores: 4x\nend\n"),
               InvariantError);
  EXPECT_THROW(
      repro_from_string("adse-check-repro v1\nset: rob_size 64junk\nend\n"),
      InvariantError);
  EXPECT_THROW(repro_from_string("adse-check-repro v1\nseed: -1\nend\n"),
               InvariantError);
  // The same lines without the junk parse.
  EXPECT_EQ(repro_from_string("adse-check-repro v1\nkind: coherence\n"
                              "cores: 4\nend\n")
                .point.num_cores,
            4);
  EXPECT_EQ(
      repro_from_string("adse-check-repro v1\nset: rob_size 64\nend\n")
          .config.core.rob_size,
      64);
}

// ---- monotonicity machinery ------------------------------------------------

TEST(Monotone, SlackScalesWithCycles) {
  EXPECT_EQ(monotone_allowed_cycles(0), kMonotoneAbsSlack);
  EXPECT_EQ(monotone_allowed_cycles(100), 100 + kMonotoneAbsSlack);
  EXPECT_EQ(monotone_allowed_cycles(100000),
            100000 + static_cast<std::uint64_t>(100000 * kMonotoneRelSlack));
}

TEST(Monotone, ParamSetIsCapacityOnly) {
  const auto& params = monotone_params();
  EXPECT_NE(std::find(params.begin(), params.end(), ParamId::kRobSize),
            params.end());
  // Excluded: legitimately non-monotone knobs.
  EXPECT_EQ(std::find(params.begin(), params.end(),
                      ParamId::kPrefetchDistance),
            params.end());
  EXPECT_EQ(std::find(params.begin(), params.end(),
                      ParamId::kLsqCompletionWidth),
            params.end());
}

TEST(Monotone, FirstRegressionRespectsSlackAndErrors) {
  ChainResult chain;
  chain.values = {8, 16, 32, 64};
  chain.cycles = {1000, 995, 2000, 990};
  chain.errors = {"", "", "bad", ""};  // the 2000 outlier never competes
  EXPECT_EQ(chain.first_regression(), -1);
  chain.errors[2] = "";
  EXPECT_EQ(chain.first_regression(), 2);
}

// ---- fuzzer end-to-end ------------------------------------------------------

TEST(Fuzz, SmallRunIsCleanAndDeterministic) {
  eval::EvalService service;  // hermetic: no persistent store
  FuzzOptions options;
  options.iterations = 4;
  options.seed = 1;
  const FuzzReport first = fuzz(service, options);
  EXPECT_TRUE(first.ok()) << first.summary();
  EXPECT_EQ(first.iterations, 4);
  EXPECT_EQ(first.evaluations,
            4u * (1u + static_cast<unsigned>(options.chain_points)));
  const FuzzReport second = fuzz(service, options);
  EXPECT_EQ(second.violations.size(), first.violations.size());
  EXPECT_EQ(second.evaluations, first.evaluations);
}

TEST(Fuzz, ChainOnBaselineIsMonotone) {
  eval::EvalService service;
  const CpuConfig base = config::thunderx2_baseline();
  const ChainResult chain =
      run_chain(service, base, ParamId::kRobSize, {16, 64, 180, 512},
                kernels::App::kStream);
  ASSERT_EQ(chain.cycles.size(), 4u);
  for (const std::string& error : chain.errors) EXPECT_EQ(error, "");
  EXPECT_EQ(chain.first_regression(), -1);
  // A 16-entry ROB really is slower than a 512-entry one on STREAM.
  EXPECT_GT(chain.cycles.front(), chain.cycles.back());
}

TEST(Fuzz, RejectsDegenerateOptions) {
  eval::EvalService service;
  FuzzOptions options;
  options.iterations = 0;
  EXPECT_THROW(fuzz(service, options), InvariantError);
  options.iterations = 1;
  options.chain_points = 1;
  EXPECT_THROW(fuzz(service, options), InvariantError);
}

}  // namespace
}  // namespace adse::check
