/// \file test_analytical_features.cpp
/// The shared analytical extractor verified on fixed tiny traces with
/// hand-computed per-resource throughput values, plus the structural
/// contracts the Oracle and the fused surrogate both lean on: min_cycles is
/// the max of the named bounds, the summary answers fetch/line queries for
/// every loop-buffer and line-width without re-decoding, the extractor
/// agrees exactly with the Oracle (check::oracle_from) on the anchor
/// configs, and the serial upper bound's memory pricing is pinned to exact
/// values.

#include "analysis/analytical_features.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "config/baselines.hpp"
#include "config/param_space.hpp"
#include "kernels/kernel_builder.hpp"
#include "kernels/workloads.hpp"

namespace adse::analysis {
namespace {

using config::CpuConfig;
using kernels::gp;

isa::Program straight_line(int n, isa::InstrGroup group) {
  kernels::KernelBuilder b("hand");
  for (int i = 0; i < n; ++i) b.op(group, gp(1), gp(2));
  return b.take();
}

// ---- hand-computed per-resource bounds -------------------------------------

TEST(AnalyticalFeatures, SixIntOpsOnBaseline) {
  // ThunderX2 baseline: commit = dispatch = frontend = 4 wide, 3 mixed
  // (INT/FP/branch) ports, 9 issue ports total, 32 B fetch blocks.
  const TraceSummary summary =
      summarize_trace(straight_line(6, isa::InstrGroup::kInt));
  const AnalyticalFeatures f =
      analyze(summary, config::thunderx2_baseline());

  EXPECT_EQ(f.commit_bound, 2u);     // ceil(6/4)
  EXPECT_EQ(f.dispatch_bound, 2u);   // ceil(6/4)
  EXPECT_EQ(f.frontend_bound, 2u);   // ceil(6/4)
  EXPECT_EQ(f.fetch_bytes, 24u);     // 6 x 4 B, nothing loop-streamed
  EXPECT_EQ(f.fetch_bound, 1u);      // ceil(24/32)
  EXPECT_EQ(f.port_group_bound, 2u); // ceil(6 INT / 3 mixed ports)
  EXPECT_EQ(f.port_scalar_bound, 2u);
  EXPECT_EQ(f.port_all_bound, 1u);   // ceil(6 / 9 ports)
  EXPECT_EQ(f.port_ls_bound, 0u);    // no memory ops
  EXPECT_EQ(f.port_vecpred_bound, 0u);
  EXPECT_EQ(f.store_send_bound, 0u);
  EXPECT_EQ(f.min_cycles, 2u);

  // Serial replay: 6 x (overhead + 1-cycle INT latency), no memory walk.
  EXPECT_EQ(f.serial_exec_cycles,
            6u * static_cast<std::uint64_t>(kSerialPerOpOverhead + 1));
  EXPECT_EQ(f.memory_lines, 0u);
  EXPECT_EQ(f.max_cycles, 6u * (kSerialPerOpOverhead + 1) +
                              static_cast<std::uint64_t>(kSerialSlackCycles));
}

TEST(AnalyticalFeatures, StoreDrainBounds) {
  // 5 stores of 8 B. Baseline drains 1 store/cycle (send), 3 requests/cycle
  // and 16 B/cycle of store bandwidth.
  kernels::KernelBuilder b("stores");
  for (int i = 0; i < 5; ++i) {
    b.store(0x1000 + 8 * static_cast<std::uint64_t>(i), 8, gp(1), gp(2));
  }
  const TraceSummary summary = summarize_trace(b.take());
  EXPECT_EQ(summary.stores(), 5u);
  EXPECT_EQ(summary.stored_bytes, 40u);

  const AnalyticalFeatures f =
      analyze(summary, config::thunderx2_baseline());
  EXPECT_EQ(f.store_send_bound, 5u);      // ceil(5/1)
  EXPECT_EQ(f.store_request_bound, 2u);   // ceil(5/3)
  EXPECT_EQ(f.store_bandwidth_bound, 3u); // ceil(40/16)
  EXPECT_EQ(f.min_cycles, 5u);
}

TEST(AnalyticalFeatures, MinCyclesIsTheMaxOfEveryNamedBound) {
  const CpuConfig cfg = config::thunderx2_baseline();
  for (kernels::App app : kernels::all_apps()) {
    const TraceSummary summary = summarize_trace(
        kernels::build_app(app, cfg.core.vector_length_bits));
    const AnalyticalFeatures f = analyze(summary, cfg);
    const std::uint64_t bounds[] = {
        f.commit_bound,     f.dispatch_bound,      f.frontend_bound,
        f.fetch_bound,      f.port_group_bound,    f.port_all_bound,
        f.port_ls_bound,    f.port_vecpred_bound,  f.port_scalar_bound,
        f.store_send_bound, f.store_request_bound, f.store_bandwidth_bound};
    const std::uint64_t expected =
        std::max<std::uint64_t>(1, *std::max_element(std::begin(bounds),
                                                     std::end(bounds)));
    EXPECT_EQ(f.min_cycles, expected) << kernels::app_slug(app);
    EXPECT_LE(f.min_cycles, f.max_cycles) << kernels::app_slug(app);
  }
}

// ---- the config-independent summary ----------------------------------------

TEST(TraceSummary, StreamabilityTableAnswersEveryLoopBufferSize) {
  // 3 iterations of a 3-op body: 9 ops, 6 of which (iterations 2 and 3)
  // stream once the body fits the buffer.
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
  const TraceSummary summary = summarize_trace(b.take());

  EXPECT_EQ(summary.total_ops, 9u);
  EXPECT_EQ(summary.streamable_ops(2), 0u);   // body spills a 2-entry buffer
  EXPECT_EQ(summary.streamable_ops(3), 6u);   // exact fit
  EXPECT_EQ(summary.streamable_ops(512), 6u); // larger buffers gain nothing
  EXPECT_EQ(summary.fetch_bytes(2), 9u * isa::kInstrBytes);
  EXPECT_EQ(summary.fetch_bytes(32), 3u * isa::kInstrBytes);
}

TEST(TraceSummary, LineWalkTotalsPerWidth) {
  // One 8 B load at 0x103c straddles a 32 B and a 64 B boundary (0x1040)
  // but sits inside one 128 B (and 256 B) line.
  kernels::KernelBuilder b("straddle");
  b.load(gp(1), 0x103c, 8, gp(2));
  const TraceSummary summary = summarize_trace(b.take());
  EXPECT_EQ(summary.lines_for(32), 2u);
  EXPECT_EQ(summary.lines_for(64), 2u);
  EXPECT_EQ(summary.lines_for(128), 1u);
  EXPECT_EQ(summary.lines_for(256), 1u);
  EXPECT_THROW(summary.lines_for(16), InvariantError);
}

TEST(TraceSummary, EmptyProgramThrows) {
  EXPECT_THROW(summarize_trace(isa::Program{}), InvariantError);
}

// ---- agreement with the Oracle (one implementation, two consumers) ---------

TEST(AnalyticalFeatures, MatchesReferenceReplayOnAnchorConfigs) {
  for (const CpuConfig& cfg :
       {config::thunderx2_baseline(), config::minimal_viable(),
        config::big_future(), config::a64fx_like()}) {
    for (kernels::App app : kernels::all_apps()) {
      const isa::Program trace =
          kernels::build_app(app, cfg.core.vector_length_bits);
      const TraceSummary summary = summarize_trace(trace);
      const AnalyticalFeatures f = analyze(summary, cfg);
      const check::Oracle oracle = check::oracle_from(summary, cfg);
      EXPECT_EQ(f.min_cycles, oracle.min_cycles)
          << cfg.name << "/" << kernels::app_slug(app);
      EXPECT_EQ(f.max_cycles, oracle.max_cycles)
          << cfg.name << "/" << kernels::app_slug(app);
      EXPECT_EQ(f.fetch_bytes, oracle.fetch_bytes)
          << cfg.name << "/" << kernels::app_slug(app);
      EXPECT_EQ(summary.total_ops, oracle.total_ops);
      EXPECT_EQ(summary.sve_ops, oracle.sve_ops);
    }
  }
}

// ---- the serial upper bound, pinned -----------------------------------------

/// The golden-cycles configs (test_golden_cycles.cpp): the ThunderX2
/// baseline, then the main campaign's per-index stream (seed 42).
CpuConfig pinned_config(std::size_t row) {
  if (row == 0) return config::thunderx2_baseline();
  const config::ParameterSpace space;
  const std::uint64_t i = static_cast<std::uint64_t>(row) - 1;
  Rng rng(42ULL * 0x9e3779b97f4a7c15ULL + i * 2 + 1);
  CpuConfig c = space.sample(rng);
  c.name = "sampled_" + std::to_string(i);
  return c;
}

TEST(AnalyticalFeatures, LineCostAndMaxCyclesArePinned) {
  // Exact values of the clock-domain conversions (mem::level_timing) as the
  // serial upper bound prices them, for the ThunderX2 baseline and eight
  // sampled configs. max_cycles is in kernels::all_apps() order: stream,
  // minibude, tealeaf, minisweep.
  struct Row {
    const char* config;
    double line_cost;
    std::uint64_t max_cycles[kernels::kNumApps];
  };
  const Row rows[] = {
      {"thunderx2", 334.18796992481202,
       {14794685ULL, 2757243ULL, 8523694ULL, 7587341ULL}},
      {"sampled_0", 432.56330853559604,
       {9412381ULL, 1795638ULL, 10372044ULL, 9542772ULL}},
      {"sampled_1", 266.39421453110407,
       {5732591ULL, 1085481ULL, 6580159ULL, 6070060ULL}},
      {"sampled_2", 578.26420580388185,
       {5172121ULL, 968634ULL, 13302319ULL, 12500018ULL}},
      {"sampled_3", 661.52157992370485,
       {13825195ULL, 2536389ULL, 15567726ULL, 14313998ULL}},
      {"sampled_4", 437.78521988543872,
       {19038132ULL, 3485739ULL, 10992002ULL, 9775315ULL}},
      {"sampled_5", 502.63064736837305,
       {5424012ULL, 1108522ULL, 11680665ULL, 10934561ULL}},
      {"sampled_6", 535.6259911190665,
       {11246727ULL, 2074100ULL, 12704105ULL, 11687312ULL}},
      {"sampled_7", 581.3697191172821,
       {12183605ULL, 2242071ULL, 13744592ULL, 12641709ULL}},
  };
  std::map<std::pair<kernels::App, int>, TraceSummary> summaries;
  for (std::size_t r = 0; r < std::size(rows); ++r) {
    const CpuConfig cfg = pinned_config(r);
    ASSERT_EQ(cfg.name, rows[r].config);
    const int vl = cfg.core.vector_length_bits;
    for (std::size_t a = 0; a < kernels::kNumApps; ++a) {
      const kernels::App app = kernels::all_apps()[a];
      auto it = summaries.find({app, vl});
      if (it == summaries.end()) {
        it = summaries
                 .emplace(std::pair{app, vl},
                          summarize_trace(kernels::build_app(app, vl)))
                 .first;
      }
      const AnalyticalFeatures f = analyze(it->second, cfg);
      EXPECT_EQ(f.line_cost, rows[r].line_cost) << cfg.name;
      EXPECT_EQ(f.max_cycles, rows[r].max_cycles[a])
          << cfg.name << "/" << kernels::app_slug(app);
    }
  }
}

// ---- the ML row -------------------------------------------------------------

TEST(AnalyticalFeatures, MlRowMatchesNamesAndIsFinite) {
  const TraceSummary summary = summarize_trace(
      kernels::build_app(kernels::App::kStream, 256));
  const AnalyticalFeatures f =
      analyze(summary, config::thunderx2_baseline());
  const std::vector<double> row = f.ml_features();
  EXPECT_EQ(row.size(), AnalyticalFeatures::ml_feature_names().size());
  for (const double v : row) EXPECT_TRUE(std::isfinite(v));
  // Fractions partition sanity: every mix share lives in [0, 1].
  for (const double frac :
       {f.sve_fraction, f.load_fraction, f.store_fraction, f.vec_fraction,
        f.branch_fraction, f.fpdiv_fraction}) {
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
  }
}

}  // namespace
}  // namespace adse::analysis
