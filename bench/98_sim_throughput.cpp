/// \file 98_sim_throughput.cpp
/// Simulator-throughput gate for the campaign/DSE hot loop. The paper's study
/// needed 180,006 configurations × 4 apps, and the `adse::dse` search engine
/// re-enters `sim::simulate` inside its optimisation loop — raw configs/sec
/// is the direct ceiling on both campaign scale and guided-search budget.
///
/// This bench simulates a fixed, seed-derived configuration set (the same
/// deterministic stream the main campaign draws) single-threaded, reports
/// simulated kilo-cycles/sec, µops/sec and sims/sec per app plus overall
/// configs/sec, and emits the numbers as `BENCH_98.json` so CI can record the
/// throughput trend across commits. Cycle-count *correctness* is gated
/// separately (and blockingly) by tests/test_golden_cycles; this bench only
/// shape-checks that every simulation validates and throughput is measurable.
///
/// The bench also sweeps the batched engine (sim::simulate_batch) across
/// batch widths K = 1, 4, 8, 16 on the same config stream — configs grouped
/// by (app, VL), chunked into K-lane batches over the group's one trace
/// artifact (sim::trace) — and records per-K configs/sec, speedup over the
/// scalar loop, and mean lane occupancy. K = 1 isolates raw engine speed (no batching);
/// wider K adds trace sharing and lane scheduling. Batched cycle totals are
/// shape-checked bit-identical against the scalar pass. There is one engine:
/// the "scalar" pass is `sim::simulate`, i.e. the same engine at K = 1 on
/// the same decoded trace, so every speedup the sweep reports is relative
/// to that one-lane path.
///
/// The scalar loop and every sweep can be repeated (ADSE_BENCH98_REPEATS)
/// with the *minimum* time kept — the standard defence against a noisy
/// shared machine; throughput ratios are only comparable within one run.
///
/// Knobs: ADSE_BENCH98_CONFIGS (default 64 configurations),
///        ADSE_BENCH98_REPEATS (default 1; min time across repeats),
///        ADSE_BENCH98_JSON    (output path, default "BENCH_98.json"),
///        ADSE_BENCH98_METRICS (metrics-snapshot path, default
///                              "BENCH_98_METRICS.json"),
///        ADSE_TRACE_FILE      (optional Chrome trace of the run),
///        ADSE_SEED.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <map>
#include <span>

#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "config/param_space.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/batch_sim.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace adse;

struct AppTotals {
  std::uint64_t sims = 0;
  std::uint64_t cycles = 0;
  std::uint64_t uops = 0;
  std::uint64_t cycles_entered = 0;
  std::uint64_t cycles_skipped = 0;
  double seconds = 0.0;

  double kcycles_per_sec() const {
    return seconds > 0 ? static_cast<double>(cycles) / seconds / 1e3 : 0.0;
  }
  double sims_per_sec() const {
    return seconds > 0 ? static_cast<double>(sims) / seconds : 0.0;
  }
};

/// One batch-width sweep over the whole config stream.
struct BatchSweep {
  int k = 1;
  double seconds = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t windows = 0;
  std::uint64_t lane_windows = 0;

  double configs_per_sec(int num_configs) const {
    return seconds > 0 ? static_cast<double>(num_configs) / seconds : 0.0;
  }
  double mean_active_lanes() const {
    return windows > 0 ? static_cast<double>(lane_windows) /
                             static_cast<double>(windows)
                       : 0.0;
  }
};

}  // namespace

int main() {
  const int num_configs =
      static_cast<int>(env_int("ADSE_BENCH98_CONFIGS", 64));
  const int repeats =
      std::max(1, static_cast<int>(env_int("ADSE_BENCH98_REPEATS", 1)));
  const std::uint64_t seed = campaign_seed();
  const std::string json_path =
      env_string("ADSE_BENCH98_JSON", "BENCH_98.json");

  std::printf("== Simulator throughput (bench 98) ==\n");
  std::printf("%d configurations x %d apps, seed %llu, single-threaded\n\n",
              num_configs, kernels::kNumApps,
              static_cast<unsigned long long>(seed));

  // The exact per-index deterministic stream the main campaign uses, so the
  // measured workload is the campaign workload.
  const config::ParameterSpace space;
  std::vector<config::CpuConfig> configs;
  configs.reserve(static_cast<std::size_t>(num_configs));
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(num_configs); ++i) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + i * 2 + 1);
    configs.push_back(space.sample(rng));
  }

  // Build and decode every needed trace up front: trace preparation is not
  // simulator throughput.
  for (const auto& c : configs) {
    for (kernels::App app : kernels::all_apps()) {
      sim::trace(app, c.core.vector_length_bits).decoded();
    }
  }

  std::vector<AppTotals> totals(kernels::kNumApps);
  double total_seconds = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    std::vector<AppTotals> pass(kernels::kNumApps);
    Stopwatch wall;
    for (const auto& c : configs) {
      for (kernels::App app : kernels::all_apps()) {
        AppTotals& t = pass[static_cast<std::size_t>(app)];
        const sim::Trace& trace = sim::trace(app, c.core.vector_length_bits);
        Stopwatch one;
        const sim::RunResult result = sim::simulate(c, trace);
        t.seconds += one.seconds();
        t.sims++;
        t.cycles += result.core.cycles;
        t.uops += result.core.retired;
        t.cycles_entered += result.core.cycles_entered;
        t.cycles_skipped += result.core.cycles_skipped;
      }
    }
    const double pass_seconds = wall.seconds();
    if (rep == 0 || pass_seconds < total_seconds) {
      total_seconds = pass_seconds;
      totals = pass;
    }
  }

  TextTable table({"app", "sims", "Mcycles", "kcycles/s", "Muops/s", "sims/s",
                   "skipped %"});
  std::uint64_t all_cycles = 0;
  for (kernels::App app : kernels::all_apps()) {
    const AppTotals& t = totals[static_cast<std::size_t>(app)];
    all_cycles += t.cycles;
    const double skipped_pct =
        t.cycles > 0 ? 100.0 * static_cast<double>(t.cycles_skipped) /
                           static_cast<double>(t.cycles)
                     : 0.0;
    table.add_row({kernels::app_name(app), std::to_string(t.sims),
                   format_fixed(static_cast<double>(t.cycles) / 1e6, 2),
                   format_fixed(t.kcycles_per_sec(), 0),
                   format_fixed(static_cast<double>(t.uops) / t.seconds / 1e6, 2),
                   format_fixed(t.sims_per_sec(), 1),
                   format_fixed(skipped_pct, 1)});
  }
  std::printf("%s\n", table.render().c_str());

  const double configs_per_sec =
      total_seconds > 0 ? static_cast<double>(num_configs) / total_seconds : 0.0;
  std::printf("total: %s simulated cycles in %.2fs -> %.2f configs/sec "
              "(a config = all %d apps)\n\n",
              format_grouped(static_cast<long long>(all_cycles)).c_str(),
              total_seconds, configs_per_sec, kernels::kNumApps);

  // ---- batch-width sweep: the same stream through sim::simulate_batch ----
  // Configs grouped by VL (a batch shares one trace), chunked into K lanes
  // over the same prebuilt trace artifacts as the scalar loop.
  std::map<int, std::vector<config::CpuConfig>> by_vl;
  for (const auto& c : configs) {
    by_vl[c.core.vector_length_bits].push_back(c);
  }
  std::vector<BatchSweep> sweeps;
  for (const int k : {1, 4, 8, 16}) {
    BatchSweep sweep;
    sweep.k = k;
    for (int rep = 0; rep < repeats; ++rep) {
      std::uint64_t cycles = 0, windows = 0, lane_windows = 0;
      Stopwatch sw;
      for (kernels::App app : kernels::all_apps()) {
        for (const auto& [vl, group] : by_vl) {
          const sim::Trace& trace = sim::trace(app, vl);
          for (std::size_t start = 0; start < group.size();
               start += static_cast<std::size_t>(k)) {
            const std::size_t width =
                std::min(static_cast<std::size_t>(k), group.size() - start);
            core::BatchRunInfo info;
            const auto results = sim::simulate_batch(
                std::span<const config::CpuConfig>(&group[start], width),
                trace, {}, &info);
            for (const auto& r : results) cycles += r.core.cycles;
            windows += info.windows;
            lane_windows += info.lane_windows;
          }
        }
      }
      const double pass_seconds = sw.seconds();
      if (rep == 0) {
        sweep.seconds = pass_seconds;
        sweep.cycles = cycles;
        sweep.windows = windows;
        sweep.lane_windows = lane_windows;
      } else {
        sweep.seconds = std::min(sweep.seconds, pass_seconds);
      }
    }
    sweeps.push_back(sweep);
  }

  TextTable batch_table(
      {"K", "seconds", "configs/s", "speedup", "mean lanes"});
  batch_table.add_row({"1 (scalar)", format_fixed(total_seconds, 2),
                       format_fixed(configs_per_sec, 2), "1.00", "1.0"});
  double best_speedup = 1.0;
  for (const BatchSweep& sweep : sweeps) {
    const double speedup =
        configs_per_sec > 0 ? sweep.configs_per_sec(num_configs) /
                                  configs_per_sec
                            : 0.0;
    best_speedup = std::max(best_speedup, speedup);
    batch_table.add_row({std::to_string(sweep.k),
                         format_fixed(sweep.seconds, 2),
                         format_fixed(sweep.configs_per_sec(num_configs), 2),
                         format_fixed(speedup, 2),
                         format_fixed(sweep.mean_active_lanes(), 1)});
  }
  std::printf("%s\n", batch_table.render().c_str());
  std::printf("best batched speedup over scalar: %.2fx\n\n", best_speedup);

  // JSON record for the CI throughput trend (uploaded as an artifact;
  // intentionally non-blocking — machine speed varies across runners).
  {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"98_sim_throughput\",\n"
        << "  \"configs\": " << num_configs << ",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"total_seconds\": " << total_seconds << ",\n"
        << "  \"configs_per_sec\": " << configs_per_sec << ",\n"
        << "  \"apps\": [\n";
    for (int a = 0; a < kernels::kNumApps; ++a) {
      const AppTotals& t = totals[static_cast<std::size_t>(a)];
      out << "    {\"app\": \"" << kernels::app_slug(static_cast<kernels::App>(a))
          << "\", \"sims\": " << t.sims << ", \"cycles\": " << t.cycles
          << ", \"uops\": " << t.uops << ", \"seconds\": " << t.seconds
          << ", \"kcycles_per_sec\": " << t.kcycles_per_sec()
          << ", \"sims_per_sec\": " << t.sims_per_sec()
          << ", \"cycles_entered\": " << t.cycles_entered
          << ", \"cycles_skipped\": " << t.cycles_skipped << "}"
          << (a + 1 < kernels::kNumApps ? ",\n" : "\n");
    }
    out << "  ],\n"
        << "  \"batch\": [\n";
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
      const BatchSweep& sweep = sweeps[s];
      const double speedup =
          configs_per_sec > 0 ? sweep.configs_per_sec(num_configs) /
                                    configs_per_sec
                              : 0.0;
      out << "    {\"k\": " << sweep.k << ", \"seconds\": " << sweep.seconds
          << ", \"configs_per_sec\": " << sweep.configs_per_sec(num_configs)
          << ", \"speedup_vs_scalar\": " << speedup
          << ", \"mean_active_lanes\": " << sweep.mean_active_lanes()
          << ", \"cycles\": " << sweep.cycles << "}"
          << (s + 1 < sweeps.size() ? ",\n" : "\n");
    }
    out << "  ],\n"
        << "  \"best_batched_speedup\": " << best_speedup << "\n"
        << "}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());

  // Unified metrics snapshot (sim.simulations / sim.simulated_cycles live
  // here) — CI uploads it next to BENCH_98.json and smoke-parses it.
  const std::string metrics_path =
      env_string("ADSE_BENCH98_METRICS", "BENCH_98_METRICS.json");
  {
    std::ofstream out(metrics_path);
    out << obs::Registry::global().render_json();
  }
  std::printf("wrote %s\n", metrics_path.c_str());
  obs::Tracer::global().flush();

  int failures = 0;
  failures += bench::shape_check(configs_per_sec > 0.0,
                                 "throughput is measurable (> 0 configs/sec)");
  bool every_app_ran = true;
  for (const AppTotals& t : totals) {
    every_app_ran = every_app_ran &&
                    t.sims == static_cast<std::uint64_t>(num_configs) &&
                    t.cycles > 0;
  }
  failures += bench::shape_check(
      every_app_ran, "every (config, app) pair simulated and validated");
  bool batch_cycles_identical = true;
  bool batch_measurable = true;
  for (const BatchSweep& sweep : sweeps) {
    batch_cycles_identical = batch_cycles_identical && sweep.cycles == all_cycles;
    batch_measurable =
        batch_measurable && sweep.configs_per_sec(num_configs) > 0.0;
  }
  failures += bench::shape_check(
      batch_cycles_identical,
      "batched cycle totals bit-identical to the scalar pass at every K");
  failures += bench::shape_check(batch_measurable,
                                 "batched throughput measurable at every K");
  return failures == 0 ? 0 : 1;
}
