/// \file 00_build_datasets.cpp
/// Runs every campaign once so the eval service's result store holds all
/// their simulations, and the glob-ordered bench run
/// (`for b in build/bench/*; do $b; done`) pays the simulation cost exactly
/// once. Equivalent to the paper artifact's `xci_launcher.sh`
/// data-collection phase (T1). A rerun is served from the store: its
/// "[eval] fresh simulator runs:" line reads 0.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/stopwatch.hpp"

int main() {
  using namespace adse;
  std::printf("== Campaign dataset builder ==\n");
  std::printf("Knobs: ADSE_CONFIGS, ADSE_CONFIGS_CONSTRAINED, ADSE_SEED, "
              "ADSE_THREADS, ADSE_CACHE_DIR\n\n");

  Stopwatch total;
  {
    Stopwatch watch;
    const auto result = bench::main_campaign();
    std::printf("main campaign: %zu configs x %d apps = %zu rows (%.1fs)\n",
                result.table.num_rows(), kernels::kNumApps,
                result.table.num_rows() * kernels::kNumApps, watch.seconds());
  }
  for (int vl : {128, 2048}) {
    Stopwatch watch;
    const auto result = bench::pinned_campaign(vl);
    std::printf("VL=%d campaign: %zu configs (%.1fs)\n", vl,
                result.table.num_rows(), watch.seconds());
  }
  std::printf("total: %.1fs\n", total.seconds());
  bench::report_eval_stats();
  return 0;
}
