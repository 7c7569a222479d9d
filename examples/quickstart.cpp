/// \file quickstart.cpp
/// Minimal tour of the public API: build a CPU configuration, run the four
/// HPC workloads through the simulator, and print SimEng-style statistics.
///
///   ./examples/quickstart            # ThunderX2 baseline
///   ./examples/quickstart a64fx      # A64FX-flavoured configuration

#include <cstdio>
#include <string>

#include <vector>

#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "config/baselines.hpp"
#include "config/serialize.hpp"
#include "eval/service.hpp"
#include "kernels/workloads.hpp"
#include "sim/stats_report.hpp"

int main(int argc, char** argv) {
  using namespace adse;

  config::CpuConfig cpu = config::thunderx2_baseline();
  if (argc > 1) {
    const std::string which = argv[1];
    if (which == "a64fx") {
      cpu = config::a64fx_like();
    } else if (which == "big") {
      cpu = config::big_future();
    } else if (which == "minimal") {
      cpu = config::minimal_viable();
    } else {
      std::fprintf(stderr, "unknown config '%s' (try a64fx|big|minimal)\n",
                   which.c_str());
      return 1;
    }
  }

  std::printf("Configuration (SimEng-style YAML):\n%s\n",
              config::to_yaml(cpu).c_str());

  // All four apps go through the shared evaluation service as one batch —
  // parallel across ADSE_THREADS workers, and served from the persistent
  // result store on a re-run.
  eval::EvalService& service = eval::EvalService::shared();
  std::vector<eval::EvalRequest> requests;
  for (kernels::App app : kernels::all_apps()) requests.push_back({cpu, app});
  Stopwatch watch;
  const auto results = service.evaluate(requests);
  eval::require_ok(results);
  const double total_ms = watch.millis();

  TextTable table({"Application", "µops", "Cycles", "IPC", "SVE %", "L1 hit %",
                   "RAM reqs"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::RunResult& result = results[i].run;
    table.add_row({
        kernels::app_name(requests[i].app),
        format_grouped(static_cast<long long>(result.core.retired)),
        format_grouped(static_cast<long long>(result.core.cycles)),
        format_fixed(result.core.ipc(), 2),
        format_fixed(result.core.sve_fraction() * 100.0, 1),
        format_fixed(result.mem.l1_hit_rate() * 100.0, 1),
        format_grouped(static_cast<long long>(result.mem.ram_requests)),
    });
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("evaluated %zu runs in %.1f ms on %zu threads\n\n",
              results.size(), total_ms, service.threads());

  if (argc > 2 && std::string(argv[2]) == "--stats") {
    // Full SimEng-style statistics block for the last app, plus the eval
    // service's cache decomposition.
    const std::vector<eval::EvalRequest> sweep = {
        {cpu, kernels::App::kMiniSweep}};
    const auto answer = service.evaluate(sweep);
    eval::require_ok(answer);
    const sim::RunResult& detail = answer.front().run;
    std::printf("%s\n", sim::render_stats(detail).c_str());
    std::printf("%s\n", service.cache_table().c_str());
  }
  return 0;
}
