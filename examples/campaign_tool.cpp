/// \file campaign_tool.cpp
/// Command-line campaign runner — the C++ analogue of the paper artifact's
/// `xci_launcher.sh` + `collect_data.py`: generates uniformly random CPU
/// configurations, runs all four benchmarks on each, and appends rows to a
/// CSV dataset.
///
///   ./examples/campaign_tool out.csv 250 [seed] [vl]
///
/// The resulting CSV (30 feature columns + 4 cycle columns) feeds the
/// surrogate training in bench/ and examples/surrogate_explorer.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/campaign.hpp"
#include "common/env.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "eval/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  using namespace adse;

  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <out.csv> <num_configs> [seed] [vector_length]\n",
                 argv[0]);
    return 1;
  }

  campaign::CampaignSpec spec;
  spec.label = "cli";
  spec.num_configs = static_cast<int>(parse_int(argv[2]));
  spec.seed = argc > 3 ? static_cast<std::uint64_t>(parse_int(argv[3]))
                       : campaign_seed();
  if (argc > 4) spec.fixed_vector_length = static_cast<int>(parse_int(argv[4]));
  // spec.threads stays 0: the shared eval service supplies the ADSE_THREADS
  // default and serves repeated configurations from its result store.

  Stopwatch watch;
  const auto result =
      campaign::run_campaign(spec, eval::EvalService::shared());
  write_csv(argv[1], result.table);
  std::printf("wrote %zu rows x %zu columns to %s in %.1fs\n",
              result.table.num_rows(), result.table.num_cols(), argv[1],
              watch.seconds());

  // Campaign health: the unified metrics snapshot (cache decomposition,
  // pool gauges, batch latency) plus the Chrome trace if ADSE_TRACE_FILE
  // is set.
  eval::EvalService::shared().flush();
  std::printf("\n%s", obs::Registry::global().render_text().c_str());
  obs::Tracer::global().flush();
  return 0;
}
