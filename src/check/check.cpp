#include "check/check.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/analytical_features.hpp"
#include "common/require.hpp"

namespace adse::check {

Oracle oracle_from(const analysis::TraceSummary& summary,
                   const config::CpuConfig& config) {
  const analysis::AnalyticalFeatures features =
      analysis::analyze(summary, config);
  Oracle oracle;
  oracle.total_ops = summary.total_ops;
  std::copy(std::begin(summary.by_group), std::end(summary.by_group),
            std::begin(oracle.by_group));
  oracle.sve_ops = summary.sve_ops;
  oracle.fetch_bytes = features.fetch_bytes;
  oracle.min_cycles = features.min_cycles;
  oracle.max_cycles = features.max_cycles;
  return oracle;
}

std::vector<std::string> verify_run(const config::CpuConfig& config,
                                    const sim::Trace& trace,
                                    const sim::RunResult& result) {
  const Oracle oracle = oracle_from(trace.summary(), config);
  std::vector<std::string> violations;
  const auto fail = [&violations](const std::ostringstream& os) {
    violations.push_back(os.str());
  };
#define ADSE_CHECK_PROP(expr, msg)     \
  do {                                 \
    if (!(expr)) {                     \
      std::ostringstream os;           \
      os << msg;                       \
      fail(os);                        \
    }                                  \
  } while (0)

  // Retirement facts (config-independent: equal across every design point
  // running this trace).
  ADSE_CHECK_PROP(result.core.retired == oracle.total_ops,
                  "retired " << result.core.retired << " != trace "
                             << oracle.total_ops << " µops");
  for (int g = 0; g < isa::kNumInstrGroups; ++g) {
    ADSE_CHECK_PROP(result.core.retired_by_group[g] == oracle.by_group[g],
                    "retired " << result.core.retired_by_group[g] << " "
                               << isa::group_name(
                                      static_cast<isa::InstrGroup>(g))
                               << " µops, trace has " << oracle.by_group[g]);
  }
  ADSE_CHECK_PROP(result.core.retired_sve == oracle.sve_ops,
                  "retired " << result.core.retired_sve << " SVE µops, trace "
                             << oracle.sve_ops);

  // Oracle cycle bounds.
  ADSE_CHECK_PROP(result.core.cycles >= oracle.min_cycles,
                  "cycles " << result.core.cycles
                            << " beat the ideal-throughput lower bound "
                            << oracle.min_cycles);
  ADSE_CHECK_PROP(result.core.cycles <= oracle.max_cycles,
                  "cycles " << result.core.cycles
                            << " exceed the serialised upper bound "
                            << oracle.max_cycles);

  // Event-skip decomposition is exact.
  ADSE_CHECK_PROP(result.core.cycles_entered + result.core.cycles_skipped ==
                      result.core.cycles,
                  "cycle decomposition broken: " << result.core.cycles_entered
                                                 << " entered + "
                                                 << result.core.cycles_skipped
                                                 << " skipped != "
                                                 << result.core.cycles);

  // LSQ <-> hierarchy conservation.
  const std::uint64_t trace_loads =
      oracle.by_group[static_cast<int>(isa::InstrGroup::kLoad)];
  const std::uint64_t trace_stores =
      oracle.by_group[static_cast<int>(isa::InstrGroup::kStore)];
  ADSE_CHECK_PROP(result.core.loads_sent + result.core.loads_forwarded ==
                      trace_loads,
                  "loads sent (" << result.core.loads_sent << ") + forwarded ("
                                 << result.core.loads_forwarded
                                 << ") != trace loads " << trace_loads);
  ADSE_CHECK_PROP(result.core.stores_sent == trace_stores,
                  "stores sent " << result.core.stores_sent
                                 << " != trace stores " << trace_stores);
  ADSE_CHECK_PROP(result.mem.loads == result.core.loads_sent,
                  "hierarchy loads " << result.mem.loads << " != LSQ sends "
                                     << result.core.loads_sent);
  ADSE_CHECK_PROP(result.mem.stores == result.core.stores_sent,
                  "hierarchy stores " << result.mem.stores << " != LSQ sends "
                                      << result.core.stores_sent);

  // Cache accounting balances at every level.
  ADSE_CHECK_PROP(result.mem.l1_hits + result.mem.l1_misses ==
                      result.mem.line_requests,
                  "L1 hits+misses != line requests");
  ADSE_CHECK_PROP(result.mem.l2_hits + result.mem.l2_misses ==
                      result.mem.l1_misses,
                  "L2 hits+misses != L1 misses");
  ADSE_CHECK_PROP(result.mem.l2_hits + result.mem.ram_requests >=
                      result.mem.l1_misses,
                  "misses not served by L2 or RAM");
#undef ADSE_CHECK_PROP
  return violations;
}

void require_clean_run(const config::CpuConfig& config,
                       const sim::Trace& trace,
                       const sim::RunResult& result) {
  const std::vector<std::string> violations =
      verify_run(config, trace, result);
  if (violations.empty()) return;
  std::ostringstream os;
  os << violations.size() << " oracle violation(s) for config '" << config.name
     << "' on '" << trace.name() << "':";
  for (const std::string& v : violations) os << "\n  - " << v;
  throw InvariantError(os.str());
}

}  // namespace adse::check
