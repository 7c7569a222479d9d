#include "check/fuzzer.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <sstream>

#include "check/check.hpp"
#include "common/check.hpp"
#include "common/require.hpp"
#include "config/baselines.hpp"
#include "obs/log.hpp"

namespace adse::check {

namespace {

/// One check of a single (config, app) evaluation: structural invariants
/// (surfaced as a kBackendError response) plus the oracle properties.
/// Returns the combined failure message, or "" for a clean run; `cycles` is
/// filled for runs that completed.
std::string check_point(eval::EvalService& service,
                        const config::CpuConfig& config, kernels::App app,
                        std::uint64_t* cycles) {
  const eval::EvalRequest request{config, app};
  const eval::EvalResponse checked = service.evaluate({&request, 1}).front();
  if (!checked.ok()) return checked.error;
  if (cycles != nullptr) *cycles = checked.cycles();
  const isa::Program& trace =
      service.trace(app, config.core.vector_length_bits);
  const std::vector<std::string> violations =
      verify_run(config, trace, checked.run);
  if (violations.empty()) return "";
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << "; ";
    os << violations[i];
  }
  return os.str();
}

}  // namespace

const std::vector<config::ParamId>& monotone_params() {
  // Capacity/width resources only: raising one relaxes a stall condition
  // and changes nothing else about the model (latencies, port counts and
  // the memory picture are untouched). Deliberately excluded: cache
  // geometry, clocks, prefetch depth and bandwidth caps, which legitimately
  // trade off (a bigger line evicts differently; deeper prefetch pollutes);
  // and lsq_completion_width, which the fuzz soak showed is not strictly
  // monotone — completing loads sooner re-times later memory accesses
  // against the prefetcher, occasionally costing a few cycles.
  static const std::vector<config::ParamId> params = {
      config::ParamId::kLoopBufferSize,  config::ParamId::kGpRegisters,
      config::ParamId::kFpRegisters,     config::ParamId::kPredRegisters,
      config::ParamId::kCondRegisters,   config::ParamId::kCommitWidth,
      config::ParamId::kFrontendWidth,   config::ParamId::kRobSize,
      config::ParamId::kLoadQueueSize,   config::ParamId::kStoreQueueSize,
  };
  return params;
}

int ChainResult::first_regression() const {
  int prev = -1;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    if (!errors[i].empty()) continue;  // invariant failure reported separately
    if (prev >= 0 &&
        cycles[i] >
            monotone_allowed_cycles(cycles[static_cast<std::size_t>(prev)])) {
      return static_cast<int>(i);
    }
    prev = static_cast<int>(i);
  }
  return -1;
}

ChainResult run_chain(eval::EvalService& service,
                      const config::CpuConfig& base, config::ParamId param,
                      std::vector<double> values, kernels::App app) {
  ADSE_REQUIRE_MSG(std::is_sorted(values.begin(), values.end()),
                   "chain values must ascend");
  ChainResult chain;
  chain.param = param;
  chain.values = std::move(values);
  chain.cycles.resize(chain.values.size(), 0);
  chain.errors.resize(chain.values.size());
  for (std::size_t i = 0; i < chain.values.size(); ++i) {
    const config::CpuConfig point = with_param(base, param, chain.values[i]);
    ADSE_REQUIRE_MSG(config::is_valid(point),
                     "chain point invalid: " << config::param_name(param)
                                             << " = " << chain.values[i]);
    chain.errors[i] = check_point(service, point, app, &chain.cycles[i]);
  }
  return chain;
}

FuzzReport fuzz(eval::EvalService& service, const FuzzOptions& options) {
  ADSE_REQUIRE_MSG(options.iterations > 0, "fuzz needs iterations > 0");
  ADSE_REQUIRE_MSG(options.chain_points >= 2,
                   "monotonicity chains need at least 2 points");
  const ScopedCheck scoped(true);
  const config::ParameterSpace space;
  const config::CpuConfig baseline = config::thunderx2_baseline();

  FuzzReport report;
  report.iterations = options.iterations;
  std::atomic<std::uint64_t> evaluations{0};
  std::mutex mutex;  // guards report.violations during the parallel phase

  auto run_iteration = [&](std::size_t i) {
    // Each iteration derives its own generator from (seed, i), so results
    // do not depend on thread count or completion order.
    Rng rng(options.seed + 0x9e3779b97f4a7c15ULL * (i + 1));
    config::CpuConfig config = space.sample(rng);
    config.name = "fuzz-" + std::to_string(options.seed) + "-" +
                  std::to_string(i);
    const kernels::App app =
        kernels::all_apps()[rng.index(kernels::all_apps().size())];

    std::vector<Violation> found;
    const auto invariant_violation = [&](const config::CpuConfig& c,
                                         const std::string& message) {
      Violation v;
      v.kind = Violation::Kind::kInvariant;
      v.app = app;
      v.seed = options.seed;
      v.iteration = i;
      v.config = c;
      v.message = message;
      found.push_back(std::move(v));
    };

    // Property family 1: the sampled point itself.
    evaluations.fetch_add(1, std::memory_order_relaxed);
    const std::string message = check_point(service, config, app, nullptr);
    if (!message.empty()) invariant_violation(config, message);

    // Property family 2: a monotonicity chain through the sampled point.
    // The prefetcher is disabled for the chain: with it on, extra capacity
    // legitimately hurts sometimes (a deeper ROB exposes more loads, whose
    // prefetches contend with demand fills for RAM bandwidth), so "more is
    // never slower" only holds for demand-only memory traffic.
    const config::CpuConfig chain_base =
        with_param(config, config::ParamId::kPrefetchDistance, 0.0);
    const config::ParamId param =
        monotone_params()[rng.index(monotone_params().size())];
    const std::vector<double> range = space.spec(param).values();
    const std::size_t points = std::min<std::size_t>(
        static_cast<std::size_t>(options.chain_points), range.size());
    std::set<std::size_t> picked;
    while (picked.size() < points) picked.insert(rng.index(range.size()));
    std::vector<double> values;
    for (std::size_t idx : picked) values.push_back(range[idx]);

    evaluations.fetch_add(values.size(), std::memory_order_relaxed);
    const ChainResult chain =
        run_chain(service, chain_base, param, values, app);
    for (std::size_t p = 0; p < chain.errors.size(); ++p) {
      if (chain.errors[p].empty()) continue;
      invariant_violation(with_param(chain_base, param, chain.values[p]),
                          chain.errors[p]);
      break;  // one invariant finding per chain is enough signal
    }
    const int regression = chain.first_regression();
    if (regression >= 0) {
      // Compare against the last clean point before the regression.
      int prev = regression - 1;
      while (prev > 0 && !chain.errors[static_cast<std::size_t>(prev)].empty())
        --prev;
      Violation v;
      v.kind = Violation::Kind::kMonotonicity;
      v.app = app;
      v.seed = options.seed;
      v.iteration = i;
      v.config = chain_base;
      v.chain_param = param;
      v.chain_lo = chain.values[static_cast<std::size_t>(prev)];
      v.chain_hi = chain.values[static_cast<std::size_t>(regression)];
      v.cycles_lo = chain.cycles[static_cast<std::size_t>(prev)];
      v.cycles_hi = chain.cycles[static_cast<std::size_t>(regression)];
      std::ostringstream os;
      os << "raising " << config::param_name(param) << " from " << v.chain_lo
         << " to " << v.chain_hi << " on '" << kernels::app_slug(app)
         << "' raised cycles from " << v.cycles_lo << " to " << v.cycles_hi;
      v.message = os.str();
      found.push_back(std::move(v));
    }

    if (!found.empty()) {
      std::lock_guard<std::mutex> lock(mutex);
      for (Violation& v : found) report.violations.push_back(std::move(v));
    }
  };

  service.parallel_for(static_cast<std::size_t>(options.iterations),
                       run_iteration);

  // Deterministic report order whatever the scheduling.
  std::sort(report.violations.begin(), report.violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.iteration != b.iteration) return a.iteration < b.iteration;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });

  // Shrinking and repro writing are sequential: each probes the service
  // (memoised) and must stay deterministic.
  for (Violation& violation : report.violations) {
    if (options.shrink) {
      const std::size_t params_left =
          shrink_violation(service, violation, baseline);
      if (options.verbose) {
        obs::logf(obs::LogLevel::kInfo,
                  "[check] iteration %llu shrunk to %zu parameter(s): %s\n",
                  static_cast<unsigned long long>(violation.iteration),
                  params_left, violation.message.c_str());
      }
    }
    if (!options.repro_dir.empty()) save_repro(options.repro_dir, violation);
  }
  report.evaluations = evaluations.load();
  return report;
}

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << iterations << " iterations, " << evaluations << " evaluations, "
     << violations.size() << " violation(s)";
  return os.str();
}

}  // namespace adse::check
