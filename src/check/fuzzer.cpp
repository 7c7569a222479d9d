#include "check/fuzzer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <set>
#include <sstream>

#include "check/check.hpp"
#include "common/check.hpp"
#include "common/require.hpp"
#include "obs/log.hpp"
#include "sim/multicore.hpp"

namespace adse::check {

namespace {

/// Shrinks (when asked), then writes the report's violations in report order.
/// Both are sequential: each probe re-runs a point and must stay
/// deterministic.
void shrink_and_save(FuzzReport& report, const FuzzOptions& options,
                     const Fires& fires) {
  for (Violation& violation : report.violations) {
    if (options.shrink) {
      const std::size_t left = shrink_violation(fires, violation);
      if (options.verbose) {
        obs::logf(obs::LogLevel::kInfo,
                  "[check] iteration %llu shrunk to %zu dimension(s): %s\n",
                  static_cast<unsigned long long>(violation.iteration), left,
                  violation.message.c_str());
      }
    }
  }
  if (!options.repro_dir.empty()) {
    save_repros(options.repro_dir, report.violations);
  }
}

/// Coherence sampling ranges. VLs stay modest (wide vectors multiply lines
/// per access, not protocol variety); sparse entry budgets are deliberately
/// tiny so directory evictions actually happen inside short fuzz traces.
constexpr std::array<int, 4> kVlChoices = {128, 256, 512, 1024};
constexpr std::array<int, 4> kSparseEntryChoices = {0, 8, 16, 64};

/// Largest per-core start skew in cycles. Small on purpose: the interesting
/// races live within a few protocol round-trips of each other.
constexpr std::uint64_t kMaxSkewCycles = 48;

std::vector<std::uint64_t> skews_from_seed(std::uint64_t interleave_seed,
                                           int cores) {
  if (interleave_seed == 0) return {};
  Rng rng(interleave_seed);
  std::vector<std::uint64_t> skew(static_cast<std::size_t>(cores));
  for (auto& s : skew) {
    s = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kMaxSkewCycles)));
  }
  return skew;
}

McPoint sample_point(Rng& rng, const FuzzOptions& options) {
  McPoint p;
  int max_log2 = 1;
  while ((2 << max_log2) <= options.max_cores) max_log2++;
  p.num_cores = 2 << rng.uniform_int(0, max_log2 - 1);
  p.directory_scheme = rng.bernoulli(0.5)
                           ? config::DirectoryScheme::kFullMap
                           : config::DirectoryScheme::kSparse;
  p.directory_entries =
      p.directory_scheme == config::DirectoryScheme::kSparse
          ? kSparseEntryChoices[rng.index(kSparseEntryChoices.size())]
          : 0;
  p.vector_length_bits = kVlChoices[rng.index(kVlChoices.size())];
  p.app = kernels::all_mc_apps()[rng.index(kernels::all_mc_apps().size())];
  p.interleave_seed = rng.next();
  return p;
}

}  // namespace

std::string check_point(eval::EvalService& service,
                        const config::CpuConfig& config, kernels::App app,
                        std::uint64_t* cycles) {
  const eval::EvalRequest request{config, app};
  const eval::EvalResponse checked = service.evaluate({&request, 1}).front();
  if (!checked.ok()) return checked.error;
  if (cycles != nullptr) *cycles = checked.cycles();
  const std::vector<std::string> violations = verify_run(
      config, service.trace(app, config.core.vector_length_bits), checked.run);
  if (violations.empty()) return "";
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << "; ";
    os << violations[i];
  }
  return os.str();
}

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
    const auto add_violation = [&](Violation::Kind kind,
                                   const config::CpuConfig& c,
                                   const std::string& message) -> Violation& {
      Violation& v = found.emplace_back();
      v.kind = kind;
      v.app = app;
      v.seed = options.seed;
      v.iteration = i;
      v.config = c;
      v.message = message;
      return v;
    };

    // Property family 1: the sampled point itself.
    evaluations.fetch_add(1, std::memory_order_relaxed);
    const std::string message = check_point(service, config, app, nullptr);
    if (!message.empty()) {
      add_violation(Violation::Kind::kInvariant, config, message);
    }

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
      add_violation(Violation::Kind::kInvariant,
                    with_param(chain_base, param, chain.values[p]),
                    chain.errors[p]);
      break;  // one invariant finding per chain is enough signal
    }
    const int regression = chain.first_regression();
    if (regression >= 0) {
      // Compare against the last clean point before the regression.
      int prev = regression - 1;
      while (prev > 0 && !chain.errors[static_cast<std::size_t>(prev)].empty())
        --prev;
      Violation& v =
          add_violation(Violation::Kind::kMonotonicity, chain_base, "");
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
    }

    if (!found.empty()) {
      std::lock_guard<std::mutex> lock(mutex);
      for (Violation& v : found) report.violations.push_back(std::move(v));
    }
  };

  service.parallel_for(static_cast<std::size_t>(options.iterations),
                       run_iteration);

  // Deterministic report order whatever the scheduling. Stable: one
  // iteration's findings arrive together in a fixed order, and two of the
  // same kind must keep it (it decides which one's repro file gets the -2
  // name).
  std::stable_sort(
      report.violations.begin(), report.violations.end(),
      [](const Violation& a, const Violation& b) {
        if (a.iteration != b.iteration) return a.iteration < b.iteration;
        return static_cast<int>(a.kind) < static_cast<int>(b.kind);
      });

  report.evaluations = evaluations.load();
  shrink_and_save(report, options, [&service](Violation& probe) {
    return reproduces(service, probe);
  });
  return report;
}

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << iterations << " iterations, " << evaluations << " evaluations, "
     << violations.size() << " violation(s)";
  return os.str();
}

std::string mc_run_point(const McPoint& point,
                         coherence::InjectedBug inject) {
  const config::CpuConfig cfg = mc_point_config(point);
  config::validate(cfg);  // outside the try: an invalid point is no finding
  sim::MulticoreOptions options;
  options.inject = inject;
  options.start_skew = skews_from_seed(point.interleave_seed, point.num_cores);
  // Tight walk cadence: the fuzzer trades throughput for the earliest
  // possible detection of a structural-law break.
  options.walk_every = 64;
  ScopedCheck armed(true);
  try {
    const kernels::ThreadedProgram program = kernels::build_mc_app(
        point.app, point.num_cores, point.vector_length_bits);
    const sim::MulticoreResult result =
        sim::simulate_multicore(cfg, program, options);
    // Terminal sanity: the lockstep loop retires every µop of every thread.
    std::uint64_t expected = 0;
    for (const auto& t : program.threads) expected += t.ops.size();
    ADSE_REQUIRE_MSG(result.retired_uops == expected,
                     "retired " << result.retired_uops << " of " << expected
                                << " µops");
    ADSE_REQUIRE_MSG(result.cycles > 0, "zero-cycle multicore run");
  } catch (const InvariantError& e) {
    return e.what();
  }
  return "";
}

FuzzReport mc_fuzz(const FuzzOptions& options) {
  ADSE_REQUIRE_MSG(options.iterations > 0, "mc-fuzz needs iterations > 0");
  ADSE_REQUIRE_MSG(options.max_cores >= 2 && options.max_cores <= 16 &&
                       (options.max_cores & (options.max_cores - 1)) == 0,
                   "max_cores must be a power of two in [2,16], got "
                       << options.max_cores);
  FuzzReport report;
  report.iterations = options.iterations;
  for (int iter = 0; iter < options.iterations; ++iter) {
    // Independent per-iteration streams, so the report does not depend on
    // ordering (a different formula from fuzz(): each decides which points
    // get sampled, so neither may change).
    Rng rng(options.seed * 0x9e3779b97f4a7c15ULL +
            static_cast<std::uint64_t>(iter) * 2 + 1);
    const McPoint point = sample_point(rng, options);
    report.evaluations++;
    std::string message = mc_run_point(point, options.inject);
    if (message.empty()) continue;
    Violation& v = report.violations.emplace_back();
    v.kind = Violation::Kind::kCoherence;
    v.seed = options.seed;
    v.iteration = static_cast<std::uint64_t>(iter);
    v.point = point;
    v.inject = options.inject;
    v.message = std::move(message);
  }
  shrink_and_save(report, options, [](Violation& probe) {
    // The shrunk point reports its own (latest firing) message.
    probe.message = mc_run_point(probe.point, probe.inject);
    return !probe.message.empty();
  });
  return report;
}

}  // namespace adse::check
