/// \file 11_fused_campaign.cpp
/// The fused-surrogate campaign at scale — ROADMAP item 1's "10⁶–10⁷ configs
/// on a laptop" direction, built on DESIGN.md §14: every evaluation first
/// asks the online analytical×residual model; only candidates whose residual
/// spread exceeds the routing threshold (plus the periodic honesty probes
/// and the warm-up rounds before each app's model is fitted) pay for a real
/// simulation. The campaign table that comes out is then pushed through the
/// paper's own importance pipeline (§V-C CART + permutation importance) to
/// show the surrogate-heavy table re-derives the headline ranking: vector
/// length ≫ memory speed ≫ ROB/FP-register sizing.
///
/// Artifacts: `BENCH_11.json` (routing counters, real-sim reduction ratio,
/// probe-priced routing error, aggregated importance shares) — uploaded and
/// python-asserted by CI at smoke scale.
///
/// Env: ADSE_BENCH11_CONFIGS (default 100000 — the ≥10⁵ acceptance scale),
///      ADSE_BENCH11_JSON    (output path, default "BENCH_11.json"),
///      ADSE_FUSED_THRESHOLD / ADSE_FUSED_PROBE_EVERY (routing policy),
///      ADSE_THREADS / ADSE_SEED as usual.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/surrogate_eval.hpp"
#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include "common/stopwatch.hpp"
#include "eval/fused.hpp"
#include "eval/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace adse;

double mean_pct(const std::vector<analysis::SurrogateEvaluation>& evals,
                config::ParamId id) {
  double total = 0.0;
  for (const auto& eval : evals) {
    total += eval.importance.percent[static_cast<std::size_t>(id)];
  }
  return total / static_cast<double>(evals.size());
}

}  // namespace

int main() {
  const int n = static_cast<int>(env_int("ADSE_BENCH11_CONFIGS", 100000));
  const std::string json_path =
      env_string("ADSE_BENCH11_JSON", "BENCH_11.json");
  std::printf("== Fused-surrogate campaign: %d configs x %d apps ==\n\n", n,
              kernels::kNumApps);

  // A hermetic service: the surrogate-heavy table must not pollute the
  // shared on-disk result store, and a private registry makes the routing
  // counters below attributable to exactly this campaign.
  eval::ServiceConfig eval_options;
  eval_options.threads = num_threads();
  eval::EvalService service(eval_options);

  eval::FusedModel model;  // policy from ADSE_FUSED_* (threshold 1.0, probe 64)
  std::printf("routing policy: threshold %.3f, probe every %d, "
              "min observations %d, round %d\n\n",
              model.options().threshold, model.options().probe_every,
              model.options().min_observations, model.options().round_size);

  campaign::CampaignSpec spec;
  spec.label = "fused11";
  spec.num_configs = n;
  spec.seed = campaign_seed();
  spec.fused = &model;
  spec.verbose = true;
  Stopwatch watch;
  const campaign::CampaignResult result = campaign::run_campaign(spec, service);
  const double seconds = watch.seconds();

  const double evaluations =
      static_cast<double>(n) * static_cast<double>(kernels::kNumApps);
  const std::uint64_t real_sims =
      service.metrics().counter("eval.routed_sim").value();
  const std::uint64_t surrogate =
      service.metrics().counter("eval.routed_surrogate").value();
  const std::uint64_t probes =
      service.metrics().counter("eval.fused_probes").value();
  const std::uint64_t refits =
      service.metrics().counter("eval.residual_refits").value();
  const double ratio =
      evaluations / static_cast<double>(std::max<std::uint64_t>(real_sims, 1));
  auto& error = service.metrics().histogram("eval.routing_error_pct");
  const double err_p50 = error.quantile(0.5);
  const double err_p95 = error.quantile(0.95);

  std::printf("campaign: %.0f evaluations in %.1fs\n", evaluations, seconds);
  std::printf("routed: %llu real sims (incl. %llu probes), %llu surrogate "
              "answers, %llu residual refits\n",
              static_cast<unsigned long long>(real_sims),
              static_cast<unsigned long long>(probes),
              static_cast<unsigned long long>(surrogate),
              static_cast<unsigned long long>(refits));
  std::printf("real-sim reduction: %.1fx fewer simulator runs than all-sim\n",
              ratio);
  std::printf("probe-priced routing error: p50 %.2f%%, p95 %.2f%%\n\n",
              err_p50, err_p95);

  // The paper's importance pipeline over the fused table.
  std::vector<analysis::SurrogateEvaluation> evals;
  for (kernels::App app : kernels::all_apps()) {
    evals.push_back(
        analysis::evaluate_surrogate(app, result.dataset(app), spec.seed));
  }
  std::printf("%s", analysis::render_importance(evals).c_str());

  // The paper's headline ranking (abstract, quoted in PAPER.md): for the
  // vectorised codes "vector length dominates ... having a greater impact
  // than the speed of the memory or the out-of-order resources of the
  // core". We assert exactly that chain per vectorised app — VL ≫ every
  // memory-speed parameter and VL ≫ ROB/FP-register sizing — and the flip
  // side for the poorly vectorised codes (VL unimportant there), matching
  // the all-sim bench/04 gates this table must re-derive.
  const auto pct = [&evals](kernels::App app, config::ParamId id) {
    return evals[static_cast<std::size_t>(app)]
        .importance.percent[static_cast<std::size_t>(id)];
  };
  const auto mem_speed_of = [&pct](kernels::App app) {
    double best = 0.0;
    for (auto id : {config::ParamId::kL1Latency, config::ParamId::kL1Clock,
                    config::ParamId::kL2Latency, config::ParamId::kL2Clock,
                    config::ParamId::kRamLatency, config::ParamId::kRamClock}) {
      best = std::max(best, pct(app, id));
    }
    return best;
  };
  const auto ooo_of = [&pct](kernels::App app) {
    return std::max(pct(app, config::ParamId::kRobSize),
                    pct(app, config::ParamId::kFpRegisters));
  };
  for (kernels::App app : kernels::all_apps()) {
    std::printf("importance %-9s VL %6.2f%% | best memory-speed param "
                "%5.2f%% | ROB/FP %6.2f%%\n",
                kernels::app_slug(app).c_str(),
                pct(app, config::ParamId::kVectorLength), mem_speed_of(app),
                ooo_of(app));
  }
  std::printf("\n");

  int failures = 0;
  for (kernels::App app :
       {kernels::App::kStream, kernels::App::kMiniBude}) {
    const double vl = pct(app, config::ParamId::kVectorLength);
    failures += bench::shape_check(
        vl > mem_speed_of(app) && vl > ooo_of(app),
        kernels::app_slug(app) +
            ": VL outweighs memory speed and ROB/FP sizing (paper headline)");
  }
  failures += bench::shape_check(
      pct(kernels::App::kTeaLeaf, config::ParamId::kVectorLength) < 5.0 &&
          pct(kernels::App::kMiniSweep, config::ParamId::kVectorLength) < 5.0,
      "VL is unimportant for the poorly vectorised codes (paper Fig. 3)");
  failures += bench::shape_check(
      ratio >= 10.0,
      ">= 10x fewer real simulator runs than an all-sim campaign");
  failures += bench::shape_check(
      probes > 0 && err_p50 < 50.0,
      "probe batches priced the surrogate and its median error stays bounded");

  {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"11_fused_campaign\",\n"
        << "  \"configs\": " << n << ",\n"
        << "  \"evaluations\": " << static_cast<std::uint64_t>(evaluations)
        << ",\n  \"seed\": " << spec.seed << ",\n"
        << "  \"threshold\": " << model.options().threshold << ",\n"
        << "  \"probe_every\": " << model.options().probe_every << ",\n"
        << "  \"real_sims\": " << real_sims << ",\n"
        << "  \"surrogate_answers\": " << surrogate << ",\n"
        << "  \"probes\": " << probes << ",\n"
        << "  \"residual_refits\": " << refits << ",\n"
        << "  \"real_sim_reduction\": " << ratio << ",\n"
        << "  \"routing_error_p50_pct\": " << err_p50 << ",\n"
        << "  \"routing_error_p95_pct\": " << err_p95 << ",\n"
        << "  \"seconds\": " << seconds << ",\n"
        << "  \"importance\": [\n";
    for (int a = 0; a < kernels::kNumApps; ++a) {
      const auto app = static_cast<kernels::App>(a);
      out << "    {\"app\": \"" << kernels::app_slug(app) << "\", \"vl\": "
          << pct(app, config::ParamId::kVectorLength)
          << ", \"mem_speed\": " << mem_speed_of(app)
          << ", \"rob_fp\": " << ooo_of(app) << "}"
          << (a + 1 < kernels::kNumApps ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());

  std::printf("%s\n", service.summary_line().c_str());
  obs::Tracer::global().flush();
  return failures == 0 ? 0 : 1;
}
