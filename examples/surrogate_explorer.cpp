/// \file surrogate_explorer.cpp
/// The paper's full workflow in one program: collect a (small) campaign,
/// train the per-application decision-tree surrogates, report their accuracy
/// and feature importances, then use a surrogate the way a designer would —
/// asking "what if" questions about hypothetical CPUs without re-simulating.
///
///   ./examples/surrogate_explorer            # 200-config demo campaign
///   ADSE_CONFIGS=2000 ./examples/surrogate_explorer

#include <cstdio>

#include "analysis/surrogate_eval.hpp"
#include "campaign/campaign.hpp"
#include "common/env.hpp"
#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "config/baselines.hpp"
#include "eval/service.hpp"

int main() {
  using namespace adse;

  // Everything below — the campaign rows and the spot-check simulations —
  // flows through the shared evaluation service (ADSE_THREADS, persistent
  // result store), so re-running the explorer is nearly simulation-free.
  eval::EvalService& service = eval::EvalService::shared();

  campaign::CampaignSpec spec;
  spec.label = "explorer";
  spec.num_configs = static_cast<int>(env_int("ADSE_CONFIGS", 200));
  spec.seed = campaign_seed();
  std::printf("Collecting a %d-configuration campaign (T1/T2)...\n",
              spec.num_configs);
  const auto data = campaign::run_campaign(spec, service);

  std::printf("\nTraining one decision-tree surrogate per application "
              "(T3, §V-C)...\n\n");
  std::vector<analysis::SurrogateEvaluation> evals;
  for (kernels::App app : kernels::all_apps()) {
    evals.push_back(
        analysis::evaluate_surrogate(app, data.dataset(app), spec.seed));
  }
  std::printf("%s\n", analysis::render_accuracy(evals).c_str());
  std::printf("Top-5 importances (T4, §VI-B):\n%s",
              analysis::render_importance(evals, 5).c_str());

  // --- what-if exploration --------------------------------------------------
  // Predict hypothetical designs through the surrogate, then check one
  // against the real simulator (the surrogate's entire point: ~10^5 times
  // faster to query than to simulate).
  std::printf("What-if: MiniBude cycles predicted by the surrogate\n");
  const auto& bude = evals[1];
  TextTable table({"design", "surrogate prediction", "simulated truth"});
  for (const auto& [name, cfg] :
       {std::pair{"thunderx2", config::thunderx2_baseline()},
        std::pair{"a64fx-like", config::a64fx_like()},
        std::pair{"big-future", config::big_future()}}) {
    const auto features = config::feature_vector(cfg);
    const double predicted =
        bude.model.predict({features.begin(), features.end()});
    const std::vector<eval::EvalRequest> request = {
        {cfg, kernels::App::kMiniBude}};
    const auto answer = service.evaluate(request);
    eval::require_ok(answer);
    const auto truth = answer.front().cycles();
    table.add_row({name, format_grouped(static_cast<long long>(predicted)),
                   format_grouped(static_cast<long long>(truth))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(Predictions for designs far outside the sampled space — like "
              "big-future's\n2048-bit vectors — show the extrapolation limits "
              "§VII warns about.)\n");
  return 0;
}
