/// \file 03_fig2_model_accuracy.cpp
/// Fig. 2: percentage of cycle predictions within each confidence interval
/// of the simulated truth, per application, on the unseen 20% split; plus
/// the paper's 93.38% mean-accuracy headline. Paper shape: the overwhelming
/// majority of predictions fall within 25%, STREAM is the hardest app, and
/// the all-app mean accuracy is high. NOTE on scale: the paper trains on
/// 144k rows (36k/app); accuracy grows steadily with campaign size (see
/// bench 92's ablation (c)) — at the default 1500-config campaign expect
/// ~55%, at 12k ~70%, trending toward the paper's 93.38% at its scale.

#include <cstdio>

#include "analysis/surrogate_eval.hpp"
#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include <algorithm>

#include "common/strings.hpp"

int main() {
  using namespace adse;
  std::printf("== Fig. 2: surrogate prediction accuracy (held-out 20%%) ==\n\n");
  const auto data = bench::main_campaign();

  std::vector<analysis::SurrogateEvaluation> evals;
  for (kernels::App app : kernels::all_apps()) {
    evals.push_back(
        analysis::evaluate_surrogate(app, data.dataset(app), campaign_seed()));
  }
  std::printf("%s\n", analysis::render_accuracy(evals).c_str());

  double mean_acc = 0.0;
  bool majority_within50 = true;
  double stream_acc = 0.0, best_other = -1e9;
  for (const auto& eval : evals) {
    mean_acc += eval.mean_accuracy_percent;
    // tolerance index 5 == 50%.
    majority_within50 = majority_within50 && eval.fraction_within[5] > 0.5;
    if (eval.app == kernels::App::kStream) {
      stream_acc = eval.mean_accuracy_percent;
    } else {
      best_other = std::max(best_other, eval.mean_accuracy_percent);
    }
    std::printf("%s: tree depth %d, %zu leaves, %zu train rows\n",
                kernels::app_name(eval.app).c_str(), eval.model.depth(),
                eval.model.num_leaves(), eval.train.num_rows());
  }
  mean_acc /= static_cast<double>(evals.size());
  // The paper trains on 36,000 rows per app (80% of 45,000 configs).
  const std::size_t train_rows = evals.front().train.num_rows();
  const std::string data_ratio = format_fixed(
      36000.0 / static_cast<double>(std::max<std::size_t>(train_rows, 1)), 1);
  std::printf("\nmean accuracy across all applications: %s%% "
              "(paper: 93.38%% at %sx this run's %zu training rows per app;\n"
              "see bench 92's accuracy-vs-campaign-size ablation for the "
              "scaling curve)\n\n",
              format_fixed(mean_acc, 2).c_str(), data_ratio.c_str(),
              train_rows);

  int failures = 0;
  failures += bench::shape_check(
      mean_acc > 45.0, "the surrogates learn real structure (mean accuracy "
                       "well above chance with 1/" + data_ratio +
                           " of the paper's training rows)");
  failures += bench::shape_check(
      majority_within50,
      "the majority of predictions fall near the truth for every app");
  failures += bench::shape_check(
      stream_acc < best_other,
      "STREAM is the hardest application to predict, as in the paper");
  return failures;
}
