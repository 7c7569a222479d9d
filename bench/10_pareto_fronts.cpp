/// \file 10_pareto_fronts.cpp
/// Multi-objective (cycles, energy, area) design-space exploration — the
/// ROADMAP's PPA step. For each target app we run the hypervolume-driven
/// guided search (dse::Objective::kCyclesEnergyArea) against uniform random
/// sampling at an EQUAL simulation budget, extract the per-app Pareto front,
/// and assert the power model's headline shape: the front *bends* — wide-VL
/// designs win cycles but pay superlinear datapath area/energy, so the
/// minimum-cycles corner and the minimum-energy corner are different
/// machines and neither dominates the other.
///
/// Artifacts: `BENCH_10.json` (hypervolumes, knee data, per-round journal
/// HV) and one `BENCH_10_front_<app>.csv` per app (the non-dominated
/// configurations with their objective columns) — CI uploads both and a
/// python smoke re-checks the fronts.
///
/// Knobs: ADSE_BENCH10_BUDGET (default 64 configurations per searcher),
///        ADSE_BENCH10_JSON   (output path, default "BENCH_10.json"),
///        ADSE_THREADS, ADSE_SEED.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "dse/pareto.hpp"
#include "dse/search.hpp"
#include "obs/trace.hpp"

namespace {

using namespace adse;

struct AppOutcome {
  kernels::App app = kernels::App::kStream;
  dse::SearchResult guided;
  dse::SearchResult random;
  std::vector<std::size_t> front;   ///< indices into guided.evaluated
  double guided_hv = 0.0;           ///< vs the shared reference
  double random_hv = 0.0;
  // The observed corners, over the POOLED guided+random evaluations (the
  // full set of designs this bench actually simulated for the app).
  dse::EvaluatedConfig min_cycles;
  dse::EvaluatedConfig min_energy;
  std::string front_csv;
  std::vector<double> journal_hv;   ///< per guided round, monotone
};

dse::SearchOptions base_options(kernels::App app, int budget) {
  dse::SearchOptions options;
  options.objective = dse::Objective::kCyclesEnergyArea;
  options.app = app;
  options.max_simulations = budget;
  options.initial_samples = std::min(24, std::max(4, budget / 4));
  options.batch_size = 8;
  options.seed = campaign_seed();
  // threads stays 0: inherit the shared eval service (ADSE_THREADS), whose
  // persistent result store makes a re-run of this bench simulation-free.
  return options;
}

std::size_t argmin_dim(const std::vector<std::vector<double>>& points,
                       std::size_t dim) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i][dim] < points[best][dim]) best = i;
  }
  return best;
}

/// Common reference for the guided-vs-random hypervolume comparison: the
/// per-objective maximum over BOTH runs' points, padded 20% — each run's own
/// frozen journal reference is only self-consistent, a cross-run comparison
/// needs one shared yardstick.
std::vector<double> shared_reference(
    const std::vector<std::vector<double>>& guided,
    const std::vector<std::vector<double>>& random) {
  std::vector<double> ref(3, 0.0);
  for (const auto* pts : {&guided, &random}) {
    for (const auto& p : *pts) {
      for (std::size_t d = 0; d < 3; ++d) ref[d] = std::max(ref[d], p[d]);
    }
  }
  for (double& r : ref) r *= 1.2;
  return ref;
}

AppOutcome explore(kernels::App app, int budget) {
  AppOutcome out;
  out.app = app;
  const std::string slug = kernels::app_slug(app);

  dse::SearchOptions guided_options = base_options(app, budget);
  guided_options.label = "pareto_guided_" + slug;
  dse::SearchOptions random_options = base_options(app, budget);
  random_options.label = "pareto_random_" + slug;

  std::fprintf(stderr, "[bench10] %s: random baseline, %d sims\n",
               slug.c_str(), budget);
  out.random = dse::random_search(random_options);
  std::fprintf(stderr, "[bench10] %s: guided HVI search, %d sims\n",
               slug.c_str(), budget);
  out.guided = dse::search(guided_options);

  const auto guided_pts = out.guided.ppa_points(app);
  const auto random_pts = out.random.ppa_points(app);
  const auto ref = shared_reference(guided_pts, random_pts);
  out.guided_hv = dse::hypervolume(guided_pts, ref);
  out.random_hv = dse::hypervolume(random_pts, ref);

  out.front = out.guided.pareto_ppa(app);
  std::vector<dse::EvaluatedConfig> pooled = out.guided.evaluated;
  pooled.insert(pooled.end(), out.random.evaluated.begin(),
                out.random.evaluated.end());
  auto pooled_pts = guided_pts;
  pooled_pts.insert(pooled_pts.end(), random_pts.begin(), random_pts.end());
  out.min_cycles = pooled[argmin_dim(pooled_pts, 0)];
  out.min_energy = pooled[argmin_dim(pooled_pts, 1)];

  // The guided journal's hypervolume column (vs its own frozen reference).
  for (const auto& r : out.guided.journal.rounds) {
    out.journal_hv.push_back(r.hypervolume);
  }

  // Front CSV: the non-dominated configurations with their objectives.
  CsvTable table;
  table.columns = campaign::feature_names();
  table.columns.push_back(campaign::cycles_column(app));
  table.columns.push_back(campaign::energy_column(app));
  table.columns.push_back(campaign::area_column());
  for (std::size_t idx : out.front) {
    const dse::EvaluatedConfig& e = out.guided.evaluated[idx];
    const auto features = config::feature_vector(e.config);
    std::vector<double> row(features.begin(), features.end());
    for (double v : e.ppa(app)) row.push_back(v);
    table.rows.push_back(std::move(row));
  }
  out.front_csv = "BENCH_10_front_" + slug + ".csv";
  write_csv_atomic(out.front_csv, table);
  return out;
}

void print_outcome(const AppOutcome& o) {
  std::printf("-- %s --\n", std::string(kernels::app_name(o.app)).c_str());
  TextTable table({"point", "VL", "cycles", "energy (mJ)", "area (mm2)"});
  for (std::size_t idx : o.front) {
    const dse::EvaluatedConfig& e = o.guided.evaluated[idx];
    const auto p = e.ppa(o.app);
    table.add_row({"front", std::to_string(e.config.core.vector_length_bits),
                   format_grouped(static_cast<long long>(p[0])),
                   format_fixed(p[1] * 1e3, 3), format_fixed(p[2], 2)});
  }
  std::printf("%s\n", table.render().c_str());
  const auto pc = o.min_cycles.ppa(o.app);
  const auto pe = o.min_energy.ppa(o.app);
  std::printf("min-cycles: VL %d, %s cycles, %.3f mJ, %.2f mm2\n",
              o.min_cycles.config.core.vector_length_bits,
              format_grouped(static_cast<long long>(pc[0])).c_str(),
              pc[1] * 1e3, pc[2]);
  std::printf("min-energy: VL %d, %s cycles, %.3f mJ, %.2f mm2\n",
              o.min_energy.config.core.vector_length_bits,
              format_grouped(static_cast<long long>(pe[0])).c_str(),
              pe[1] * 1e3, pe[2]);
  std::printf("front: %zu of %zu points; guided HV %.3g vs random HV %.3g "
              "(shared reference); wrote %s\n\n",
              o.front.size(), o.guided.evaluated.size(), o.guided_hv,
              o.random_hv, o.front_csv.c_str());
}

/// Best (minimum) value of objective `dim` among the app's pooled
/// guided+random evaluations whose VL satisfies `wide` (VL >= 1024) or not
/// (VL <= 256); infinity if the group is empty.
double group_best(const AppOutcome& o, std::size_t dim, bool wide) {
  double best = std::numeric_limits<double>::infinity();
  for (const dse::SearchResult* run : {&o.guided, &o.random}) {
    for (const dse::EvaluatedConfig& e : run->evaluated) {
      const int vl = e.config.core.vector_length_bits;
      if (wide ? vl < 1024 : vl > 256) continue;
      best = std::min(best, e.ppa(o.app)[dim]);
    }
  }
  return best;
}

}  // namespace

int main() {
  std::printf("== Multi-objective Pareto fronts: cycles / energy / area ==\n\n");
  const int budget = static_cast<int>(env_int("ADSE_BENCH10_BUDGET", 64));
  const std::string json_path =
      env_string("ADSE_BENCH10_JSON", "BENCH_10.json");
  const std::vector<kernels::App> apps = {kernels::App::kStream,
                                          kernels::App::kMiniBude};

  std::vector<AppOutcome> outcomes;
  for (kernels::App app : apps) outcomes.push_back(explore(app, budget));
  for (const AppOutcome& o : outcomes) print_outcome(o);

  int failures = 0;
  for (const AppOutcome& o : outcomes) {
    const std::string slug = kernels::app_slug(o.app);
    failures += bench::shape_check(
        o.front.size() >= 3,
        slug + ": Pareto front has >= 3 mutually non-dominated points");
    const bool distinct_corners =
        config::feature_vector(o.min_cycles.config) !=
        config::feature_vector(o.min_energy.config);
    failures += bench::shape_check(
        distinct_corners,
        slug + ": the min-cycles design and the min-energy design differ "
               "(the front is a real trade-off, not a single optimum)");
    failures += bench::shape_check(
        o.guided_hv >= 0.95 * o.random_hv,
        slug + ": guided HVI search matches or beats random sampling's "
               "hypervolume at an equal budget");
    bool monotone = !o.journal_hv.empty();
    for (std::size_t i = 1; i < o.journal_hv.size(); ++i) {
      monotone = monotone &&
                 o.journal_hv[i] >= o.journal_hv[i - 1] * (1.0 - 1e-9);
    }
    failures += bench::shape_check(
        monotone && (o.journal_hv.empty() || o.journal_hv.back() > 0.0),
        slug + ": journal hypervolume grows monotonically over rounds");
  }

  // The knee itself: pooled over the app's guided+random evaluations, the
  // wide-VL corner (VL >= 1024) must win cycles yet lose energy AND area to
  // the narrow corner (VL <= 256) — the superlinear-datapath signature the
  // power model exists to expose.
  bool knee = true;
  for (const AppOutcome& o : outcomes) {
    const double wide_cycles = group_best(o, 0, true);
    const double narrow_cycles = group_best(o, 0, false);
    const double wide_energy = group_best(o, 1, true);
    const double narrow_energy = group_best(o, 1, false);
    const double wide_area = group_best(o, 2, true);
    const double narrow_area = group_best(o, 2, false);
    std::printf("[knee %s] cycles wide/narrow %.3g/%.3g, energy %.3g/%.3g J, "
                "area %.3g/%.3g mm2\n",
                kernels::app_slug(o.app).c_str(), wide_cycles, narrow_cycles,
                wide_energy, narrow_energy, wide_area, narrow_area);
    knee = knee && wide_cycles < narrow_cycles &&
           narrow_energy < wide_energy && narrow_area < wide_area;
  }
  std::printf("\n");
  failures += bench::shape_check(
      knee,
      "wide-VL designs (>= 1024b) win cycles but lose energy and area to "
      "narrow designs (<= 256b): the front bends at a knee");

  // JSON record for CI (artifact + python smoke).
  {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"10_pareto_fronts\",\n  \"budget\": " << budget
        << ",\n  \"seed\": " << campaign_seed() << ",\n  \"apps\": [\n";
    for (std::size_t a = 0; a < outcomes.size(); ++a) {
      const AppOutcome& o = outcomes[a];
      out << "    {\"app\": \"" << kernels::app_slug(o.app)
          << "\", \"evaluated\": " << o.guided.evaluated.size()
          << ", \"front_size\": " << o.front.size()
          << ", \"guided_hv\": " << o.guided_hv
          << ", \"random_hv\": " << o.random_hv
          << ", \"min_cycles_vl\": " << o.min_cycles.config.core.vector_length_bits
          << ", \"min_energy_vl\": " << o.min_energy.config.core.vector_length_bits
          << ", \"front_csv\": \"" << o.front_csv << "\",\n"
          << "     \"front\": [\n";
      for (std::size_t i = 0; i < o.front.size(); ++i) {
        const dse::EvaluatedConfig& e = o.guided.evaluated[o.front[i]];
        const auto p = e.ppa(o.app);
        out << "       {\"vl\": " << e.config.core.vector_length_bits
            << ", \"cycles\": " << p[0] << ", \"energy_j\": " << p[1]
            << ", \"area_mm2\": " << p[2] << "}"
            << (i + 1 < o.front.size() ? ",\n" : "\n");
      }
      out << "     ],\n     \"journal_hv\": [";
      for (std::size_t i = 0; i < o.journal_hv.size(); ++i) {
        out << o.journal_hv[i] << (i + 1 < o.journal_hv.size() ? ", " : "");
      }
      out << "]}" << (a + 1 < outcomes.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());

  bench::report_eval_stats();
  obs::Tracer::global().flush();
  return failures == 0 ? 0 : 1;
}
