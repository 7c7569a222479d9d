/// \file check_tool.cpp
/// Driver for the adse::check verification harness.
///
///   ./examples/check_tool --fuzz 32 --seed 1            # fuzz, exit 1 on bugs
///   ./examples/check_tool --fuzz 512 --repro-dir repros # CI extended run
///   ./examples/check_tool --repro repros/repro-1-7.txt  # replay a finding
///   ./examples/check_tool --mc-fuzz 32 --seed 1         # coherence fuzzing
///   ./examples/check_tool --mc-fuzz 8 --mc-inject drop_inval_ack  # self-test
///   ./examples/check_tool --mc-repro repros/mc-repro-1-3.txt      # replay
///   ./examples/check_tool --calibrate                   # fit proxy constants
///
/// Exit codes: 0 = clean (or a replayed repro no longer fires), 1 = at least
/// one violation (or a replayed repro still fires), 77 = skipped because the
/// gating environment variable (--skip-unless-env) is unset — the ctest
/// SKIP_RETURN_CODE convention.
///
/// `--calibrate` runs the DiffTune-style constant fit (analysis/calibrate):
/// coordinate descent of the hardware proxy's latency/bandwidth constants
/// against black-box cycle observations, reporting fitted vs reference
/// values and the residual divergence. `--configs N`, `--sweeps N`, `--seed`
/// shape the fit; `--out FILE` also writes the report to a file.
///
/// `--mc-fuzz N` runs the multicore coherence fuzzer: N random (cores,
/// directory scheme/size, VL, app, interleaving) points simulated on the
/// tiled MSI machine with every conservation law armed. `--mc-inject BUG`
/// plants a deliberate protocol defect (drop_inval_ack, leak_sharer_bit,
/// skip_downgrade) so the harness can prove it catches real bugs; findings
/// are ddmin-shrunk and written as adse-mc-repro v1 files that `--mc-repro`
/// replays. `--mc-max-cores` bounds the sampled tile count (default from
/// ADSE_CORES).
///
/// The tool uses a hermetic evaluation service (no persistent result store):
/// a cached result would bypass the in-run structural checks and could mask
/// the very bugs the fuzzer exists to find.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/calibrate.hpp"
#include "check/fuzzer.hpp"
#include "check/mc_fuzzer.hpp"
#include "check/repro.hpp"
#include "common/stopwatch.hpp"
#include "config/serialize.hpp"
#include "eval/service.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--fuzz N] [--seed S] [--chains L] [--threads T]\n"
      "          [--repro-dir DIR] [--no-shrink] [--verbose]\n"
      "          [--repro FILE] [--skip-unless-env VAR]\n"
      "          [--mc-fuzz N] [--mc-inject BUG] [--mc-max-cores C]\n"
      "          [--mc-repro FILE]\n"
      "          [--calibrate] [--configs N] [--sweeps N] [--out FILE]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adse;

  check::FuzzOptions options;
  check::McFuzzOptions mc_options = check::McFuzzOptions::from_env();
  bool mc_fuzz = false;
  std::string repro_file;
  std::string mc_repro_file;
  int threads = 0;
  bool verbose = false;
  bool calibrate = false;
  analysis::CalibrationOptions calibration;
  std::string calibration_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--fuzz") {
      options.iterations = std::atoi(next());
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--chains") {
      options.chain_points = std::atoi(next());
    } else if (arg == "--threads") {
      threads = std::atoi(next());
    } else if (arg == "--repro-dir") {
      options.repro_dir = next();
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--repro") {
      repro_file = next();
    } else if (arg == "--mc-fuzz") {
      mc_fuzz = true;
      mc_options.iterations = std::atoi(next());
    } else if (arg == "--mc-inject") {
      mc_options.inject = coherence::injected_bug_from_name(next());
    } else if (arg == "--mc-max-cores") {
      mc_options.max_cores = std::atoi(next());
    } else if (arg == "--mc-repro") {
      mc_repro_file = next();
    } else if (arg == "--calibrate") {
      calibrate = true;
    } else if (arg == "--configs") {
      calibration.num_configs = std::atoi(next());
    } else if (arg == "--sweeps") {
      calibration.sweeps = std::atoi(next());
    } else if (arg == "--out") {
      calibration_out = next();
    } else if (arg == "--skip-unless-env") {
      const char* gate = std::getenv(next());
      if (gate == nullptr || gate[0] == '\0') {
        std::printf("skipped (gating environment variable unset)\n");
        return 77;
      }
    } else {
      return usage(argv[0]);
    }
  }
  options.verbose = verbose;
  mc_options.seed = options.seed;
  mc_options.shrink = options.shrink;
  mc_options.repro_dir = options.repro_dir;
  mc_options.verbose = verbose;

  if (!mc_repro_file.empty()) {
    const check::McViolation violation = check::load_mc_repro(mc_repro_file);
    std::printf("replaying %s (app %s, %d cores, %s directory, seed %llu, "
                "iteration %llu, inject %s)\n",
                mc_repro_file.c_str(),
                kernels::mc_app_slug(violation.point.app).c_str(),
                violation.point.num_cores,
                config::directory_scheme_name(violation.point.directory_scheme)
                    .c_str(),
                static_cast<unsigned long long>(violation.seed),
                static_cast<unsigned long long>(violation.iteration),
                coherence::injected_bug_name(violation.inject).c_str());
    const bool fires = check::mc_reproduces(violation);
    std::printf("%s: %s\n", mc_repro_file.c_str(),
                fires ? "STILL REPRODUCES" : "does not reproduce (fixed)");
    return fires ? 1 : 0;
  }

  if (mc_fuzz) {
    Stopwatch mc_watch;
    const check::McFuzzReport report = check::mc_fuzz(mc_options);
    const double seconds = mc_watch.millis() / 1000.0;
    std::printf("check_tool: %s in %.1f s (seed %llu, max %d cores, "
                "inject %s)\n",
                report.summary().c_str(), seconds,
                static_cast<unsigned long long>(mc_options.seed),
                mc_options.max_cores,
                coherence::injected_bug_name(mc_options.inject).c_str());
    for (const check::McViolation& v : report.violations) {
      std::printf("  iteration %llu app %s cores %d scheme %s entries %d: %s\n",
                  static_cast<unsigned long long>(v.iteration),
                  kernels::mc_app_slug(v.point.app).c_str(), v.point.num_cores,
                  config::directory_scheme_name(v.point.directory_scheme)
                      .c_str(),
                  v.point.directory_entries, v.message.c_str());
      if (!v.repro_path.empty()) {
        std::printf("        repro: %s\n", v.repro_path.c_str());
      }
    }
    return report.ok() ? 0 : 1;
  }

  if (calibrate) {
    calibration.seed = options.seed;
    Stopwatch watch;
    const analysis::CalibrationReport report = analysis::calibrate(calibration);
    const double seconds = watch.millis() / 1000.0;
    std::printf("== proxy-constant calibration (%d configs, %d sweeps, "
                "seed %llu) ==\n\n%s",
                calibration.num_configs, calibration.sweeps,
                static_cast<unsigned long long>(calibration.seed),
                report.render().c_str());
    std::printf("fit took %.1f s\n", seconds);
    if (!calibration_out.empty()) {
      std::ofstream out(calibration_out);
      out << report.render();
      std::printf("wrote %s\n", calibration_out.c_str());
    }
    return 0;
  }

  // Hermetic service: in-memory memo only (see file comment).
  eval::ServiceConfig eval_options;
  eval_options.threads = threads;
  eval::EvalService service(eval_options);

  if (!repro_file.empty()) {
    const check::Violation violation = check::load_repro(repro_file);
    std::printf("replaying %s (%s, app %s, seed %llu, iteration %llu)\n",
                repro_file.c_str(),
                violation.kind == check::Violation::Kind::kInvariant
                    ? "invariant"
                    : "monotonicity",
                kernels::app_slug(violation.app).c_str(),
                static_cast<unsigned long long>(violation.seed),
                static_cast<unsigned long long>(violation.iteration));
    if (verbose) {
      std::printf("%s\n", config::to_yaml(violation.config).c_str());
    }
    const bool fires = check::reproduces(service, violation);
    std::printf("%s: %s\n", repro_file.c_str(),
                fires ? "STILL REPRODUCES" : "does not reproduce (fixed)");
    return fires ? 1 : 0;
  }

  Stopwatch watch;
  const check::FuzzReport report = check::fuzz(service, options);
  const double seconds = watch.millis() / 1000.0;
  std::printf("check_tool: %s in %.1f s on %zu threads (seed %llu)\n",
              report.summary().c_str(), seconds, service.threads(),
              static_cast<unsigned long long>(options.seed));
  for (const check::Violation& v : report.violations) {
    std::printf("  [%s] iteration %llu app %s: %s\n",
                v.kind == check::Violation::Kind::kInvariant ? "invariant"
                                                             : "monotonicity",
                static_cast<unsigned long long>(v.iteration),
                kernels::app_slug(v.app).c_str(), v.message.c_str());
    if (!v.repro_path.empty()) {
      std::printf("        repro: %s\n", v.repro_path.c_str());
    }
  }
  return report.ok() ? 0 : 1;
}
