/// \file check_tool.cpp
/// Driver for the adse::check verification harness.
///
///   ./examples/check_tool --fuzz 32 --seed 1            # fuzz, exit 1 on bugs
///   ./examples/check_tool --fuzz 512 --repro-dir repros # CI extended run
///   ./examples/check_tool --repro repros/repro-1-7.txt  # replay a finding
///   ./examples/check_tool --mc-fuzz 32 --seed 1         # coherence fuzzing
///   ./examples/check_tool --mc-fuzz 8 --mc-inject drop_inval_ack  # self-test
///   ./examples/check_tool --repro repros/mc-repro-1-3.txt         # replay
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
/// `--mc-fuzz N` runs the multicore coherence fuzzer instead: N random
/// (cores, directory scheme/size, VL, app, interleaving) points simulated on
/// the tiled MSI machine with every conservation law armed. `--mc-inject
/// BUG` plants a deliberate protocol defect (drop_inval_ack,
/// leak_sharer_bit, skip_downgrade) so the harness can prove it catches real
/// bugs; `--mc-max-cores` bounds the sampled tile count (default from
/// ADSE_CORES). Both fuzzers shrink their findings and write the same
/// `adse-check-repro v1` files; `--repro` replays either kind (`--mc-repro`
/// is the same flag).
///
/// Bad input — an unparsable number, an out-of-range option, an unreadable
/// or malformed repro — prints `check_tool: error: <message>` and exits 2.
///
/// The tool uses a hermetic evaluation service (no persistent result store):
/// a cached result would bypass the in-run structural checks and could mask
/// the very bugs the fuzzer exists to find.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/calibrate.hpp"
#include "check/fuzzer.hpp"
#include "check/repro.hpp"
#include "common/env.hpp"
#include "common/require.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "config/serialize.hpp"
#include "eval/service.hpp"

namespace {

using namespace adse;

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

int parse_count(const char* text) {
  const long long value = parse_int(text);
  ADSE_REQUIRE_MSG(value == static_cast<int>(value),
                   "'" << text << "' is out of range");
  return static_cast<int>(value);
}

/// Where a violation ran: its app, plus the whole machine for coherence.
std::string describe(const check::Violation& v) {
  if (v.kind != check::Violation::Kind::kCoherence) {
    return "app " + kernels::app_slug(v.app);
  }
  const check::McPoint& p = v.point;
  std::ostringstream os;
  os << "app " << kernels::mc_app_slug(p.app) << " cores " << p.num_cores
     << " scheme " << config::directory_scheme_name(p.directory_scheme)
     << " entries " << p.directory_entries << " vl " << p.vector_length_bits
     << " interleave_seed " << p.interleave_seed << " inject "
     << coherence::injected_bug_name(v.inject);
  return os.str();
}

int run(int argc, char** argv) {
  check::FuzzOptions options;
  options.max_cores = static_cast<int>(mc_cores());
  bool coherence_fuzz = false;
  std::string repro_file;
  eval::ServiceConfig eval_options;  // hermetic: in-memory memo only
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
    if (arg == "--fuzz" || arg == "--mc-fuzz") {
      coherence_fuzz = arg == "--mc-fuzz";
      options.iterations = parse_count(next());
    } else if (arg == "--seed") {
      options.seed = parse_u64(next());
    } else if (arg == "--chains") {
      options.chain_points = parse_count(next());
    } else if (arg == "--threads") {
      eval_options.threads = parse_count(next());
    } else if (arg == "--repro-dir") {
      options.repro_dir = next();
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--repro" || arg == "--mc-repro") {
      repro_file = next();
    } else if (arg == "--mc-inject") {
      options.inject = coherence::injected_bug_from_name(next());
    } else if (arg == "--mc-max-cores") {
      options.max_cores = parse_count(next());
    } else if (arg == "--calibrate") {
      calibrate = true;
    } else if (arg == "--configs") {
      calibration.num_configs = parse_count(next());
    } else if (arg == "--sweeps") {
      calibration.sweeps = parse_count(next());
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

  eval::EvalService service(eval_options);

  if (!repro_file.empty()) {
    const check::Violation violation = check::load_repro(repro_file);
    std::printf("replaying %s (%s, %s, seed %llu, iteration %llu)\n",
                repro_file.c_str(), check::kind_name(violation.kind),
                describe(violation).c_str(),
                static_cast<unsigned long long>(violation.seed),
                static_cast<unsigned long long>(violation.iteration));
    if (options.verbose &&
        violation.kind != check::Violation::Kind::kCoherence) {
      std::printf("%s\n", config::to_yaml(violation.config).c_str());
    }
    const bool fires = check::reproduces(service, violation);
    std::printf("%s: %s\n", repro_file.c_str(),
                fires ? "STILL REPRODUCES" : "does not reproduce (fixed)");
    return fires ? 1 : 0;
  }

  Stopwatch watch;
  const check::FuzzReport report = coherence_fuzz
                                       ? check::mc_fuzz(options)
                                       : check::fuzz(service, options);
  const double seconds = watch.millis() / 1000.0;
  std::printf("check_tool: %s%s in %.1f s (seed %llu, ",
              coherence_fuzz ? "mc-fuzz: " : "", report.summary().c_str(),
              seconds, static_cast<unsigned long long>(options.seed));
  if (coherence_fuzz) {
    std::printf("max %d cores, inject %s)\n", options.max_cores,
                coherence::injected_bug_name(options.inject).c_str());
  } else {
    std::printf("%zu threads)\n", service.threads());
  }
  for (const check::Violation& v : report.violations) {
    std::printf("  [%s] iteration %llu %s: %s\n", check::kind_name(v.kind),
                static_cast<unsigned long long>(v.iteration),
                describe(v).c_str(), v.message.c_str());
    if (!v.repro_path.empty()) {
      std::printf("        repro: %s\n", v.repro_path.c_str());
    }
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const adse::InvariantError& e) {
    std::fprintf(stderr, "check_tool: error: %s\n", e.what());
    return 2;
  }
}
