/// \file main.cpp
/// perfbench: runs one benchmark workload and prints one JSON record (the
/// last stdout line) that perfbench/run.py turns into the benchmark result.
///
///   perfbench --workload campaign_cold|serve_warm|fused_campaign
///             --seed N --seconds S --scratch DIR
///             [--single-unit] [--layers] [--setup-only]
///             [--trace-file PATH]
///
/// The process works inside DIR (result stores, sockets, trace file), so
/// every run starts from empty state.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace perfbench;

/// CPU brand string from cpuid (no file reads), or "unknown".
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop trailing NULs
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

/// Clears every ADSE_* variable so no knob is inherited from the caller.
void clear_adse_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text = *entry;
    if (text.rfind("ADSE_", 0) == 0) names.push_back(text.substr(0, text.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

int usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string scratch, trace_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--scratch" && has_value) {
      scratch = argv[++i];
    } else if (arg == "--trace-file" && has_value) {
      trace_file = argv[++i];
    } else if (arg == "--single-unit") {
      options.single_unit = true;
    } else if (arg == "--layers") {
      options.layers = true;
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (scratch.empty() || !(options.seconds > 0.0)) {
    return usage("--scratch and a positive --seconds are required");
  }
  if (chdir(scratch.c_str()) != 0) return usage("cannot enter --scratch");
  clear_adse_environment();
  if (!trace_file.empty()) setenv("ADSE_TRACE_FILE", trace_file.c_str(), 1);

  Outcome outcome;
  try {
    if (options.workload == "campaign_cold") {
      outcome = run_campaign_cold(options);
    } else if (options.workload == "serve_warm") {
      outcome = run_serve_warm(options);
    } else if (options.workload == "fused_campaign") {
      outcome = run_fused_campaign(options);
    } else {
      return usage("unknown --workload");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }
  adse::obs::Tracer::global().flush();

  Json pinned;
  pinned.set("pool_threads", kWorkers)
      .set("daemon_workers", kWorkers)
      .set("client_threads", kClients)
      .set("batch_k", kBatchK)
      .set("fused_threshold", kFusedThreshold)
      .set("probe_every", kProbeEvery)
      .set("serve_batch", kServeBatch)
      .set("cold_configs", kColdConfigs)
      .set("warm_configs", kWarmConfigs)
      .set("fused_configs", kFusedConfigs)
      .set("single_unit", options.single_unit);
  Json fingerprint;
  fingerprint.set("cpu_model", cpu_model())
      .set("compiler", "gcc-compatible " __VERSION__)
      .set("build_type", PERFBENCH_BUILD_TYPE);
  Json record;
  record.set("workload", options.workload)
      .set("seed", static_cast<std::uint64_t>(options.seed))
      .set("correct", outcome.correct)
      .set("attempted", outcome.attempted)
      .set("failed", outcome.failed)
      .set("e2e", outcome.e2e)
      .set("layers", outcome.layers)
      .set("checks", outcome.checks)
      .set("info", outcome.info)
      .set("pinned", pinned)
      .set("fingerprint", fingerprint);
  std::printf("%s\n", record.str().c_str());
  return 0;
}
