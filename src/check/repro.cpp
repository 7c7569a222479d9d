#include "check/repro.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "check/check.hpp"
#include "common/check.hpp"
#include "common/require.hpp"
#include "config/baselines.hpp"

namespace adse::check {

namespace {

using config::CpuConfig;
using config::kNumParams;

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

kernels::App app_from_slug(const std::string& slug) {
  for (kernels::App app : kernels::all_apps()) {
    if (kernels::app_slug(app) == slug) return app;
  }
  throw InvariantError("unknown app slug '" + slug + "' in repro");
}

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ';';
  }
  return s;
}

/// Evaluates a (config, app) pair and reports whether it violates any model
/// invariant or oracle property. Core/memory structural checks fire inside
/// the run (surfaced as EvalStatus::kBackendError); oracle bounds are
/// checked here against the returned stats.
bool run_violates(eval::EvalService& service, const CpuConfig& config,
                  kernels::App app) {
  const eval::EvalRequest request{config, app};
  const eval::EvalResponse checked = service.evaluate({&request, 1}).front();
  if (!checked.ok()) return true;
  const isa::Program& trace =
      service.trace(app, config.core.vector_length_bits);
  return !verify_run(config, trace, checked.run).empty();
}

}  // namespace

double param_value(const CpuConfig& config, config::ParamId id) {
  return config::feature_vector(config)[static_cast<std::size_t>(id)];
}

CpuConfig with_param(const CpuConfig& config, config::ParamId id,
                     double value) {
  auto features = config::feature_vector(config);
  features[static_cast<std::size_t>(id)] = value;
  CpuConfig out = config::config_from_features(features);
  out.name = config.name;
  return out;
}

std::vector<config::ParamId> diff_params(const CpuConfig& config,
                                         const CpuConfig& reference) {
  const auto a = config::feature_vector(config);
  const auto b = config::feature_vector(reference);
  std::vector<config::ParamId> out;
  for (std::size_t i = 0; i < kNumParams; ++i) {
    if (a[i] != b[i]) out.push_back(static_cast<config::ParamId>(i));
  }
  return out;
}

bool reproduces(eval::EvalService& service, const Violation& violation) {
  // The structural checks inside core/mem only fire while the check flag is
  // on; force it so a repro replay is self-contained.
  const ScopedCheck scoped(true);
  if (violation.kind == Violation::Kind::kInvariant) {
    return run_violates(service, violation.config, violation.app);
  }
  ADSE_REQUIRE_MSG(violation.chain_param.has_value(),
                   "monotonicity violation without a chain parameter");
  const CpuConfig lo =
      with_param(violation.config, *violation.chain_param, violation.chain_lo);
  const CpuConfig hi =
      with_param(violation.config, *violation.chain_param, violation.chain_hi);
  const eval::EvalRequest lo_request{lo, violation.app};
  const eval::EvalRequest hi_request{hi, violation.app};
  const auto lo_run = service.evaluate({&lo_request, 1}).front();
  const auto hi_run = service.evaluate({&hi_request, 1}).front();
  // A pair that now trips an invariant is still a live finding.
  if (!lo_run.ok() || !hi_run.ok()) return true;
  return hi_run.cycles() > monotone_allowed_cycles(lo_run.cycles());
}

std::size_t shrink_violation(
    const std::function<bool(const Violation&)>& fires, Violation& violation,
    const CpuConfig& target) {
  auto current = config::feature_vector(violation.config);
  const auto goal = config::feature_vector(target);
  const std::string name = violation.config.name;
  // Param-at-a-time ddmin: keep resetting single parameters to the target's
  // value while the violation still fires, until a whole pass changes
  // nothing. Deterministic (fixed ParamId order) so a given failure always
  // shrinks to the same minimal repro.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < kNumParams; ++i) {
      if (current[i] == goal[i]) continue;
      if (violation.chain_param.has_value() &&
          static_cast<std::size_t>(*violation.chain_param) == i) {
        continue;  // the chain parameter IS the finding; never reset it
      }
      auto trial = current;
      trial[i] = goal[i];
      CpuConfig candidate = config::config_from_features(trial);
      if (!config::is_valid(candidate)) continue;
      candidate.name = name;
      Violation probe = violation;
      probe.config = candidate;
      if (fires(probe)) {
        current = trial;
        changed = true;
      }
    }
  }
  violation.config = config::config_from_features(current);
  violation.config.name = name;
  return diff_params(violation.config, target).size();
}

std::size_t shrink_violation(eval::EvalService& service, Violation& violation,
                             const CpuConfig& target) {
  return shrink_violation(
      [&service](const Violation& probe) { return reproduces(service, probe); },
      violation, target);
}

std::string repro_to_string(const Violation& violation) {
  std::ostringstream os;
  os << "adse-check-repro v1\n";
  os << "kind: "
     << (violation.kind == Violation::Kind::kInvariant ? "invariant"
                                                       : "monotonicity")
     << "\n";
  os << "app: " << kernels::app_slug(violation.app) << "\n";
  os << "seed: " << violation.seed << "\n";
  os << "iteration: " << violation.iteration << "\n";
  os << "message: " << one_line(violation.message) << "\n";
  if (violation.kind == Violation::Kind::kMonotonicity) {
    ADSE_REQUIRE(violation.chain_param.has_value());
    os << "chain: " << config::param_name(*violation.chain_param) << " "
       << format_value(violation.chain_lo) << " "
       << format_value(violation.chain_hi) << "\n";
    os << "cycles: " << violation.cycles_lo << " " << violation.cycles_hi
       << "\n";
  }
  // The configuration is stored as its diff against the ThunderX2 baseline —
  // the same canonical target the shrinker reduces toward, so a minimal
  // repro is a minimal file.
  const CpuConfig baseline = config::thunderx2_baseline();
  const auto features = config::feature_vector(violation.config);
  for (config::ParamId id : diff_params(violation.config, baseline)) {
    os << "set: " << config::param_name(id) << " "
       << format_value(features[static_cast<std::size_t>(id)]) << "\n";
  }
  os << "end\n";
  return os.str();
}

Violation repro_from_string(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  ADSE_REQUIRE_MSG(std::getline(is, line) && line == "adse-check-repro v1",
                   "not an adse-check repro file");
  Violation violation;
  auto features = config::feature_vector(config::thunderx2_baseline());
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "end") break;
    const std::size_t colon = line.find(": ");
    ADSE_REQUIRE_MSG(colon != std::string::npos,
                     "malformed repro line '" << line << "'");
    const std::string key = line.substr(0, colon);
    const std::string value = line.substr(colon + 2);
    std::istringstream vs(value);
    if (key == "kind") {
      ADSE_REQUIRE_MSG(value == "invariant" || value == "monotonicity",
                       "unknown repro kind '" << value << "'");
      violation.kind = value == "invariant" ? Violation::Kind::kInvariant
                                            : Violation::Kind::kMonotonicity;
    } else if (key == "app") {
      violation.app = app_from_slug(value);
    } else if (key == "seed") {
      vs >> violation.seed;
    } else if (key == "iteration") {
      vs >> violation.iteration;
    } else if (key == "message") {
      violation.message = value;
    } else if (key == "chain") {
      std::string name;
      vs >> name >> violation.chain_lo >> violation.chain_hi;
      violation.chain_param = config::param_from_name(name);
    } else if (key == "cycles") {
      vs >> violation.cycles_lo >> violation.cycles_hi;
    } else if (key == "set") {
      std::string name;
      double v = 0.0;
      vs >> name >> v;
      features[static_cast<std::size_t>(config::param_from_name(name))] = v;
    } else {
      throw InvariantError("unknown repro key '" + key + "'");
    }
    ADSE_REQUIRE_MSG(!vs.fail(), "malformed repro value in '" << line << "'");
  }
  violation.config = config::config_from_features(features);
  violation.config.name =
      "repro-" + std::to_string(violation.seed) + "-" +
      std::to_string(violation.iteration);
  ADSE_REQUIRE_MSG(config::is_valid(violation.config),
                   "repro configuration fails validate()");
  ADSE_REQUIRE_MSG(violation.kind == Violation::Kind::kInvariant ||
                       violation.chain_param.has_value(),
                   "monotonicity repro without a chain line");
  return violation;
}

void save_repro(const std::string& dir, Violation& violation) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/repro-" + std::to_string(violation.seed) +
                           "-" + std::to_string(violation.iteration) + ".txt";
  std::ofstream out(path);
  ADSE_REQUIRE_MSG(out.good(), "cannot write repro file " << path);
  out << repro_to_string(violation);
  out.close();
  ADSE_REQUIRE_MSG(out.good(), "short write to repro file " << path);
  violation.repro_path = path;
}

Violation load_repro(const std::string& path) {
  std::ifstream in(path);
  ADSE_REQUIRE_MSG(in.good(), "cannot read repro file " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return repro_from_string(buffer.str());
}

}  // namespace adse::check
