#include "check/repro.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "check/fuzzer.hpp"
#include "common/check.hpp"
#include "common/require.hpp"
#include "config/baselines.hpp"

namespace adse::check {

namespace {

using config::CpuConfig;
using config::kNumParams;

constexpr std::array<const char*, 3> kKindNames = {"invariant",
                                                   "monotonicity", "coherence"};

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

/// The configuration a violation runs: its single-core design point, or the
/// tiled machine its coherence point describes.
CpuConfig run_config(const Violation& violation) {
  return violation.kind == Violation::Kind::kCoherence
             ? mc_point_config(violation.point)
             : violation.config;
}

/// Moves a violation one step toward its shrink target along one dimension;
/// false when the step changes nothing.
using Reset = std::function<bool(Violation&)>;

/// Coordinate ddmin: keep applying single-dimension resets while the
/// violation still fires, until a whole pass changes nothing. Deterministic
/// (fixed dimension order) so a given failure always shrinks to the same
/// minimal repro.
void coordinate_ddmin(const std::vector<Reset>& resets, const Fires& fires,
                      Violation& violation) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Reset& reset : resets) {
      Violation probe = violation;
      if (!reset(probe) || !config::is_valid(run_config(probe)) ||
          !fires(probe)) {
        continue;
      }
      violation = std::move(probe);
      changed = true;
    }
  }
}

/// Resets `fields` of the violation's point to `target`'s values.
template <typename... Field>
Reset point_reset(const McPoint& target, Field McPoint::*... fields) {
  return [target, fields...](Violation& v) {
    const McPoint before = v.point;
    ((v.point.*fields = target.*fields), ...);
    return !(v.point == before);
  };
}

}  // namespace

config::CpuConfig mc_point_config(const McPoint& point) {
  CpuConfig cfg = config::thunderx2_baseline();
  cfg.core.vector_length_bits = point.vector_length_bits;
  // The ThunderX2 pipes are sized for 128-bit vectors; a functional design
  // must move a full vector per request (§V-A validation), so widen them to
  // the sampled VL. Both are powers of two, so the result stays one.
  const int vl_bytes = point.vector_length_bits / 8;
  cfg.core.load_bandwidth_bytes = std::max(cfg.core.load_bandwidth_bytes,
                                           vl_bytes);
  cfg.core.store_bandwidth_bytes = std::max(cfg.core.store_bandwidth_bytes,
                                            vl_bytes);
  cfg.mc.num_cores = point.num_cores;
  cfg.mc.directory_scheme = point.directory_scheme;
  cfg.mc.directory_entries = point.directory_entries;
  cfg.name = "mc-fuzz";
  return cfg;
}

const char* kind_name(Violation::Kind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

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
  if (violation.kind == Violation::Kind::kCoherence) {
    return !mc_run_point(violation.point, violation.inject).empty();
  }
  // The structural checks inside core/mem only fire while the check flag is
  // on; force it so a repro replay is self-contained.
  const ScopedCheck scoped(true);
  if (violation.kind == Violation::Kind::kInvariant) {
    return !check_point(service, violation.config, violation.app, nullptr)
                .empty();
  }
  ADSE_REQUIRE_MSG(violation.chain_param.has_value(),
                   "monotonicity violation without a chain parameter");
  const CpuConfig lo =
      with_param(violation.config, *violation.chain_param, violation.chain_lo);
  const CpuConfig hi =
      with_param(violation.config, *violation.chain_param, violation.chain_hi);
  const eval::EvalRequest pair[] = {{lo, violation.app}, {hi, violation.app}};
  const auto runs = service.evaluate(pair);
  // A pair that now trips an invariant is still a live finding.
  if (!runs[0].ok() || !runs[1].ok()) return true;
  return runs[1].cycles() > monotone_allowed_cycles(runs[0].cycles());
}

std::size_t shrink_violation(const Fires& fires, Violation& violation,
                             const CpuConfig& target) {
  const auto goal = config::feature_vector(target);
  std::vector<Reset> resets;
  for (std::size_t i = 0; i < kNumParams; ++i) {
    const auto id = static_cast<config::ParamId>(i);
    // The chain parameter IS the finding; it gets no dimension.
    if (violation.chain_param == id) continue;
    resets.push_back([id, value = goal[i]](Violation& v) {
      if (param_value(v.config, id) == value) return false;
      v.config = with_param(v.config, id, value);
      return true;
    });
  }
  coordinate_ddmin(resets, fires, violation);
  return diff_params(violation.config, target).size();
}

std::size_t shrink_violation(const Fires& fires, Violation& violation) {
  if (violation.kind != Violation::Kind::kCoherence) {
    return shrink_violation(fires, violation, config::thunderx2_baseline());
  }
  // One dimension per McPoint field, in declaration order, toward the
  // default point (2 cores, full map, auto entries, VL 128, ring, no skew).
  const McPoint target;
  constexpr auto kFields = std::make_tuple(
      &McPoint::num_cores, &McPoint::directory_scheme,
      &McPoint::directory_entries, &McPoint::vector_length_bits, &McPoint::app,
      &McPoint::interleave_seed);
  std::vector<Reset> resets;
  std::apply(
      [&](auto... field) {
        (resets.push_back(point_reset(target, field)), ...);
      },
      kFields);
  // The scheme's reset takes the entry budget along, so a full-map point
  // never keeps a sparse directory size.
  resets[1] = point_reset(target, &McPoint::directory_scheme,
                          &McPoint::directory_entries);
  coordinate_ddmin(resets, fires, violation);
  std::size_t differing = 0;
  std::apply(
      [&](auto... field) {
        ((differing += violation.point.*field != target.*field), ...);
      },
      kFields);
  return differing;
}



std::string repro_to_string(const Violation& violation) {
  const bool coherence = violation.kind == Violation::Kind::kCoherence;
  std::ostringstream os;
  os << "adse-check-repro v1\n";
  os << "kind: " << kind_name(violation.kind) << "\n";
  os << "app: "
     << (coherence ? kernels::mc_app_slug(violation.point.app)
                   : kernels::app_slug(violation.app))
     << "\n";
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
  if (coherence) {
    const McPoint& p = violation.point;
    os << "cores: " << p.num_cores << "\n";
    os << "scheme: " << config::directory_scheme_name(p.directory_scheme)
       << "\n";
    os << "entries: " << p.directory_entries << "\n";
    os << "vl: " << p.vector_length_bits << "\n";
    os << "interleave_seed: " << p.interleave_seed << "\n";
    os << "inject: " << coherence::injected_bug_name(violation.inject) << "\n";
  } else {
    // The configuration is stored as its diff against the ThunderX2
    // baseline — the same canonical target the shrinker reduces toward, so
    // a minimal repro is a minimal file.
    const CpuConfig baseline = config::thunderx2_baseline();
    const auto features = config::feature_vector(violation.config);
    for (config::ParamId id : diff_params(violation.config, baseline)) {
      os << "set: " << config::param_name(id) << " "
         << format_value(features[static_cast<std::size_t>(id)]) << "\n";
    }
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
  McPoint& point = violation.point;
  std::string app;
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
      const auto* it = std::find(kKindNames.begin(), kKindNames.end(), value);
      ADSE_REQUIRE_MSG(it != kKindNames.end(),
                       "unknown repro kind '" << value << "'");
      violation.kind =
          static_cast<Violation::Kind>(std::distance(kKindNames.begin(), it));
    } else if (key == "app") {
      app = value;  // resolved below: the kind decides which app family
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
    } else if (key == "cores") {
      vs >> point.num_cores;
    } else if (key == "scheme") {
      point.directory_scheme = config::directory_scheme_from_name(value);
    } else if (key == "entries") {
      vs >> point.directory_entries;
    } else if (key == "vl") {
      vs >> point.vector_length_bits;
    } else if (key == "interleave_seed") {
      vs >> point.interleave_seed;
    } else if (key == "inject") {
      violation.inject = coherence::injected_bug_from_name(value);
    } else {
      throw InvariantError("unknown repro key '" + key + "'");
    }
    ADSE_REQUIRE_MSG(!vs.fail(), "malformed repro value in '" << line << "'");
  }
  if (!app.empty()) {
    if (violation.kind == Violation::Kind::kCoherence) {
      point.app = kernels::mc_app_from_slug(app);
    } else {
      violation.app = app_from_slug(app);
    }
  }
  violation.config = config::config_from_features(features);
  violation.config.name =
      "repro-" + std::to_string(violation.seed) + "-" +
      std::to_string(violation.iteration);
  config::validate(run_config(violation));  // names the first bad field
  ADSE_REQUIRE_MSG(violation.kind != Violation::Kind::kMonotonicity ||
                       violation.chain_param.has_value(),
                   "monotonicity repro without a chain line");
  return violation;
}

void save_repro(const std::string& dir, Violation& violation) {
  std::filesystem::create_directories(dir);
  const char* prefix = violation.kind == Violation::Kind::kCoherence
                           ? "/mc-repro-"
                           : "/repro-";
  const std::string path = dir + prefix + std::to_string(violation.seed) +
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
