#pragma once
/// \file env.hpp
/// Environment-variable knobs that scale the reproduction campaign. The
/// paper ran 180,006 simulations on 640 ThunderX2 cores; a laptop run scales
/// the campaign down with these knobs without touching code.

#include <cstdint>
#include <string>

namespace adse {

/// Reads an environment variable, or returns `fallback` if unset/empty.
std::string env_string(const char* name, const std::string& fallback);

/// Reads an integer environment variable; throws on malformed values.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Reads a floating-point environment variable; throws on malformed values.
double env_double(const char* name, double fallback);

/// Directory where campaign datasets are cached (ADSE_CACHE_DIR,
/// default "./adse_cache"). Created on demand by the campaign runner.
std::string cache_dir();

/// Number of configurations in the main campaign per application
/// (ADSE_CONFIGS, default 1500).
std::int64_t main_campaign_configs();

/// Number of configurations in each VL-constrained campaign
/// (ADSE_CONFIGS_CONSTRAINED, default 500).
std::int64_t constrained_campaign_configs();

/// Worker threads for any parallel evaluation (ADSE_THREADS, default:
/// hardware concurrency). Read once by `eval::EvalService::shared()` — entry
/// points inherit it through the service rather than re-reading it.
std::int64_t num_threads();

/// Global campaign seed (ADSE_SEED, default 42).
std::uint64_t campaign_seed();

/// Batch width for config-parallel simulation (ADSE_BATCH_K, default 8).
/// Values <= 1 disable batched dispatch (every request runs scalar). Read
/// once by `eval::EvalService` construction — the service chunks same-
/// (app, VL) requests into batches of at most this many lanes.
std::int64_t batch_k();

/// Uncertainty gate for fused-surrogate routing (ADSE_FUSED_THRESHOLD,
/// default 1.0): a candidate whose residual-forest predictive spread (std
/// of log-residual across the ensemble) is below this is answered by the
/// fused surrogate; the rest run on the real simulator. Typical spreads sit
/// at 0.3–1.0 for online-sized training sets, so the default routes
/// aggressively and relies on the probe batches to price the error; lower
/// it for accuracy-critical campaigns. 0 disables routing entirely — every
/// request takes the all-sim path, bit-identically. Read once by
/// `eval::fused_options_from_env()`.
double fused_threshold();

/// Audit cadence for surrogate-routed evaluations (ADSE_FUSED_PROBE_EVERY,
/// default 64): every Nth candidate the gate would hand to the surrogate is
/// simulated for real instead — the pair (prediction, truth) lands in the
/// routing-error histogram and the observation feeds the next residual
/// refit. 0 disables probing. Read once by `eval::fused_options_from_env()`.
std::int64_t fused_probe_every();

/// Minimum log level for the obs leveled logger (ADSE_LOG_LEVEL: trace,
/// debug, info, warn, error, off; default "info"). Parsed and cached once
/// by `obs::log_level()` — nothing else should getenv it.
std::string log_level_name();

/// Output path for the Chrome-tracing span export (ADSE_TRACE_FILE; unset
/// or empty disables tracing). Read once by `obs::Tracer::global()` —
/// nothing else should getenv it.
std::string trace_file();

/// Default state of the simulator invariant layer (ADSE_CHECK, default 0 =
/// off). Read once by `CheckContext::enabled()` — nothing else should
/// getenv it; use CheckContext / ScopedCheck to toggle at runtime.
bool check_enabled_default();

/// Unix-socket path of the eval daemon (ADSE_SERVE_SOCKET, default
/// "<cache_dir>/eval.sock"). Read by `serve::DaemonOptions::from_env()` and
/// `serve::ClientOptions::from_env()` — a daemon and its clients agree on
/// the rendezvous by sharing the environment.
std::string serve_socket_path();

/// Worker threads of the eval daemon (ADSE_SERVE_WORKERS, default 0 =
/// inherit ADSE_THREADS). Requests are sharded across workers by config
/// hash, so the same design point always lands on the same worker.
std::int64_t serve_workers();

/// Largest tile count the multicore harness exercises (ADSE_CORES, default
/// 8; power of two in [2,16]). The coherence fuzzer samples tile counts up
/// to this and bench/96 sweeps {1,2,...,ADSE_CORES}. Read once by
/// `check_tool` (into `check::FuzzOptions::max_cores`) and the bench.
std::int64_t mc_cores();

}  // namespace adse
