/// \file 99_serve.cpp
/// Eval-as-a-service gate for the `adse::serve` daemon (DESIGN.md §15). The
/// paper's campaign ran evaluation as a shared remote service on 640 cluster
/// cores; this bench stands the daemon up in-process, then hammers it over a
/// real unix-domain socket from many client threads and measures what the
/// serving layer itself costs:
///
///   1. cold blocking latency  — one client, one request at a time, every
///      config fresh (each is a real simulation): p50/p99 ms
///   2. warm blocking latency  — the same configs again (memo hits): the
///      pure wire round-trip, p50/p99 µs
///   3. saturation throughput  — N client threads × pipelined batches of
///      mixed hit/miss requests (a fresh config is injected into each
///      thread's stream every kFreshEvery requests): requests/sec
///   4. cross-client coalescing — N brand-new clients ask for the SAME
///      fresh config concurrently; shard routing + the once-latch memo must
///      make that exactly one backend run
///   5. warm restart            — drain the daemon, start a second one on
///      the same result store, re-request the cold set: zero fresh sims
///
/// Results land in `BENCH_99.json` (p99s, throughput, coalescing counters,
/// restart counters) so CI can track the serving layer across commits.
///
/// Knobs: ADSE_BENCH99_REQUESTS (default 100000 across all clients),
///        ADSE_BENCH99_CLIENTS  (default 8 client threads),
///        ADSE_BENCH99_CONFIGS  (default 48 unique warm configs),
///        ADSE_BENCH99_BATCH    (default 256 requests per pipelined batch),
///        ADSE_BENCH99_JSON     (output path, default "BENCH_99.json"),
///        ADSE_SERVE_WORKERS / ADSE_THREADS, ADSE_SEED.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "config/param_space.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"

namespace {

using namespace adse;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

}  // namespace

int main() {
  const auto total_requests =
      static_cast<std::uint64_t>(env_int("ADSE_BENCH99_REQUESTS", 100000));
  const int num_clients =
      static_cast<int>(env_int("ADSE_BENCH99_CLIENTS", 8));
  const int num_configs =
      static_cast<int>(env_int("ADSE_BENCH99_CONFIGS", 48));
  const auto batch_size =
      static_cast<std::size_t>(env_int("ADSE_BENCH99_BATCH", 256));
  const std::string json_path =
      env_string("ADSE_BENCH99_JSON", "BENCH_99.json");
  const std::uint64_t seed = campaign_seed();

  std::printf("== Eval-as-a-service (bench 99) ==\n");
  std::printf(
      "%llu requests, %d client threads, %d warm configs, batch %zu\n\n",
      static_cast<unsigned long long>(total_requests), num_clients,
      num_configs, batch_size);

  // Hermetic socket + store: the warm-restart phase needs a store this run
  // owns from byte zero.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "adse_bench99";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::DaemonOptions daemon_options;
  daemon_options.socket_path = (dir / "eval.sock").string();
  daemon_options.service.store_path = (dir / "store.bin").string();

  serve::ClientOptions client_options;
  client_options.socket_path = daemon_options.socket_path;
  client_options.timeout_ms = 120000;

  auto daemon = std::make_unique<serve::Daemon>(daemon_options);
  daemon->start();
  const std::size_t workers = daemon->workers();
  std::printf("daemon up on %s (%zu workers)\n\n",
              daemon->socket_path().c_str(), workers);

  // The same deterministic config stream the campaign draws.
  const config::ParameterSpace space;
  std::vector<eval::EvalRequest> warm_set;
  for (int i = 0; i < num_configs; ++i) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i));
    config::CpuConfig cfg = space.sample(rng);
    cfg.name = "bench99-" + std::to_string(i);
    warm_set.push_back({cfg, kernels::App::kStream});
  }

  int failures = 0;

  // --- 1. cold blocking latency (every request a fresh simulation) --------
  std::vector<double> cold_ms;
  std::vector<std::uint64_t> cold_cycles;
  {
    serve::EvalClient client(client_options);
    for (const eval::EvalRequest& request : warm_set) {
      const std::vector<eval::EvalRequest> one = {request};
      Stopwatch watch;
      const eval::EvalResponse response = client.evaluate(one).front();
      cold_ms.push_back(watch.seconds() * 1e3);
      failures += response.ok() ? 0 : 1;
      cold_cycles.push_back(response.cycles());
    }
  }
  const double cold_p50 = percentile(cold_ms, 0.50);
  const double cold_p99 = percentile(cold_ms, 0.99);
  std::printf("cold (fresh sim) blocking latency: p50 %.2f ms, p99 %.2f ms\n",
              cold_p50, cold_p99);

  // --- 2. warm blocking latency (memo hits: the pure wire round-trip) -----
  std::vector<double> hit_us;
  bool warm_cycles_match = true;
  {
    serve::EvalClient client(client_options);
    for (std::size_t i = 0; i < warm_set.size(); ++i) {
      const std::vector<eval::EvalRequest> one = {warm_set[i]};
      Stopwatch watch;
      const eval::EvalResponse response = client.evaluate(one).front();
      hit_us.push_back(watch.seconds() * 1e6);
      failures += response.ok() ? 0 : 1;
      warm_cycles_match =
          warm_cycles_match && response.cycles() == cold_cycles[i];
    }
  }
  const double hit_p50 = percentile(hit_us, 0.50);
  const double hit_p99 = percentile(hit_us, 0.99);
  std::printf("warm (memo hit) blocking latency:  p50 %.1f us, p99 %.1f us\n",
              hit_p50, hit_p99);

  // --- 3. saturation throughput (pipelined, mixed hit/miss) ---------------
  // Every thread streams the warm set in a thread-offset order and injects
  // one brand-new config every kFreshEvery requests, so the daemon serves a
  // realistic memo-hit-dominated mix with fresh sims landing throughout.
  constexpr std::uint64_t kFreshEvery = 1024;
  const std::uint64_t per_client =
      total_requests / static_cast<std::uint64_t>(num_clients);
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> sat_ok(static_cast<std::size_t>(num_clients), 0);
  Stopwatch sat_watch;
  for (int c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c] {
      serve::EvalClient client(client_options);
      Rng rng(seed ^ (0xb5297a4d3f84d5b5ULL + static_cast<std::uint64_t>(c)));
      std::uint64_t sent = 0;
      std::uint64_t ok = 0;
      while (sent < per_client) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(batch_size, per_client - sent));
        std::vector<eval::EvalRequest> batch;
        batch.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t index = sent + i;
          if (index % kFreshEvery == kFreshEvery - 1) {
            config::CpuConfig cfg = space.sample(rng);
            cfg.name = "bench99-sat-" + std::to_string(c) + "-" +
                       std::to_string(index);
            batch.push_back({cfg, kernels::App::kStream});
          } else {
            batch.push_back(warm_set[(static_cast<std::size_t>(c) * 7 +
                                      static_cast<std::size_t>(index)) %
                                     warm_set.size()]);
          }
        }
        for (const eval::EvalResponse& r : client.evaluate(batch)) {
          ok += r.ok() ? 1 : 0;
        }
        sent += n;
      }
      sat_ok[static_cast<std::size_t>(c)] = ok;
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double sat_seconds = sat_watch.seconds();
  std::uint64_t sat_total_ok = 0;
  for (const std::uint64_t ok : sat_ok) sat_total_ok += ok;
  const std::uint64_t sat_total =
      per_client * static_cast<std::uint64_t>(num_clients);
  const double requests_per_sec =
      sat_seconds > 0.0 ? static_cast<double>(sat_total) / sat_seconds : 0.0;
  std::printf("saturation: %llu requests in %.2f s = %.0f req/s (%llu ok)\n",
              static_cast<unsigned long long>(sat_total), sat_seconds,
              requests_per_sec, static_cast<unsigned long long>(sat_total_ok));
  const double server_p99_us =
      daemon->service().metrics().histogram("serve.request_ns").quantile(
          0.99) /
      1e3;
  std::printf("server-side request p99 (all phases so far): %.1f us\n",
              server_p99_us);

  // --- 4. cross-client coalescing -----------------------------------------
  // The service's registry counters, read on the daemon's own service.
  const auto counter = [](serve::Daemon& d, const char* name) {
    return d.service().metrics().counter(name).value();
  };
  const std::uint64_t runs_before = counter(*daemon, "eval.backend_runs");
  const std::uint64_t joined_before = counter(*daemon, "eval.inflight_joins") +
                                      counter(*daemon, "eval.memo_hits");
  {
    Rng rng(seed ^ 0x2545f4914f6cdd1dULL);
    config::CpuConfig cfg = space.sample(rng);
    cfg.name = "bench99-coalesce";
    const eval::EvalRequest duplicate{cfg, kernels::App::kStream};
    std::vector<std::thread> dup_threads;
    for (int c = 0; c < num_clients; ++c) {
      dup_threads.emplace_back([&] {
        serve::EvalClient client(client_options);
        const std::vector<eval::EvalRequest> one = {duplicate};
        client.evaluate(one);
      });
    }
    for (std::thread& thread : dup_threads) thread.join();
  }
  const std::uint64_t coalesced_backend_runs =
      counter(*daemon, "eval.backend_runs") - runs_before;
  const std::uint64_t coalesced_joins =
      counter(*daemon, "eval.inflight_joins") +
      counter(*daemon, "eval.memo_hits") - joined_before;
  std::printf(
      "coalescing: %d clients x same config -> %llu backend run(s), "
      "%llu joined/hit\n",
      num_clients, static_cast<unsigned long long>(coalesced_backend_runs),
      static_cast<unsigned long long>(coalesced_joins));

  // --- 5. warm restart: a second daemon on the same store -----------------
  daemon->drain();
  daemon->wait();
  daemon.reset();
  serve::Daemon second(daemon_options);
  second.start();
  {
    serve::EvalClient client(client_options);
    const auto responses = client.evaluate(warm_set);
    for (const eval::EvalResponse& r : responses) {
      failures += r.ok() ? 0 : 1;
    }
  }
  const std::uint64_t restart_runs = counter(second, "eval.backend_runs");
  const std::uint64_t restart_store_hits = counter(second, "eval.store_hits");
  std::printf("warm restart: %llu fresh sims, %llu store hits\n\n",
              static_cast<unsigned long long>(restart_runs),
              static_cast<unsigned long long>(restart_store_hits));

  {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"requests_total\": " << sat_total << ",\n"
        << "  \"client_threads\": " << num_clients << ",\n"
        << "  \"daemon_workers\": " << workers << ",\n"
        << "  \"warm_configs\": " << num_configs << ",\n"
        << "  \"batch_size\": " << batch_size << ",\n"
        << "  \"cold_p50_ms\": " << cold_p50 << ",\n"
        << "  \"cold_p99_ms\": " << cold_p99 << ",\n"
        << "  \"hit_p50_us\": " << hit_p50 << ",\n"
        << "  \"hit_p99_us\": " << hit_p99 << ",\n"
        << "  \"server_p99_us\": " << server_p99_us << ",\n"
        << "  \"saturation_seconds\": " << sat_seconds << ",\n"
        << "  \"requests_per_sec\": " << requests_per_sec << ",\n"
        << "  \"coalescing\": {\"clients\": " << num_clients
        << ", \"backend_runs\": " << coalesced_backend_runs
        << ", \"joined_or_hit\": " << coalesced_joins << "},\n"
        << "  \"warm_restart\": {\"backend_runs\": " << restart_runs
        << ", \"store_hits\": " << restart_store_hits << "}\n"
        << "}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());

  failures += bench::shape_check(failures == 0,
                                 "every request over the socket succeeded");
  failures += bench::shape_check(warm_cycles_match,
                                 "memo hits bit-match the fresh simulations");
  failures += bench::shape_check(requests_per_sec > 0.0,
                                 "saturation throughput is measurable");
  failures += bench::shape_check(
      coalesced_backend_runs == 1,
      "N clients x same fresh config coalesce to exactly 1 backend run");
  failures += bench::shape_check(
      restart_runs == 0 &&
          restart_store_hits == static_cast<std::uint64_t>(num_configs),
      "second daemon start reuses the warm store (0 fresh sims)");

  second.drain();
  second.wait();
  std::filesystem::remove_all(dir);
  return failures == 0 ? 0 : 1;
}
