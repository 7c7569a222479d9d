/// \file 93_ablation_uarch.cpp
/// Microarchitecture ablations for the design choices DESIGN.md calls out:
///   (a) loop buffer on/off across fetch-block sizes,
///   (b) prefetch distance sweep per app,
///   (c) infinite vs finite banks / idealised vs realistic forwarding (the
///       §VI-B discussion of what SST's infinite-bank model hides),
///   (d) the fixed-backend sensitivity the paper deliberately excluded from
///       its search space (dispatch width via frontend+commit pinch).

#include <cstdio>
#include <map>

#include "bench/bench_util.hpp"
#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "config/baselines.hpp"
#include "sim/hardware_proxy.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace adse;

std::uint64_t cycles(const config::CpuConfig& c, kernels::App app) {
  return sim::simulate_app(c, app).cycles();
}

}  // namespace

int main() {
  int failures = 0;

  // (a) loop buffer: matters when the fetch block is narrow.
  {
    std::printf("(a) loop buffer (STREAM cycles)\n");
    TextTable table({"fetch_block", "loop_buffer=1", "loop_buffer=64", "gain"});
    for (int fetch : {8, 32, 256}) {
      config::CpuConfig off = config::thunderx2_baseline();
      off.core.fetch_block_bytes = fetch;
      off.core.loop_buffer_size = 1;
      config::CpuConfig on = off;
      on.core.loop_buffer_size = 64;
      const auto c_off = cycles(off, kernels::App::kStream);
      const auto c_on = cycles(on, kernels::App::kStream);
      table.add_row({std::to_string(fetch),
                     format_grouped(static_cast<long long>(c_off)),
                     format_grouped(static_cast<long long>(c_on)),
                     format_fixed(static_cast<double>(c_off) /
                                      static_cast<double>(c_on),
                                  2) + "x"});
      if (fetch == 8) {
        failures += bench::shape_check(
            c_off > c_on,
            "the loop buffer recovers throughput lost to a narrow fetch block");
      }
    }
    std::printf("%s\n", table.render().c_str());
  }

  // (b) prefetch distance sweep.
  {
    std::printf("(b) prefetch distance (cycles per app)\n");
    TextTable table({"distance", "STREAM", "MiniBude", "TeaLeaf", "MiniSweep"});
    std::map<std::pair<int, int>, std::uint64_t> grid;
    for (int d : {0, 2, 8, 16}) {
      config::CpuConfig c = config::thunderx2_baseline();
      c.mem.prefetch_distance = d;
      std::vector<std::string> row{std::to_string(d)};
      for (kernels::App app : kernels::all_apps()) {
        const auto cy = cycles(c, app);
        grid[{d, static_cast<int>(app)}] = cy;
        row.push_back(format_grouped(static_cast<long long>(cy)));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("(STREAM is non-monotonic in distance: on-miss prefetch "
                "bursts contend with\ndemand traffic on the single DRAM "
                "queue — a behaviour of exactly the 'basic\nprefetching "
                "algorithms' the paper says its SST setup used)\n\n");
    bool deep_prefetch_helps_memory_codes = true;
    for (kernels::App app : {kernels::App::kStream, kernels::App::kTeaLeaf,
                             kernels::App::kMiniSweep}) {
      deep_prefetch_helps_memory_codes =
          deep_prefetch_helps_memory_codes &&
          grid[{16, static_cast<int>(app)}] < grid[{0, static_cast<int>(app)}];
    }
    failures += bench::shape_check(
        deep_prefetch_helps_memory_codes,
        "deep prefetch beats no prefetch for every memory-touching code");
  }

  // (c) what the infinite-bank / idealised-forwarding model hides.
  {
    std::printf("(c) fidelity effects on the TX2 baseline (cycles)\n");
    const config::CpuConfig tx2 = config::thunderx2_baseline();
    TextTable table({"App", "campaign model", "+finite banks", "+fwd=12"});
    for (kernels::App app : kernels::all_apps()) {
      const sim::Trace& trace = sim::trace(app, 128);
      const auto base = sim::simulate(tx2, trace).cycles();

      sim::ProxyOptions banks_only;
      banks_only.mshr_entries = 0;
      banks_only.model_tlb = false;
      banks_only.mispredict_interval = 0;
      banks_only.mispredict_loop_exits = false;
      banks_only.forward_latency = 1;
      banks_only.dram_latency_scale = 1.0;
      banks_only.dram_interval_scale = 1.0;
      banks_only.prefetch_boost_l2 = 0;
      // stream prefetcher stays on in the proxy path; neutralise by
      // comparing only deltas of the same proxy baseline.
      const auto with_banks =
          sim::simulate(tx2, trace, sim::proxy_fidelity(banks_only)).cycles();

      sim::ProxyOptions fwd = banks_only;
      fwd.finite_banks = 0;
      fwd.forward_latency = 12;
      const auto with_fwd =
          sim::simulate(tx2, trace, sim::proxy_fidelity(fwd)).cycles();

      table.add_row({kernels::app_name(app),
                     format_grouped(static_cast<long long>(base)),
                     format_grouped(static_cast<long long>(with_banks)),
                     format_grouped(static_cast<long long>(with_fwd))});
    }
    std::printf("%s\n", table.render().c_str());
  }

  // (d) fixed-backend sensitivity: the execution-unit layout the paper pins.
  {
    std::printf("(d) frontend/commit pinch (MiniBude cycles) — the paper's "
                "future-work question of how large the backend must be\n");
    TextTable table({"width", "cycles", "IPC"});
    for (int width : {1, 2, 4, 8, 16}) {
      config::CpuConfig c = config::thunderx2_baseline();
      c.core.frontend_width = width;
      c.core.commit_width = width;
      const auto result = sim::simulate_app(c, kernels::App::kMiniBude);
      table.add_row({std::to_string(width),
                     format_grouped(static_cast<long long>(result.cycles())),
                     format_fixed(result.core.ipc(), 2)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  return failures;
}
