#include "analysis/analytical_features.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>

#include "common/require.hpp"
#include "isa/ports.hpp"
#include "mem/hierarchy.hpp"

namespace adse::analysis {

namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : (a + b - 1) / b;
}

/// Lines spanned by one access — the same split MemoryHierarchy::access does.
std::uint64_t lines_spanned(std::uint64_t addr, std::uint32_t size,
                            std::uint32_t line_bytes) {
  const std::uint64_t mask = ~static_cast<std::uint64_t>(line_bytes - 1);
  const std::uint64_t first = addr & mask;
  const std::uint64_t last = (addr + size - 1) & mask;
  return (last - first) / line_bytes + 1;
}

/// The fetch stage streams an op from the loop buffer (no fetch-block bytes)
/// under exactly this predicate — keep in sync with kLoopCandidate in
/// core/batched_core.cpp.
/// TraceSummary folds the loop-buffer-size comparison into the cumulative
/// table, so only the structural half lives here.
bool loop_streamable(const isa::MicroOp& op) {
  return op.loop_body_size > 0 &&
         (op.flags & isa::kFlagFirstLoopIteration) == 0;
}

/// ceil(ops / ports able to serve them) for a set of groups, where `mask` is
/// the union of the groups' port masks. Valid for any schedule: each port
/// issues at most one µop per cycle.
std::uint64_t port_bound(std::uint64_t ops, std::uint64_t mask) {
  const int ports = std::popcount(mask);
  return ports == 0 ? 0 : ceil_div(ops, static_cast<std::uint64_t>(ports));
}

}  // namespace

std::uint64_t TraceSummary::streamable_ops(
    std::uint32_t loop_buffer_size) const {
  // Last entry with body_size <= loop_buffer_size.
  auto it = std::upper_bound(
      streamable_cum.begin(), streamable_cum.end(), loop_buffer_size,
      [](std::uint32_t l, const auto& entry) { return l < entry.first; });
  return it == streamable_cum.begin() ? 0 : std::prev(it)->second;
}

std::uint64_t TraceSummary::fetch_bytes(std::uint32_t loop_buffer_size) const {
  return (total_ops - streamable_ops(loop_buffer_size)) * isa::kInstrBytes;
}

std::uint64_t TraceSummary::lines_for(std::uint32_t line_bytes) const {
  for (std::size_t i = 0; i < kLineWidths.size(); ++i) {
    if (kLineWidths[i] == line_bytes) return memory_lines[i];
  }
  ADSE_REQUIRE_MSG(false, "unsupported cache-line width " << line_bytes
                                                          << " bytes");
  return 0;
}

TraceSummary summarize_trace(const isa::Program& program) {
  ADSE_REQUIRE_MSG(!program.ops.empty(), "empty program");
  TraceSummary s;
  s.name = program.name;
  std::map<std::uint32_t, std::uint64_t> streamable_by_body;
  for (const isa::MicroOp& op : program.ops) {
    s.total_ops++;
    s.by_group[static_cast<int>(op.group)]++;
    if (op.is_sve()) s.sve_ops++;
    if (op.group == isa::InstrGroup::kStore) s.stored_bytes += op.mem_size_bytes;
    s.serial_exec_cycles += static_cast<std::uint64_t>(
        kSerialPerOpOverhead + isa::execution_latency(op.group));
    if (loop_streamable(op)) streamable_by_body[op.loop_body_size]++;
    if (op.is_memory()) {
      for (std::size_t i = 0; i < kLineWidths.size(); ++i) {
        s.memory_lines[i] +=
            lines_spanned(op.mem_addr, op.mem_size_bytes, kLineWidths[i]);
      }
    }
  }
  s.streamable_cum.reserve(streamable_by_body.size());
  std::uint64_t cum = 0;
  for (const auto& [body, ops] : streamable_by_body) {
    cum += ops;
    s.streamable_cum.emplace_back(body, cum);
  }
  return s;
}

AnalyticalFeatures analyze(const TraceSummary& summary,
                           const config::CpuConfig& config) {
  AnalyticalFeatures f;
  const std::uint64_t ops = summary.total_ops;

  // ---- lower bound: the best any schedule could do ------------------------
  f.commit_bound =
      ceil_div(ops, static_cast<std::uint64_t>(config.core.commit_width));
  f.dispatch_bound =
      ceil_div(ops, static_cast<std::uint64_t>(config.backend.dispatch_width));
  f.frontend_bound =
      ceil_div(ops, static_cast<std::uint64_t>(config.core.frontend_width));
  f.fetch_bytes = summary.fetch_bytes(
      static_cast<std::uint32_t>(config.core.loop_buffer_size));
  f.fetch_bound = ceil_div(
      f.fetch_bytes, static_cast<std::uint64_t>(config.core.fetch_block_bytes));

  const isa::PortLayout ports(config.backend.ls_ports, config.backend.vec_ports,
                              config.backend.pred_ports,
                              config.backend.mix_ports);
  const auto group_mask = [&ports](isa::InstrGroup g) {
    const auto& m = ports.masks_for(g);
    return m.primary | m.fallback;
  };
  std::uint64_t all_ops_mask = 0;
  for (int g = 0; g < isa::kNumInstrGroups; ++g) {
    const auto group = static_cast<isa::InstrGroup>(g);
    f.port_group_bound = std::max(
        f.port_group_bound, port_bound(summary.by_group[g], group_mask(group)));
    all_ops_mask |= group_mask(group);
  }
  f.port_all_bound = port_bound(ops, all_ops_mask);
  f.port_ls_bound =
      port_bound(summary.loads() + summary.stores(),
                 group_mask(isa::InstrGroup::kLoad) |
                     group_mask(isa::InstrGroup::kStore));
  f.port_vecpred_bound = port_bound(summary.count(isa::InstrGroup::kVec) +
                                        summary.count(isa::InstrGroup::kPred),
                                    group_mask(isa::InstrGroup::kVec) |
                                        group_mask(isa::InstrGroup::kPred));
  f.port_scalar_bound = port_bound(summary.count(isa::InstrGroup::kInt) +
                                       summary.count(isa::InstrGroup::kIntMul) +
                                       summary.count(isa::InstrGroup::kFp) +
                                       summary.count(isa::InstrGroup::kFpDiv) +
                                       summary.count(isa::InstrGroup::kBranch),
                                   group_mask(isa::InstrGroup::kInt) |
                                       group_mask(isa::InstrGroup::kIntMul) |
                                       group_mask(isa::InstrGroup::kFp) |
                                       group_mask(isa::InstrGroup::kFpDiv) |
                                       group_mask(isa::InstrGroup::kBranch));
  f.store_send_bound =
      ceil_div(summary.stores(),
               static_cast<std::uint64_t>(config.core.mem_stores_per_cycle));
  f.store_request_bound =
      ceil_div(summary.stores(),
               static_cast<std::uint64_t>(config.core.mem_requests_per_cycle));
  f.store_bandwidth_bound =
      ceil_div(summary.stored_bytes,
               static_cast<std::uint64_t>(config.core.store_bandwidth_bytes));

  f.min_cycles = 1;
  for (const std::uint64_t bound :
       {f.commit_bound, f.dispatch_bound, f.frontend_bound, f.fetch_bound,
        f.port_group_bound, f.port_all_bound, f.port_ls_bound,
        f.port_vecpred_bound, f.port_scalar_bound, f.store_send_bound,
        f.store_request_bound, f.store_bandwidth_bound}) {
    f.min_cycles = std::max(f.min_cycles, bound);
  }

  // ---- upper bound: fully serialised replay -------------------------------
  // One op at a time: a full pipeline traversal plus its execution latency,
  // and for memory ops every line priced as a cold miss through every level
  // — own port slots, both dirty-writeback slots, the prefetch traffic it
  // may trigger, and the full L1+L2+RAM latency path. The hierarchy instance
  // supplies the exact clock-domain conversions.
  const mem::MemoryHierarchy pricing(config.mem, config::kCoreClockGhz);
  const double prefetch_traffic =
      static_cast<double>(config.mem.prefetch_distance) *
      (pricing.l2_interval_core() + 2.0 * pricing.ram_interval_core());
  f.line_cost =
      pricing.l1_interval_core() + 2.0 * pricing.l2_interval_core() +
      2.0 * pricing.ram_interval_core() + prefetch_traffic +
      pricing.l1_latency_core() + pricing.l2_latency_core() +
      pricing.ram_latency_core();
  f.memory_lines = summary.lines_for(
      static_cast<std::uint32_t>(config.mem.cache_line_bytes));
  f.serial_exec_cycles = summary.serial_exec_cycles;
  const double serial = static_cast<double>(f.serial_exec_cycles) +
                        static_cast<double>(f.memory_lines) * f.line_cost;
  f.max_cycles =
      static_cast<std::uint64_t>(std::ceil(serial)) + kSerialSlackCycles;

  // ---- op mix -------------------------------------------------------------
  const double total = static_cast<double>(ops);
  f.sve_fraction = static_cast<double>(summary.sve_ops) / total;
  f.load_fraction = static_cast<double>(summary.loads()) / total;
  f.store_fraction = static_cast<double>(summary.stores()) / total;
  f.vec_fraction =
      static_cast<double>(summary.count(isa::InstrGroup::kVec)) / total;
  f.branch_fraction =
      static_cast<double>(summary.count(isa::InstrGroup::kBranch)) / total;
  f.fpdiv_fraction =
      static_cast<double>(summary.count(isa::InstrGroup::kFpDiv)) / total;

  return f;
}

std::vector<double> AnalyticalFeatures::ml_features() const {
  const auto lg = [](std::uint64_t v) {
    return std::log1p(static_cast<double>(v));
  };
  return {lg(min_cycles),
          lg(commit_bound),
          lg(dispatch_bound),
          lg(frontend_bound),
          lg(fetch_bound),
          lg(port_group_bound),
          lg(port_all_bound),
          lg(port_ls_bound),
          lg(port_vecpred_bound),
          lg(port_scalar_bound),
          lg(store_send_bound),
          lg(store_request_bound),
          lg(store_bandwidth_bound),
          lg(serial_exec_cycles),
          lg(memory_lines),
          lg(max_cycles),
          line_cost,
          sve_fraction,
          load_fraction,
          store_fraction,
          vec_fraction,
          branch_fraction,
          fpdiv_fraction};
}

const std::vector<std::string>& AnalyticalFeatures::ml_feature_names() {
  static const std::vector<std::string> names = {
      "log_min_cycles",       "log_commit_bound",
      "log_dispatch_bound",   "log_frontend_bound",
      "log_fetch_bound",      "log_port_group_bound",
      "log_port_all_bound",   "log_port_ls_bound",
      "log_port_vecpred_bound", "log_port_scalar_bound",
      "log_store_send_bound", "log_store_request_bound",
      "log_store_bw_bound",   "log_serial_exec",
      "log_memory_lines",     "log_max_cycles",
      "line_cost",            "sve_fraction",
      "load_fraction",        "store_fraction",
      "vec_fraction",         "branch_fraction",
      "fpdiv_fraction"};
  return names;
}

}  // namespace adse::analysis
