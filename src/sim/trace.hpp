#pragma once
/// \file trace.hpp
/// The one artifact per workload trace. Only the vector length changes the
/// code stream the paper compares across configurations (§IV-A), so a trace
/// is a pure function of (app, VL): the process keeps one `Trace` per key,
/// and every consumer takes its forms from it — the engine its decoded µop
/// stream (core::DecodedTrace), the oracle bounds and the fused surrogate
/// their config-independent digest (analysis::TraceSummary).
///
/// A Trace starts as the built isa::Program alone, so `sim::trace` costs
/// what kernels::build_app costs. The first decoded() or summary() call
/// turns it into both forms, once, behind the trace's own once-latch, and
/// then releases the Program: nothing reads it afterwards, and keeping it
/// beside the decoded form would nearly double the resident trace memory.

#include <memory>
#include <mutex>
#include <string>

#include "analysis/analytical_features.hpp"
#include "core/batched_core.hpp"
#include "isa/program.hpp"
#include "kernels/workloads.hpp"

namespace adse::sim {

class Trace {
 public:
  /// A standalone artifact over `program` — hand-built programs in tests
  /// and probes; the per-(app, VL) ones come from sim::trace().
  explicit Trace(isa::Program program);

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  const std::string& name() const { return name_; }
  /// µops in the trace; every one retires exactly once.
  std::size_t size() const { return size_; }

  /// The engine's form. Safe to call concurrently; the first call of either
  /// accessor converts (and counts "eval.trace_decodes"), the rest wait on
  /// it. Throws on an empty program.
  const core::DecodedTrace& decoded() const;
  /// The analytical digest (analysis::summarize_trace).
  const analysis::TraceSummary& summary() const;

 private:
  void convert() const;

  std::string name_;
  std::size_t size_;
  mutable std::once_flag converted_;
  mutable isa::Program program_;  ///< empty once converted
  mutable std::unique_ptr<const core::DecodedTrace> decoded_;
  mutable std::unique_ptr<const analysis::TraceSummary> summary_;
};

/// The process-wide trace for (app, vl), built on first use; the reference
/// stays valid for the life of the process. Builds run outside the map lock
/// behind a per-key once-latch, so pool threads asking for different keys
/// build in parallel and callers of one key wait for its single build.
/// Counts "eval.trace_builds" and "eval.trace_hits" in the global registry.
const Trace& trace(kernels::App app, int vl);

}  // namespace adse::sim
