#include "sim/trace.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <atomic>
#include <map>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"

namespace adse::sim {

Trace::Trace(isa::Program program)
    : name_(program.name),
      size_(program.ops.size()),
      program_(std::move(program)) {}

void Trace::convert() const {
  std::call_once(converted_, [this] {
    static obs::Counter& decodes =
        obs::Registry::global().counter("eval.trace_decodes");
    decoded_ = std::make_unique<const core::DecodedTrace>(program_);
    summary_ = std::make_unique<const analysis::TraceSummary>(
        analysis::summarize_trace(program_));
    program_ = {};
#if defined(__GLIBC__)
    // The Program was built by whichever thread first asked for the key,
    // usually not this one, and glibc keeps a freed block resident in the
    // middle of its arena. Without a trim, releasing it would leave the
    // process holding both forms' pages.
    malloc_trim(0);
#endif
    decodes.add(1);
  });
}

const core::DecodedTrace& Trace::decoded() const {
  convert();
  return *decoded_;
}

const analysis::TraceSummary& Trace::summary() const {
  convert();
  return *summary_;
}

const Trace& trace(kernels::App app, int vl) {
  /// One slot per key. std::map nodes are address-stable, so a slot is used
  /// after the map lock is dropped.
  struct Slot {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::optional<Trace> trace;
  };
  // The counters are bound first, so the global registry is built before
  // the map and outlives it at exit.
  static obs::Counter& hits =
      obs::Registry::global().counter("eval.trace_hits");
  static obs::Counter& builds =
      obs::Registry::global().counter("eval.trace_builds");
  static std::mutex mutex;
  static std::map<std::pair<int, int>, Slot> slots;

  Slot* slot;
  {
    std::lock_guard<std::mutex> lock(mutex);
    slot = &slots[{static_cast<int>(app), vl}];
  }
  if (slot->built.load(std::memory_order_acquire)) {
    hits.add(1);
    return *slot->trace;
  }
  std::call_once(slot->once, [&] {
    slot->trace.emplace(kernels::build_app(app, vl));
    builds.add(1);
    slot->built.store(true, std::memory_order_release);
  });
  return *slot->trace;
}

}  // namespace adse::sim
