#pragma once
/// \file trace.hpp
/// Scoped trace spans exported as Chrome-tracing JSON (load the file at
/// `chrome://tracing` or https://ui.perfetto.dev). Instrumentation is
/// deliberately coarse — one span per simulation, per eval batch, per DSE
/// round, per campaign — so a 180k-configuration campaign produces a
/// readable timeline instead of gigabytes, and the disabled-tracer cost in
/// the hot layers is a single predictable branch.
///
/// The process-wide tracer (`Tracer::global()`) is armed iff
/// `ADSE_TRACE_FILE` names an output path (read once via
/// `adse::trace_file()`); it flushes on explicit `flush()` and again at
/// process exit. Tests and embedders can build private `Tracer` instances
/// with an explicit path.

#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"

namespace adse::obs {

/// Collects completed spans and writes them as one Chrome trace document:
/// {"displayTimeUnit": "ms", "traceEvents": [{"ph": "X", ...}, ...]}.
class Tracer {
 public:
  /// `path` empty => disabled: record() and flush() are no-ops.
  explicit Tracer(std::string path);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return !path_.empty(); }

  /// Microseconds since tracer construction (the trace's time origin).
  double now_us() const { return clock_.seconds() * 1e6; }

  /// Records one complete span. `name` and `category` must be string
  /// literals (stored by pointer); `detail` lands in the event's args.
  void record(const char* name, const char* category, double start_us,
              double duration_us, std::string detail = {});

  /// (Re)writes the JSON document with everything recorded so far; called
  /// automatically on destruction. Safe to call repeatedly.
  void flush();

  std::size_t num_events() const;

  /// The process-wide tracer; enabled iff ADSE_TRACE_FILE is set.
  static Tracer& global();

 private:
  struct Event {
    const char* name;
    const char* category;
    double start_us;
    double duration_us;
    int tid;
    std::string detail;
  };

  const std::string path_;
  const Stopwatch clock_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// True if the process-wide tracer is armed.
bool tracing_enabled();

/// RAII span: records [construction, destruction) into a tracer. When the
/// tracer is disabled, construction is one branch and nothing is stored.
class Span {
 public:
  /// Span against the process-wide tracer.
  explicit Span(const char* name, const char* category = "adse")
      : Span(Tracer::global(), name, category) {}

  Span(Tracer& tracer, const char* name, const char* category = "adse")
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        name_(name),
        category_(category),
        start_us_(tracer_ != nullptr ? tracer.now_us() : 0.0) {}

  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, category_, start_us_,
                      tracer_->now_us() - start_us_, std::move(detail_));
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a detail (shown in the event's args): a string, or a
  /// callable returning one that runs only when the span is armed, so a
  /// disarmed span never formats its detail. Ignored when the tracer is
  /// disabled.
  template <typename Detail>
  void set_detail(Detail&& detail) {
    if (tracer_ == nullptr) return;
    if constexpr (std::is_invocable_v<Detail&>) {
      detail_ = detail();
    } else {
      detail_ = std::forward<Detail>(detail);
    }
  }

 private:
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  double start_us_;
  std::string detail_;
};

}  // namespace adse::obs
