#pragma once
/// \file check.hpp
/// Process-global switch for the simulator's structural invariant layer.
///
/// The core, memory hierarchy and simulation façade carry always-compiled
/// self-checks (occupancy <= capacity, cache accounting balances, time moves
/// forward) that cost one predictable branch when disabled: each component
/// caches `CheckContext::enabled()` in a bool at entry, so the campaign hot
/// loop (perfbench campaign_cold) is unaffected with checks off. The
/// `adse::check` library (reference model, config-space fuzzer) flips the
/// switch on to make every simulated cycle falsifiable; users enable it
/// with `ADSE_CHECK=1`.

#include <atomic>

namespace adse {

class CheckContext {
 public:
  /// True when the invariant layer is active. Defaults to the `ADSE_CHECK`
  /// environment knob (read once); set_enabled() overrides it for the rest
  /// of the process (the fuzzer and tests use the RAII ScopedCheck instead).
  static bool enabled();

  /// Programmatic override of the environment default.
  static void set_enabled(bool on);

 private:
  /// -1 = unresolved (consult ADSE_CHECK on first query), else 0 / 1.
  static std::atomic<int> state_;
};

/// RAII enable/disable for tests and the fuzz harness; restores the previous
/// state on destruction.
class ScopedCheck {
 public:
  explicit ScopedCheck(bool on) : prev_(CheckContext::enabled()) {
    CheckContext::set_enabled(on);
  }
  ~ScopedCheck() { CheckContext::set_enabled(prev_); }
  ScopedCheck(const ScopedCheck&) = delete;
  ScopedCheck& operator=(const ScopedCheck&) = delete;

 private:
  bool prev_;
};

}  // namespace adse
