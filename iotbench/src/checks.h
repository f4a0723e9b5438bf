// Output checks and failure accounting.
//
// Every check tests a property the method must have, or compares against a
// value computed apart from the program — never against a stored copy of
// an earlier run's output. A failed check is counted against its operation
// under a named kind; failures never enter a metric.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/reports.h"

namespace iotbench {

enum class FailureKind : unsigned char {
  kInvalidScenario,
  kConservation,     // Σ routine ≠ Σ component per hub, or fleet ≠ Σ hubs
  kSpan,             // the span does not cover every window's work
  kInterruptCount,   // step counter ≠ 1000/window (Baseline) or 1/window (Batching)
  kSchemeOrdering,   // the paper's scheme ordering does not hold
  kShardDivergence,  // sharded JSON ≠ single-shard JSON
  kWarmQueryMiss,    // a warm query was not a disk hit
  kWarmQueryMismatch,
  kStoreFailure,
  kCodecRoundTrip,   // decode(encode(r)) does not re-serialize identically
  kCount,
};

inline constexpr std::size_t kFailureKinds = static_cast<std::size_t>(FailureKind::kCount);

[[nodiscard]] std::string_view to_string(FailureKind k);

/// Operations attempted and failed in one run, failures by kind.
class Tally {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failure; the first few are described on stderr.
  void fail(FailureKind kind, const std::string& detail);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] std::uint64_t failed(FailureKind kind) const {
    return failed_[static_cast<std::size_t>(kind)];
  }
  /// {"invalid_scenario": n, ...} over every kind.
  [[nodiscard]] std::string json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::array<std::uint64_t, kFailureKinds> failed_{};
};

/// Relative tolerance of the energy-conservation checks.
inline constexpr double kConservationTolerance = 1e-9;

/// Per hub (and for the fleet report): Σ routine joules = Σ component
/// joules; for fleets also fleet routine joules, interrupts, wakeups and
/// airtime grants/drops = the sum over hubs. Empty ⇒ holds; else why not.
[[nodiscard]] std::string check_conservation(const iotsim::core::ScenarioResult& r);

/// Every app on every hub completed exactly `windows` window records, all
/// inside the simulated span, and the span reaches into the last window.
/// (The span is not windows × 1 s: a run ends when its event queue drains,
/// which can be before the last window closes or long after it.)
[[nodiscard]] std::string check_span(const iotsim::core::ScenarioResult& r, int windows);

/// Table I's step counter samples at 1 kHz: Baseline raises one interrupt
/// per sample, 1000 per window; Batching one per window.
[[nodiscard]] std::string check_step_counter_interrupts(const iotsim::core::ScenarioResult& r,
                                                        iotsim::core::Scheme scheme, int windows);

/// Strictly decreasing total energy along `ordered` (e.g. Baseline,
/// Batching, COM). `label` names the app or combo in the message.
[[nodiscard]] std::string check_scheme_ordering(
    const std::string& label, const std::vector<const iotsim::core::ScenarioResult*>& ordered);

}  // namespace iotbench
