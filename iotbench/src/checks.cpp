#include "checks.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>

namespace iotbench {

using iotsim::core::ScenarioResult;
using iotsim::energy::EnergyReport;

std::string_view to_string(FailureKind k) {
  switch (k) {
    case FailureKind::kInvalidScenario: return "invalid_scenario";
    case FailureKind::kConservation: return "conservation";
    case FailureKind::kSpan: return "span";
    case FailureKind::kInterruptCount: return "interrupt_count";
    case FailureKind::kSchemeOrdering: return "scheme_ordering";
    case FailureKind::kShardDivergence: return "shard_divergence";
    case FailureKind::kWarmQueryMiss: return "warm_query_miss";
    case FailureKind::kWarmQueryMismatch: return "warm_query_mismatch";
    case FailureKind::kStoreFailure: return "store_failure";
    case FailureKind::kCodecRoundTrip: return "codec_round_trip";
    case FailureKind::kCount: break;
  }
  return "?";
}

void Tally::fail(FailureKind kind, const std::string& detail) {
  constexpr std::uint64_t kDescribed = 5;
  if (failed() < kDescribed) std::cerr << "[iotbench] FAILED " << to_string(kind) << ": " << detail << '\n';
  ++failed_[static_cast<std::size_t>(kind)];
}

std::uint64_t Tally::failed() const {
  std::uint64_t n = 0;
  for (const auto f : failed_) n += f;
  return n;
}

std::string Tally::json() const {
  std::ostringstream out;
  out << '{';
  for (std::size_t k = 0; k < kFailureKinds; ++k) {
    if (k > 0) out << ", ";
    out << '"' << to_string(static_cast<FailureKind>(k)) << "\": " << failed_[k];
  }
  out << '}';
  return out.str();
}

namespace {

bool close_enough(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) <= kConservationTolerance * scale;
}

/// Σ routine joules vs Σ component joules of one report.
std::string report_conserves(const EnergyReport& e, const std::string& who) {
  double routine = 0.0;
  for (const auto r : iotsim::energy::kAllRoutines) routine += e.joules(r);
  double component = 0.0;
  for (const auto& [name, by_routine] : e.by_component()) {
    for (const double j : by_routine) component += j;
  }
  if (close_enough(routine, component)) return {};
  std::ostringstream msg;
  msg.precision(17);
  msg << who << ": routine sum " << routine << " J != component sum " << component << " J";
  return msg.str();
}

}  // namespace

std::string check_conservation(const ScenarioResult& r) {
  if (auto bad = report_conserves(r.energy, "fleet"); !bad.empty()) return bad;
  if (r.hubs.empty()) return "result has no hub sections";
  std::array<double, iotsim::energy::kRoutineCount> hub_routines{};
  std::uint64_t interrupts = 0, wakeups = 0, grants = 0, drops = 0, retries = 0;
  iotsim::sim::Duration wait = iotsim::sim::Duration::zero();
  for (const auto& hub : r.hubs) {
    if (auto bad = report_conserves(hub.energy, hub.name); !bad.empty()) return bad;
    for (const auto rt : iotsim::energy::kAllRoutines) {
      hub_routines[iotsim::energy::index_of(rt)] += hub.energy.joules(rt);
    }
    interrupts += hub.interrupts_raised;
    wakeups += hub.cpu_wakeups;
    grants += hub.airtime_grants;
    drops += hub.net_drops;
    retries += hub.net_retries;
    wait += hub.airtime_wait;
  }
  for (const auto rt : iotsim::energy::kAllRoutines) {
    const double fleet = r.energy.joules(rt);
    const double sum = hub_routines[iotsim::energy::index_of(rt)];
    if (!close_enough(fleet, sum)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "fleet " << iotsim::energy::to_string(rt) << " " << fleet << " J != sum over hubs "
          << sum << " J";
      return msg.str();
    }
  }
  if (interrupts != r.interrupts_raised || wakeups != r.cpu_wakeups) {
    return "fleet interrupt/wakeup totals differ from the sum over hubs";
  }
  const auto& c = r.energy.congestion();
  if (grants != c.grants || drops != c.drops || retries != c.retries || wait != c.airtime_wait) {
    return "fleet airtime grants/drops/retries/wait differ from the sum over hubs";
  }
  return {};
}

std::string check_span(const ScenarioResult& r, int windows) {
  const auto last_window = iotsim::sim::Duration::sec(windows - 1);
  if (!(r.span > last_window)) {
    std::ostringstream msg;
    msg << "span " << r.span.to_ms() << " ms ends before the last of " << windows
        << " windows began";
    return msg.str();
  }
  const auto end = iotsim::sim::SimTime::origin() + r.span;
  for (const auto& hub : r.hubs) {
    for (const auto& [id, app] : hub.apps) {
      const std::string who = hub.name + "/" + std::string{iotsim::apps::code_of(id)};
      if (app.records.size() != static_cast<std::size_t>(windows)) {
        return who + ": " + std::to_string(app.records.size()) + " window records, want " +
               std::to_string(windows);
      }
      for (const auto& rec : app.records) {
        if (rec.completed > end || rec.started > rec.completed) {
          return who + ": window " + std::to_string(rec.window) + " ends outside the span";
        }
      }
    }
  }
  return {};
}

std::string check_step_counter_interrupts(const ScenarioResult& r, iotsim::core::Scheme scheme,
                                          int windows) {
  using iotsim::core::Scheme;
  const std::uint64_t per_window = scheme == Scheme::kBaseline ? 1000 : scheme == Scheme::kBatching ? 1 : 0;
  if (per_window == 0) return {};
  const std::uint64_t want = per_window * static_cast<std::uint64_t>(windows);
  if (r.interrupts_raised == want) return {};
  std::ostringstream msg;
  msg << "step counter under " << iotsim::core::to_string(scheme) << ": " << r.interrupts_raised
      << " interrupts, want " << want;
  return msg.str();
}

std::string check_scheme_ordering(const std::string& label,
                                  const std::vector<const ScenarioResult*>& ordered) {
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    const double prev = ordered[i - 1]->total_joules();
    const double next = ordered[i]->total_joules();
    if (!(next < prev)) {
      std::ostringstream msg;
      msg.precision(10);
      msg << label << ": " << iotsim::core::to_string(ordered[i]->scheme) << " " << next
          << " J is not below " << iotsim::core::to_string(ordered[i - 1]->scheme) << " " << prev
          << " J";
      return msg.str();
    }
  }
  return {};
}

}  // namespace iotbench
