#include "energy/energy_report.h"

#include <cmath>

#include "check/check.h"

namespace iotsim::energy {

EnergyReport EnergyReport::from_accountant(const EnergyAccountant& acct, sim::Duration elapsed) {
  const LedgerSlice whole{&acct, 0, acct.component_count()};
  return from_slices({&whole, 1}, elapsed);
}

// This loop, and its order, is the fleet float-summation contract: a
// sharded run lists its hubs' slices in global hub order and so reproduces
// a shared ledger's sums bit for bit.
EnergyReport EnergyReport::from_slices(std::span<const LedgerSlice> slices,
                                       sim::Duration elapsed) {
  EnergyReport r;
  r.elapsed_ = elapsed;
  double ledger = 0.0;  // the same cells summed component-first
  for (const LedgerSlice& s : slices) {
    IOTSIM_CHECK(s.begin <= s.end && s.end <= s.acct->component_count(),
                 "ledger slice [%zu, %zu) outside a %zu-component ledger", s.begin, s.end,
                 s.acct->component_count());
    for (ComponentId c = s.begin; c < s.end; ++c) {
      const std::string& name = s.acct->component_name(c);
      auto& row = r.component_j_[name];
      for (Routine rt : kAllRoutines) {
        const double j = s.acct->joules(c, rt);
        IOTSIM_CHECK_GE(j, 0.0, "negative ledger cell for component '%s'", name.c_str());
        row[index_of(rt)] += j;
        r.routine_j_[index_of(rt)] += j;
        r.busy_[index_of(rt)] += s.acct->busy_time(c, rt);
      }
      ledger += s.acct->component_joules(c);
    }
  }
  const double total = r.total_joules();
  const double tol = 1e-9 * (std::abs(ledger) > 1.0 ? std::abs(ledger) : 1.0);
  IOTSIM_CHECK_LE(std::abs(total - ledger), tol,
                  "report total %.12g J diverges from its %zu ledger slices' %.12g J", total,
                  slices.size(), ledger);
  return r;
}

double EnergyReport::total_joules() const {
  double t = 0.0;
  for (double j : routine_j_) t += j;
  return t;
}

sim::Duration EnergyReport::total_busy_time() const {
  sim::Duration t = sim::Duration::zero();
  for (Routine r : kPaperRoutines) t += busy_[index_of(r)];
  t += busy_[index_of(Routine::kNetwork)];
  return t;
}

double EnergyReport::average_watts() const {
  const double s = elapsed_.to_seconds();
  return s > 0.0 ? total_joules() / s : 0.0;
}

double EnergyReport::component_joules(const std::string& name) const {
  auto it = component_j_.find(name);
  if (it == component_j_.end()) return 0.0;
  double t = 0.0;
  for (double j : it->second) t += j;
  return t;
}

double EnergyReport::paper_joules(Routine r) const {
  double j = routine_j_[index_of(r)];
  if (r == Routine::kComputation) j += routine_j_[index_of(Routine::kNetwork)];
  return j;
}

double EnergyReport::paper_fraction(Routine r) const {
  const double total = total_joules();
  return total > 0.0 ? paper_joules(r) / total : 0.0;
}

double EnergyReport::savings_vs(const EnergyReport& baseline) const {
  const double base = baseline.total_joules();
  IOTSIM_CHECK_GT(base, 0.0, "savings against a zero-energy baseline are undefined");
  return 1.0 - total_joules() / base;
}

double EnergyReport::normalized_to(const EnergyReport& baseline) const {
  const double base = baseline.total_joules();
  IOTSIM_CHECK_GT(base, 0.0, "normalizing to a zero-energy baseline is undefined");
  return total_joules() / base;
}

}  // namespace iotsim::energy
