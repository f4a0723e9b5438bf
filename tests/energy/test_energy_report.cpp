#include "energy/energy_report.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

namespace iotsim::energy {
namespace {

using sim::Duration;
using sim::SimTime;

PowerSegment seg(ComponentId c, Routine r, double t0_ms, double t1_ms, double w,
                 bool busy = true) {
  return PowerSegment{c,
                      r,
                      SimTime::origin() + Duration::from_ms(t0_ms),
                      SimTime::origin() + Duration::from_ms(t1_ms),
                      w,
                      busy};
}

EnergyReport sample_report() {
  EnergyAccountant acct;
  const auto cpu = acct.register_component("cpu");
  const auto nic = acct.register_component("nic");
  acct.add(seg(cpu, Routine::kDataTransfer, 0, 500, 2.0));   // 1.0 J
  acct.add(seg(cpu, Routine::kComputation, 500, 750, 2.0));  // 0.5 J
  acct.add(seg(nic, Routine::kNetwork, 0, 250, 1.0));        // 0.25 J
  acct.add(seg(cpu, Routine::kIdle, 750, 1000, 0.1, false)); // 0.025 J
  return EnergyReport::from_accountant(acct, Duration::sec(1));
}

TEST(EnergyReport, TotalsAndAverages) {
  const auto r = sample_report();
  EXPECT_NEAR(r.total_joules(), 1.775, 1e-12);
  EXPECT_NEAR(r.average_watts(), 1.775, 1e-12);
  EXPECT_EQ(r.elapsed(), Duration::sec(1));
}

TEST(EnergyReport, ComponentLookup) {
  const auto r = sample_report();
  EXPECT_NEAR(r.component_joules("cpu"), 1.525, 1e-12);
  EXPECT_NEAR(r.component_joules("nic"), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(r.component_joules("missing"), 0.0);
}

TEST(EnergyReport, NetworkFoldsIntoComputation) {
  const auto r = sample_report();
  EXPECT_NEAR(r.paper_joules(Routine::kComputation), 0.75, 1e-12);  // 0.5 + 0.25 net
  EXPECT_NEAR(r.paper_fraction(Routine::kComputation), 0.75 / 1.775, 1e-12);
  EXPECT_NEAR(r.paper_joules(Routine::kDataTransfer), 1.0, 1e-12);
}

TEST(EnergyReport, BusyTimeExcludesIdle) {
  const auto r = sample_report();
  EXPECT_EQ(r.busy_time(Routine::kDataTransfer), Duration::ms(500));
  EXPECT_EQ(r.busy_time(Routine::kIdle), Duration::zero());
  EXPECT_EQ(r.total_busy_time(), Duration::ms(1000));  // 500+250+250
}

TEST(EnergyReport, SavingsAndNormalisation) {
  const auto base = sample_report();
  EnergyAccountant acct;
  const auto cpu = acct.register_component("cpu");
  acct.add(seg(cpu, Routine::kComputation, 0, 250, 2.0));  // 0.5 J
  const auto cheap = EnergyReport::from_accountant(acct, Duration::sec(1));
  EXPECT_NEAR(cheap.savings_vs(base), 1.0 - 0.5 / 1.775, 1e-12);
  EXPECT_NEAR(cheap.normalized_to(base), 0.5 / 1.775, 1e-12);
}

/// Registers hub `h`'s three components in `acct` and books segments with
/// inexact watts and spans, so every fleet sum depends on its order.
LedgerSlice book_hub(EnergyAccountant& acct, int h) {
  const ComponentId begin = acct.component_count();
  const std::string scope = "hub" + std::to_string(h) + "/";
  const auto cpu = acct.register_component(scope + "cpu");
  const auto mcu = acct.register_component(scope + "mcu");
  const auto nic = acct.register_component(scope + "nic");
  const double w = 0.1 * (h + 1) + 1.0 / 3.0;
  const double busy_ms = 7.3 * (h + 1);
  acct.add(seg(cpu, Routine::kComputation, 0, busy_ms, w));
  acct.add(seg(cpu, Routine::kIdle, busy_ms, 1000, 0.07, false));
  acct.add(seg(mcu, Routine::kDataTransfer, 0, 11.1 + h, w / 7));
  acct.add(seg(mcu, Routine::kDataCollection, 11.1 + h, 13.7 + 2 * h, 0.013));
  acct.add(seg(nic, Routine::kNetwork, 3, 3.9 + 0.9 * h, 0.77));
  return {&acct, begin, acct.component_count()};
}

void expect_bit_identical(const EnergyReport& got, const EnergyReport& want) {
  for (Routine r : kAllRoutines) {
    EXPECT_EQ(got.joules(r), want.joules(r)) << to_string(r);
    EXPECT_EQ(got.busy_time(r), want.busy_time(r)) << to_string(r);
  }
  EXPECT_EQ(got.total_joules(), want.total_joules());
  EXPECT_EQ(got.total_busy_time(), want.total_busy_time());
  EXPECT_EQ(got.by_component(), want.by_component());
  EXPECT_EQ(got.elapsed(), want.elapsed());
}

TEST(EnergyReport, HubOrderSliceMergeIsBitIdentical) {
  // Seven hubs dealt round-robin to three shard ledgers (shard s books hubs
  // s, s+3, …); walking their slices in hub order must reproduce the one
  // shared ledger bit for bit, although each ledger holds hubs out of order.
  constexpr int kHubs = 7;
  constexpr int kShards = 3;
  EnergyAccountant shared;
  std::vector<LedgerSlice> in_shared;
  for (int h = 0; h < kHubs; ++h) in_shared.push_back(book_hub(shared, h));
  std::array<EnergyAccountant, kShards> shards;
  std::vector<LedgerSlice> dealt(kHubs);
  for (int s = 0; s < kShards; ++s) {
    for (int h = s; h < kHubs; h += kShards) dealt[h] = book_hub(shards[s], h);
  }
  const auto want = EnergyReport::from_accountant(shared, Duration::sec(1));
  expect_bit_identical(EnergyReport::from_slices(dealt, Duration::sec(1)), want);
  expect_bit_identical(EnergyReport::from_slices(in_shared, Duration::sec(1)), want);
}

TEST(EnergyReport, OneHubSliceIsThatHubsOwnReport) {
  // A hub's slice reads the same whether it sits in the shared ledger, in
  // a shard ledger after other hubs, or in a ledger of its own.
  EnergyAccountant shared;
  std::vector<LedgerSlice> in_shared;
  for (int h = 0; h < 5; ++h) in_shared.push_back(book_hub(shared, h));
  EnergyAccountant shard;
  (void)book_hub(shard, 1);
  const LedgerSlice in_shard = book_hub(shard, 4);
  EnergyAccountant alone;
  (void)book_hub(alone, 4);
  const auto want = EnergyReport::from_accountant(alone, Duration::sec(1));
  expect_bit_identical(EnergyReport::from_slices({&in_shared[4], 1}, Duration::sec(1)), want);
  expect_bit_identical(EnergyReport::from_slices({&in_shard, 1}, Duration::sec(1)), want);
  EXPECT_EQ(want.by_component().size(), 3u);
  EXPECT_GT(want.total_joules(), 0.0);
}

}  // namespace
}  // namespace iotsim::energy
