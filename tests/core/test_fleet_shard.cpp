// The sharded fleet executor's determinism contract: for every ExecPolicy,
// run(policy) serializes byte-identically to the single-threaded run() —
// sharding is an execution shape, never a result change.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/result_json.h"
#include "core/scenario_runner.h"

namespace iotsim::core {
namespace {

using apps::AppId;

Scenario ideal_fleet(int hubs, int windows = 2) {
  auto builder = Scenario::builder()
                     .scheme(Scheme::kBcom)
                     .windows(windows);
  const std::vector<std::vector<AppId>> mixes = {
      {AppId::kA2StepCounter, AppId::kA8Heartbeat},
      {AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x},
  };
  for (int i = 0; i < hubs; ++i) {
    builder.add_hub(hw::default_hub_spec(), mixes[static_cast<std::size_t>(i) % mixes.size()]);
  }
  return builder.build();
}

Scenario contended_fleet(int hubs, net::BackoffPolicy backoff,
                         sim::Duration reservation_window = sim::Duration::zero()) {
  auto builder = Scenario::builder()
                     .scheme(Scheme::kBcom)
                     .windows(2);
  for (int i = 0; i < hubs; ++i) {
    builder.add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter, AppId::kA5Blynk});
  }
  net::ApConfig ap;
  ap.bytes_per_second = 6.25e5;
  ap.backoff = backoff;
  ap.reservation_window = reservation_window;
  builder.network(ap);
  return builder.build();
}

std::string run_json(const Scenario& sc, const ExecPolicy& policy) {
  return to_json_text(run_scenario(sc, policy));
}

TEST(FleetShard, ShardedIdealFleetIsByteIdentical) {
  const Scenario sc = ideal_fleet(12);
  const std::string single = run_json(sc, ExecPolicy{});
  for (int shards : {2, 3, 8}) {
    EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = shards}))
        << "shards=" << shards;
  }
}

TEST(FleetShard, WindowedBarriersAreByteIdentical) {
  const Scenario sc = ideal_fleet(8);
  const std::string single = run_json(sc, ExecPolicy{});
  // A coarse and a very fine window: many barrier rounds must not change
  // any hub's trajectory or the merged float sums.
  EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = 4,
                                            .window = sim::Duration::ms(250)}));
  EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = 4,
                                            .window = sim::Duration::ms(7)}));
}

TEST(FleetShard, SharedAccessPointCollapsesToExactSingleShard) {
  for (auto backoff : {net::BackoffPolicy::kFifo, net::BackoffPolicy::kCsma}) {
    const Scenario sc = contended_fleet(6, backoff);
    ScenarioRunner runner{sc};
    EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 8}), 1);
    const std::string single = run_json(sc, ExecPolicy{});
    for (int shards : {2, 8}) {
      EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = shards}))
          << "backoff=" << static_cast<int>(backoff) << " shards=" << shards;
    }
  }
}

TEST(FleetShard, WindowedAccessPointShardsByteIdentically) {
  // A reservation window promotes the AP coupling into a window-quantum
  // contract: the fleet shards with barriers at window boundaries and must
  // still serialize byte-for-byte like the single-shard run.
  const Scenario sc = contended_fleet(6, net::BackoffPolicy::kFifo,
                                      sim::Duration::ms(10));
  ScenarioRunner runner{sc};
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 4}), 4);
  const std::string single = run_json(sc, ExecPolicy{});
  for (int shards : {2, 3, 8}) {
    EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = shards}))
        << "shards=" << shards;
  }
}

TEST(FleetShard, WindowedAccessPointReportsShardsInKernelStats) {
  const Scenario sc = contended_fleet(4, net::BackoffPolicy::kFifo,
                                      sim::Duration::ms(5));
  const auto sharded = run_scenario(sc, ExecPolicy{.shards = 2});
  EXPECT_EQ(sharded.energy.kernel().shards, 2);
  EXPECT_GT(sharded.energy.kernel().events_dispatched, 0u);
}

TEST(FleetShard, EffectiveWindowIsForcedToTheReservationWindow) {
  const auto rw = sim::Duration::ms(10);
  ScenarioRunner windowed{contended_fleet(4, net::BackoffPolicy::kFifo, rw)};
  // Whatever quantum the policy asks for, a windowed AP pins the shard
  // barrier to its reservation window — coarser or finer would either skip
  // or split arbitration boundaries.
  EXPECT_EQ(windowed.effective_window(ExecPolicy{}).count_ns(), rw.count_ns());
  EXPECT_EQ(windowed.effective_window(ExecPolicy{.window = sim::Duration::ms(250)}).count_ns(),
            rw.count_ns());
  EXPECT_EQ(windowed.effective_window(ExecPolicy{.window = sim::Duration::ms(1)}).count_ns(),
            rw.count_ns());
  // Without a windowed AP the policy's own quantum stands.
  ScenarioRunner ideal{ideal_fleet(4)};
  EXPECT_EQ(ideal.effective_window(ExecPolicy{.window = sim::Duration::ms(250)}).count_ns(),
            sim::Duration::ms(250).count_ns());
}

TEST(FleetShard, EffectiveShardsClampsToFleetAndPolicy) {
  ScenarioRunner runner{ideal_fleet(4)};
  EXPECT_EQ(runner.effective_shards(ExecPolicy{}), 1);
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 0}), 1);
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = -3}), 1);
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 2}), 2);
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 64}), 4);  // fleet size
}

TEST(FleetShard, PowerTraceForcesSingleShard) {
  auto sc = ideal_fleet(4);
  sc.record_power_trace = true;
  ScenarioRunner runner{sc};
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 8}), 1);
}

TEST(FleetShard, KernelEventsAreExecutionShapeInvariant) {
  const Scenario sc = ideal_fleet(6);
  const auto single = run_scenario(sc);
  const auto sharded = run_scenario(sc, ExecPolicy{.shards = 3});
  EXPECT_GT(single.energy.kernel().events_dispatched, 0u);
  EXPECT_EQ(single.energy.kernel().events_dispatched,
            sharded.energy.kernel().events_dispatched);
  EXPECT_EQ(single.energy.kernel().shards, 1);
  EXPECT_EQ(sharded.energy.kernel().shards, 3);
}

/// A count-compressed fleet of 17 hubs in three templates of uneven size
/// (5/3/9) and cost: round-robin dealing leaves every shard a different mix
/// of templates and a ragged tail of hubs.
ScenarioBuilder uneven_fleet() {
  auto builder = Scenario::builder().scheme(Scheme::kBcom).windows(2);
  builder.add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter, AppId::kA8Heartbeat}, 5);
  builder.add_hub(hw::default_hub_spec(), {AppId::kA5Blynk, AppId::kA7Earthquake}, 3);
  builder.add_hub(hw::default_hub_spec(), {AppId::kA3ArduinoJson, AppId::kA4M2x}, 9);
  return builder;
}

TEST(FleetShard, UnevenCountCompressedFleetIsByteIdenticalAtEveryShardCount) {
  net::ApConfig ap;
  ap.bytes_per_second = 6.25e5;
  ap.backoff = net::BackoffPolicy::kFifo;
  ap.reservation_window = sim::Duration::ms(10);
  env::EnvironmentConfig environment;
  environment.crash.crash_prob_per_window = 0.3;
  environment.crash.reboot_windows = 1;
  environment.power.model = env::PowerModel::kBattery;
  environment.power.battery_capacity_wh = 0.0003;
  const std::vector<std::pair<const char*, Scenario>> variants = {
      {"ideal", uneven_fleet().build()},
      {"windowed-fifo-ap", uneven_fleet().network(ap).build()},
      {"crash+battery", uneven_fleet().environment(environment).build()},
  };
  // The variants must exercise what they name: queueing at the AP, crashes
  // and battery outages.
  EXPECT_GT(run_scenario(variants[1].second).energy.congestion().airtime_wait,
            sim::Duration::zero());
  const auto avail = run_scenario(variants[2].second).energy.availability();
  EXPECT_GT(avail.reboots, 0u);
  EXPECT_GT(avail.samples_lost_outage, 0u);
  for (const auto& [name, sc] : variants) {
    ASSERT_EQ(sc.fleet_size(), 17u);
    const std::string single = run_json(sc, ExecPolicy{});
    for (int shards : {2, 3, 4, 5, 7, 17}) {
      EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = shards}))
          << name << " shards=" << shards;
    }
  }
}

TEST(FleetShard, PeriodicFleetAtMatchingShardCountIsByteIdentical) {
  // ideal_fleet cycles three templates hub by hub; at three shards the
  // round-robin deal lands one template per shard — the known imbalanced
  // case. The work is lopsided; the results must not be.
  const Scenario sc = ideal_fleet(15);
  const std::string single = run_json(sc, ExecPolicy{});
  EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = 3}));
  EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = 3, .window = sim::Duration::ms(100)}));
}

TEST(FleetShard, SingleHubScenarioRunsUnderAnyPolicy) {
  const Scenario sc = Scenario::builder()
                          .apps({AppId::kA2StepCounter})
                          .scheme(Scheme::kCom)
                          .windows(2)
                          .build();
  EXPECT_EQ(run_json(sc, ExecPolicy{}), run_json(sc, ExecPolicy{.shards = 8}));
}

}  // namespace
}  // namespace iotsim::core
