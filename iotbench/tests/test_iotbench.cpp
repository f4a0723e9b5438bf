// The benchmark's own tests: a small-size smoke of every workload, and
// negative cases showing the output checks fail when they should.
//
//   cmake -S iotbench -B build-iotbench
//   cmake --build build-iotbench --target iotbench_tests && build-iotbench/iotbench_tests
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include <gtest/gtest.h>

#include "cache/result_codec.h"
#include "checks.h"
#include "codecs/util/checksum.h"
#include "core/scenario_runner.h"
#include "fingerprint.h"
#include "tracer.h"
#include "workloads.h"

namespace iotbench {
namespace {

namespace fs = std::filesystem;
using iotsim::apps::AppId;
using iotsim::core::Scenario;
using iotsim::core::ScenarioResult;
using iotsim::core::Scheme;

Sizes small_sizes() {
  Sizes s;
  s.sweep_windows = 1;
  s.fleet_hubs = 12;
  s.ap_hubs = 12;
  s.fleet_windows = 1;
  s.cache_windows = 1;
  s.cache_fleet_hubs = {4};
  return s;
}

/// A private directory per test and process, removed at teardown.
class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("iotbench-" + std::string{info->name()} + "-" + std::to_string(getpid()));
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::unique_ptr<Workload> make(std::string_view name) {
    return make_workload(name, Context{7, 2, dir_, &tracer_, &tally_}, small_sizes());
  }

  fs::path dir_;
  Tracer tracer_;
  Tally tally_;
};

TEST_F(WorkloadTest, EveryWorkloadRunsCleanAtSmallSize) {
  for (const auto name : kWorkloadNames) {
    SCOPED_TRACE(std::string{name});
    Tally tally;
    auto w = make_workload(name, Context{7, 2, dir_, &tracer_, &tally}, small_sizes());
    ASSERT_NE(w, nullptr);
    w->setup();
    w->round();
    w->verify();
    EXPECT_EQ(tally.failed(), 0U) << tally.json();
    EXPECT_GT(tally.attempted(), 0U);
    const auto& m = w->measurements();
    EXPECT_GT(m.work_units, 0.0);
    EXPECT_GT(m.op_ms, 0.0);
    EXPECT_FALSE(m.request_ms.empty());
    EXPECT_GT(m.counts.events, 0U);
  }
  EXPECT_EQ(make_workload("no_such_workload", Context{1, 1, dir_, &tracer_, &tally_}), nullptr);
}

TEST_F(WorkloadTest, FleetsCompareShardedAgainstSingleShardRuns) {
  auto w = make("fleet_windowed_ap");
  w->setup();
  w->round();
  EXPECT_EQ(tally_.failed(), 0U) << tally_.json();
  EXPECT_EQ(w->measurements().shards, 2);
  EXPECT_GT(w->measurements().counts.airtime_grants, 0U);
}

TEST_F(WorkloadTest, AFlippedByteInOneCacheEntryIsAFailedQuery) {
  auto w = make("cache_replay");
  w->setup();
  ASSERT_EQ(tally_.failed(), 0U) << tally_.json();

  std::vector<fs::path> entries;
  for (const auto& e : fs::recursive_directory_iterator(dir_ / "warm-0")) {
    if (e.is_regular_file() && e.path().extension() == ".res") entries.push_back(e.path());
  }
  ASSERT_FALSE(entries.empty());
  std::sort(entries.begin(), entries.end());
  {
    std::fstream f{entries.front(), std::ios::in | std::ios::out | std::ios::binary};
    const auto size = fs::file_size(entries.front());
    f.seekg(static_cast<std::streamoff>(size / 2));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.put(static_cast<char>(c ^ 0x5A));
  }

  w->round();
  EXPECT_EQ(tally_.failed(FailureKind::kWarmQueryMiss), 1U) << tally_.json();
  EXPECT_EQ(tally_.failed(), 1U) << tally_.json();
}

/// Re-encodes `r` with the first occurrence of `from`'s bit pattern
/// replaced by `to`, fixing up the CRC-32 trailer so it decodes.
ScenarioResult with_double_replaced(const ScenarioResult& r, double from, double to) {
  std::string bytes = iotsim::cache::encode_result(r);
  const auto needle = std::bit_cast<std::array<char, sizeof(double)>>(from);
  const auto at = std::search(bytes.begin(), bytes.end() - 4, needle.begin(), needle.end());
  EXPECT_NE(at, bytes.end() - 4);
  const auto patch = std::bit_cast<std::array<char, sizeof(double)>>(to);
  std::copy(patch.begin(), patch.end(), at);
  const auto* body = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::uint32_t crc = iotsim::codecs::util::crc32({body, bytes.size() - 4});
  for (int i = 0; i < 4; ++i) bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  auto decoded = iotsim::cache::decode_result(bytes);
  EXPECT_TRUE(decoded.has_value());
  return decoded.value_or(ScenarioResult{});
}

TEST(Checks, APerturbedPerHubEnergyTripsTheConservationCheck) {
  const Scenario sc = Scenario::builder()
                          .scheme(Scheme::kBcom)
                          .windows(1)
                          .add_hub(iotsim::hw::default_hub_spec(), {AppId::kA2StepCounter}, 2)
                          .add_hub(iotsim::hw::default_hub_spec(), {AppId::kA5Blynk}, 1)
                          .build();
  const ScenarioResult r = iotsim::core::run_scenario(sc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(check_conservation(r), "");
  EXPECT_EQ(check_span(r, 1), "");

  const double idle = r.hubs[1].energy.joules(iotsim::energy::Routine::kIdle);
  ASSERT_GT(idle, 0.0);
  const ScenarioResult perturbed = with_double_replaced(r, idle, idle * 1.5);
  EXPECT_NE(check_conservation(perturbed), "");
}

TEST(Checks, SchemeOrderingAndStepCounterInterrupts) {
  auto run = [](Scheme s) {
    return iotsim::core::run_scenario(
        Scenario::builder().apps({AppId::kA2StepCounter}).scheme(s).windows(2).build());
  };
  const ScenarioResult base = run(Scheme::kBaseline);
  const ScenarioResult batching = run(Scheme::kBatching);
  const ScenarioResult com = run(Scheme::kCom);
  EXPECT_EQ(check_scheme_ordering("A2", {&base, &batching, &com}), "");
  EXPECT_NE(check_scheme_ordering("A2", {&base, &com, &batching}), "");
  EXPECT_EQ(check_step_counter_interrupts(base, Scheme::kBaseline, 2), "");
  EXPECT_EQ(check_step_counter_interrupts(batching, Scheme::kBatching, 2), "");
  EXPECT_NE(check_step_counter_interrupts(base, Scheme::kBatching, 2), "");
  EXPECT_NE(check_span(base, 4), "");
}

TEST(Fingerprint, RefusesChecksAndSanitizerBuilds) {
  Fingerprint fp;
  EXPECT_EQ(refusal_reason(fp), "");
  fp.checks = true;
  EXPECT_NE(refusal_reason(fp), "");
  fp.checks = false;
  fp.sanitizer = "address";
  EXPECT_NE(refusal_reason(fp), "");
  EXPECT_EQ(refusal_reason(fingerprint()), "") << "tests run from an optimized, check-free build";
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
  Tracer t;
  t.set_enabled(true);
  {
    const Span outer{t, "core.outer"};
    const Span inner{t, "cache.inner"};
  }
  ASSERT_EQ(t.spans().size(), 2U);
  const auto& outer = t.spans()[0];
  const auto& inner = t.spans()[1];
  EXPECT_EQ(inner.parent, outer.id);
  const auto self = t.self_ns_by_layer();
  EXPECT_DOUBLE_EQ(self.at("core") + self.at("cache"),
                   static_cast<double>(outer.end_ns - outer.start_ns));
  EXPECT_NE(t.chrome_json().find("\"cat\":\"cache\""), std::string::npos);

  Tracer off;
  { const Span s{off, "core.ignored"}; }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace iotbench
