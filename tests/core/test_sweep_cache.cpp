// The sweep's persistent disk tier: a fresh SweepRunner pointed at a warm
// cache directory must serve whole sweeps without executing a single
// scenario, bit-identically to the cold run, under both run() and
// run_one(), and concurrently from multiple runners sharing the directory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "core/result_json.h"
#include "core/sweep.h"

namespace iotsim::core {
namespace {

using apps::AppId;

class SweepDiskCacheFixture : public ::testing::Test {
 protected:
  // Each test owns its directory: ctest runs every case as its own process,
  // in parallel, and a shared path would let one case's TearDown delete
  // another's live cache.
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path{::testing::TempDir()} /
           ("iotsim_sweep_disk_cache-" + std::string{info->name()} + "-" +
            std::to_string(::getpid()));
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static Scenario quick(AppId id, Scheme scheme, int seed = 7) {
    Scenario sc;
    sc.app_ids = {id};
    sc.scheme = scheme;
    sc.windows = 1;
    sc.seed = seed;
    return sc;
  }

  static std::vector<Scenario> grid() {
    return {quick(AppId::kA2StepCounter, Scheme::kBaseline),
            quick(AppId::kA2StepCounter, Scheme::kBatching),
            quick(AppId::kA3ArduinoJson, Scheme::kCom)};
  }

  SweepOptions with_disk(int jobs = 2) const {
    return SweepOptions{.jobs = jobs, .cache_dir = dir_.string()};
  }

  std::filesystem::path dir_;
};

TEST_F(SweepDiskCacheFixture, WarmRunnerExecutesNothingAndMatchesByteForByte) {
  const auto sweep = grid();
  std::vector<std::string> cold;
  {
    SweepRunner runner{with_disk()};
    for (const auto& r : runner.run(sweep)) cold.push_back(to_json_text(r));
    EXPECT_EQ(runner.stats().executed, sweep.size());
    EXPECT_EQ(runner.stats().disk_stores, sweep.size());
    EXPECT_EQ(runner.stats().disk_hits, 0u);
  }
  SweepRunner warm{with_disk()};
  const auto results = warm.run(sweep);
  EXPECT_EQ(warm.stats().executed, 0u);
  EXPECT_EQ(warm.stats().disk_hits, sweep.size());
  EXPECT_EQ(warm.stats().disk_stores, 0u);
  ASSERT_EQ(results.size(), cold.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(to_json_text(results[i]), cold[i]) << "scenario " << i;
  }
}

TEST_F(SweepDiskCacheFixture, RunOnePromotesDiskHitsIntoTheMemo) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBaseline);
  {
    SweepRunner runner{with_disk(1)};
    (void)runner.run_one(sc);
    EXPECT_EQ(runner.stats().disk_stores, 1u);
  }
  SweepRunner warm{with_disk(1)};
  (void)warm.run_one(sc);
  EXPECT_EQ(warm.stats().executed, 0u);
  EXPECT_EQ(warm.stats().disk_hits, 1u);
  // Promoted into the in-memory memo: the second query is a memory hit,
  // not a second disk read.
  (void)warm.run_one(sc);
  EXPECT_EQ(warm.stats().disk_hits, 1u);
  EXPECT_EQ(warm.stats().cache_hits, 1u);
}

TEST_F(SweepDiskCacheFixture, MemoryTierStillDedupesWithinARun) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBaseline);
  SweepRunner runner{with_disk()};
  (void)runner.run({sc, sc, sc});
  EXPECT_EQ(runner.stats().executed, 1u);
  EXPECT_EQ(runner.stats().cache_hits, 2u);
  // Each distinct scenario is stored once, not once per duplicate.
  EXPECT_EQ(runner.stats().disk_stores, 1u);
}

TEST_F(SweepDiskCacheFixture, ClearCacheKeepsTheDiskTier) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBaseline);
  SweepRunner runner{with_disk()};
  (void)runner.run({sc});
  runner.clear_cache();
  EXPECT_EQ(runner.cache_size(), 0u);
  EXPECT_EQ(runner.stats().executed, 0u);  // stats reset too
  // The memo is gone but the disk tier survives: re-running is a disk hit.
  (void)runner.run({sc});
  EXPECT_EQ(runner.stats().executed, 0u);
  EXPECT_EQ(runner.stats().disk_hits, 1u);
}

TEST_F(SweepDiskCacheFixture, DiskTierRequiresMemoization) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBaseline);
  SweepRunner runner{SweepOptions{.jobs = 1, .memoize = false, .cache_dir = dir_.string()}};
  EXPECT_EQ(runner.disk_cache(), nullptr);
  (void)runner.run({sc});
  (void)runner.run({sc});
  EXPECT_EQ(runner.stats().executed, 2u);
  EXPECT_EQ(runner.stats().disk_stores, 0u);
}

TEST_F(SweepDiskCacheFixture, NoCacheDirMeansNoDiskTier) {
  SweepRunner runner{SweepOptions{.jobs = 1}};
  EXPECT_EQ(runner.disk_cache(), nullptr);
  (void)runner.run({quick(AppId::kA2StepCounter, Scheme::kBaseline)});
  EXPECT_EQ(runner.stats().disk_stores, 0u);
}

TEST_F(SweepDiskCacheFixture, ConcurrentRunnersShareTheDirectorySafely) {
  // Two runners, same cache directory, racing over an overlapping grid —
  // the shape TSan must bless. Results must match the serial baseline.
  const auto sweep = grid();
  std::vector<std::string> want;
  {
    SweepRunner serial{SweepOptions{.jobs = 1}};
    for (const auto& r : serial.run(sweep)) want.push_back(to_json_text(r));
  }
  std::vector<std::vector<std::string>> got(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      SweepRunner runner{with_disk()};
      for (const auto& r : runner.run(sweep)) {
        got[static_cast<std::size_t>(t)].push_back(to_json_text(r));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 2; ++t) {
    ASSERT_EQ(got[static_cast<std::size_t>(t)].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(t)][i], want[i]);
    }
  }
  // Whoever lost the race, the directory ends warm and consistent.
  SweepRunner warm{with_disk()};
  (void)warm.run(sweep);
  EXPECT_EQ(warm.stats().executed, 0u);
}

}  // namespace
}  // namespace iotsim::core
