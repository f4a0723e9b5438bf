// ResultCache contract: store/lookup round-trips, every corruption mode
// degrades to a miss (never a wrong or torn result), concurrent writers of
// the same key are safe, and an unwritable cache directory degrades the
// cache instead of failing the caller.
#include "cache/result_cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/binary_io.h"
#include "cache/result_codec.h"
#include "codecs/util/checksum.h"
#include "core/result_json.h"
#include "core/scenario_runner.h"

namespace iotsim::cache {
namespace {

using apps::AppId;
using core::Scenario;
using core::ScenarioResult;
using core::Scheme;

class ResultCacheFixture : public ::testing::Test {
 protected:
  // Each test owns its directory: ctest runs every case as its own process,
  // in parallel, and a shared path would let one case's TearDown delete
  // another's live cache.
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path{::testing::TempDir()} /
           ("iotsim_result_cache-" + std::string{info->name()} + "-" + std::to_string(::getpid()));
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::permissions(dir_, std::filesystem::perms::owner_all,
                                 std::filesystem::perm_options::add, ec);
    std::filesystem::remove_all(dir_, ec);
  }

  static ScenarioResult sample(int windows = 2) {
    Scenario sc;
    sc.app_ids = {AppId::kA2StepCounter};
    sc.scheme = Scheme::kBatching;
    sc.windows = windows;
    return core::run_scenario(sc);
  }

  static std::string read_file(const std::filesystem::path& p) {
    std::ifstream in{p, std::ios::binary};
    std::string bytes{std::istreambuf_iterator<char>{in}, {}};
    return bytes;
  }

  static void write_file(const std::filesystem::path& p, const std::string& bytes) {
    std::ofstream out{p, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

TEST_F(ResultCacheFixture, StoreThenLookupRoundTrips) {
  ResultCache cache{dir_};
  const auto r = sample();
  ASSERT_TRUE(cache.store("key-a", r));
  const auto hit = cache.lookup("key-a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(encode_result(*hit), encode_result(r));
  EXPECT_EQ(core::to_json_text(*hit), core::to_json_text(r));
  const auto s = cache.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
}

TEST_F(ResultCacheFixture, MissOnAbsentKey) {
  ResultCache cache{dir_};
  EXPECT_EQ(cache.lookup("never-stored"), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.corrupt_entries, 0u);
}

TEST_F(ResultCacheFixture, EntriesAreShardedByFingerprint) {
  ResultCache cache{dir_};
  const auto p = cache.entry_path("key-a");
  // <dir>/<two hex chars>/<8 hex>-<16 hex>.res
  EXPECT_EQ(p.parent_path().parent_path(), dir_);
  EXPECT_EQ(p.parent_path().filename().string().size(), 2u);
  EXPECT_EQ(p.extension(), ".res");
  ASSERT_TRUE(cache.store("key-a", sample()));
  EXPECT_TRUE(std::filesystem::exists(p));
}

TEST_F(ResultCacheFixture, TruncatedEntryIsACorruptMiss) {
  ResultCache cache{dir_};
  ASSERT_TRUE(cache.store("key-a", sample()));
  const auto p = cache.entry_path("key-a");
  const std::string bytes = read_file(p);
  write_file(p, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(cache.lookup("key-a"), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.corrupt_entries, 1u);
  // The next store rewrites the entry and lookups recover.
  ASSERT_TRUE(cache.store("key-a", sample()));
  EXPECT_NE(cache.lookup("key-a"), nullptr);
}

TEST_F(ResultCacheFixture, FlippedByteFailsTheCrcAndMisses) {
  ResultCache cache{dir_};
  ASSERT_TRUE(cache.store("key-a", sample()));
  const auto p = cache.entry_path("key-a");
  std::string bytes = read_file(p);
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x01);
  write_file(p, bytes);
  EXPECT_EQ(cache.lookup("key-a"), nullptr);
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);
}

TEST_F(ResultCacheFixture, EntryVersionMismatchIsACorruptMiss) {
  ResultCache cache{dir_};
  const auto r = sample();
  // Hand-craft an entry with a future version and a *valid* CRC, so the
  // version gate itself (not the checksum) rejects it.
  ByteWriter w;
  w.u32(kEntryMagic);
  w.u32(kEntryVersion + 1);
  w.str("key-a");
  w.str(encode_result(r));
  std::string body = std::move(w).take();
  ByteWriter crc;
  crc.u32(codecs::util::crc32(
      std::span{reinterpret_cast<const std::uint8_t*>(body.data()), body.size()}));
  const auto p = cache.entry_path("key-a");
  std::filesystem::create_directories(p.parent_path());
  write_file(p, body + std::move(crc).take());
  EXPECT_EQ(cache.lookup("key-a"), nullptr);
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);
}

TEST_F(ResultCacheFixture, FingerprintCollisionMissesInsteadOfLying) {
  ResultCache cache{dir_};
  const auto r = sample();
  ASSERT_TRUE(cache.store("key-a", r));
  // Simulate a fingerprint collision: key-b's entry file contains key-a's
  // (perfectly valid) entry. The stored key comparison must reject it.
  const auto pb = cache.entry_path("key-b");
  std::filesystem::create_directories(pb.parent_path());
  write_file(pb, read_file(cache.entry_path("key-a")));
  EXPECT_EQ(cache.lookup("key-b"), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  // A collision is not corruption — the entry is intact, just not ours.
  EXPECT_EQ(s.corrupt_entries, 0u);
  EXPECT_NE(cache.lookup("key-a"), nullptr);
}

TEST_F(ResultCacheFixture, ConcurrentSameKeyStoresStayIntact) {
  const auto r = sample();
  const std::string want = encode_result(r);
  constexpr int kThreads = 8;
  // Many writers, one key, separate ResultCache instances (the
  // cross-process shape, minus the fork). Every interleaving must leave a
  // complete, valid entry — the atomic rename is the whole story here.
  std::vector<std::unique_ptr<ResultCache>> caches;
  for (int t = 0; t < kThreads; ++t) caches.push_back(std::make_unique<ResultCache>(dir_));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 8; ++round) {
        (void)caches[static_cast<std::size_t>(t)]->store("contended-key", r);
        const auto hit = caches[static_cast<std::size_t>(t)]->lookup("contended-key");
        if (hit != nullptr) EXPECT_EQ(encode_result(*hit), want);
      }
    });
  }
  for (auto& th : threads) th.join();
  ResultCache fresh{dir_};
  const auto hit = fresh.lookup("contended-key");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(encode_result(*hit), want);
}

TEST_F(ResultCacheFixture, UnwritableDirectoryDegradesToNeverStore) {
  // Point the cache at a path whose parent is a regular FILE: neither the
  // shard directories nor the temp files can ever be created, regardless
  // of privilege (root ignores permission bits, so a chmod-based test
  // would be skipped in containers — this one never is).
  const auto file_path = dir_;
  std::filesystem::create_directories(file_path.parent_path());
  write_file(file_path, "not a directory");
  ResultCache cache{file_path / "sub"};
  EXPECT_FALSE(cache.store("key-a", sample()));
  EXPECT_EQ(cache.lookup("key-a"), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.store_failures, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST_F(ResultCacheFixture, ReadOnlyDirectoryDegradesToNeverStore) {
  ResultCache warm{dir_};
  ASSERT_TRUE(warm.store("key-a", sample()));
  std::filesystem::permissions(dir_,
                               std::filesystem::perms::owner_write |
                                   std::filesystem::perms::group_write |
                                   std::filesystem::perms::others_write,
                               std::filesystem::perm_options::remove);
  // Root (CI containers) ignores permission bits — probe before asserting.
  const auto probe = dir_ / "probe.tmp";
  if (std::ofstream{probe}.is_open()) {
    std::filesystem::remove(probe);
    GTEST_SKIP() << "running with CAP_DAC_OVERRIDE; permission bits are moot";
  }
  ResultCache cache{dir_};
  // New shard directories cannot be created, so stores of fresh keys fail.
  // Pick a key whose shard directory does not exist yet (key-a's shard was
  // created while the cache was still writable and remains usable).
  std::string fresh_key = "key-b";
  for (int i = 0; std::filesystem::exists(cache.entry_path(fresh_key).parent_path()); ++i) {
    fresh_key = "key-b" + std::to_string(i);
  }
  EXPECT_FALSE(cache.store(fresh_key, sample(3)));
  EXPECT_GE(cache.stats().store_failures, 1u);
  // …while reads of existing entries still work.
  EXPECT_NE(cache.lookup("key-a"), nullptr);
}

}  // namespace
}  // namespace iotsim::cache
