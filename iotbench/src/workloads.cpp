#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <system_error>
#include <utility>

#include "bench/bench_util.h"
#include "cache/result_cache.h"
#include "cache/result_codec.h"
#include "core/result_json.h"
#include "core/scenario_runner.h"
#include "core/sweep.h"

namespace iotbench {

using iotsim::apps::AppId;
using iotsim::bench::active_world;
using iotsim::bench::combo_name;
using iotsim::bench::fig11_combos;
using iotsim::core::Scenario;
using iotsim::core::ScenarioBuilder;
using iotsim::core::ScenarioResult;
using iotsim::core::Scheme;
using iotsim::core::SweepOptions;
using iotsim::core::SweepRunner;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// The three hub portfolios of bench/fleet_scale.cpp (local to that file):
// wellness, home, telemetry.
const std::vector<std::vector<AppId>>& portfolios() {
  static const std::vector<std::vector<AppId>> p = {
      {AppId::kA2StepCounter, AppId::kA8Heartbeat},
      {AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x},
  };
  return p;
}

ScenarioBuilder single_hub(std::vector<AppId> ids, Scheme scheme, int windows,
                           std::uint64_t seed) {
  return Scenario::builder()
      .apps(std::move(ids))
      .scheme(scheme)
      .windows(windows)
      .seed(seed)
      .world(active_world());
}

/// A BCOM fleet of the three portfolios as count-compressed blocks; with
/// `uplink`, behind a 5 Mbit/s FIFO access point in 10 ms window-quantum
/// mode.
ScenarioBuilder bcom_fleet(int hubs, int windows, std::uint64_t seed, bool uplink) {
  auto builder =
      Scenario::builder().scheme(Scheme::kBcom).windows(windows).seed(seed).world(active_world());
  const auto& mixes = portfolios();
  const int per = hubs / static_cast<int>(mixes.size());
  int assigned = 0;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    const int count = m + 1 < mixes.size() ? per : hubs - assigned;
    if (count <= 0) continue;
    builder.add_hub(iotsim::hw::default_hub_spec(), mixes[m], count);
    assigned += count;
  }
  if (uplink) {
    iotsim::net::ApConfig ap;
    ap.bytes_per_second = 6.25e5;
    ap.backoff = iotsim::net::BackoffPolicy::kFifo;
    ap.reservation_window = iotsim::sim::Duration::ms(10);
    builder.network(ap);
  }
  return builder;
}

/// One worker, memoizing, with the disk tier at `cache_dir` when non-empty.
SweepOptions one_worker(const std::filesystem::path& cache_dir = {}) {
  SweepOptions opts;
  opts.jobs = 1;
  opts.cache_dir = cache_dir.string();
  return opts;
}

std::string json_of(Tracer& tracer, const ScenarioResult& r) {
  const Span span{tracer, "core.to_json_text"};
  return iotsim::core::to_json_text(r);
}

}  // namespace

void LayerCounts::add_result(const ScenarioResult& r) {
  const auto& k = r.energy.kernel();
  events += k.events_dispatched;
  peak_queue_depth = std::max<std::uint64_t>(peak_queue_depth, k.peak_queue_depth);
  interrupts += r.interrupts_raised;
  cpu_wakeups += r.cpu_wakeups;
  for (const auto& hub : r.hubs) {
    for (const auto& [id, app] : hub.apps) instructions += app.instructions;
  }
  const auto& c = r.energy.congestion();
  airtime_grants += c.grants;
  net_retries += c.retries;
  net_drops += c.drops;
  airtime_wait_sim_ms += c.airtime_wait.to_ms();
}

// ---- Workload ------------------------------------------------------------

void Workload::setup() {
  const Span span{tracer(), "bench.setup"};
  build_ms_ = 0.0;
  const auto t0 = Clock::now();
  do_setup();
  m_.setup_s.push_back(ms_since(t0) / 1e3);
  m_.build_ms.push_back(build_ms_);
}

void Workload::round() {
  const Span span{tracer(), "bench.round"};
  const auto t0 = Clock::now();
  const auto [units, op_ms] = do_round();
  m_.round_ms.push_back(ms_since(t0));
  m_.work_units += units;
  m_.op_ms += op_ms;
}

Scenario Workload::build(const std::function<ScenarioBuilder()>& make) {
  const auto t0 = Clock::now();
  Scenario sc;
  {
    const Span span{tracer(), "core.build"};
    sc = make().build();
  }
  std::vector<iotsim::core::ScenarioError> errors;
  {
    const Span span{tracer(), "core.validate"};
    errors = sc.validate();
  }
  build_ms_ += ms_since(t0);
  tally().attempt();
  if (!errors.empty()) tally().fail(FailureKind::kInvalidScenario, to_string(errors.front()));
  return sc;
}

void Workload::check_result(const ScenarioResult& r, int windows) {
  const Span span{tracer(), "bench.check_result"};
  if (!r.ok()) {
    tally().fail(FailureKind::kInvalidScenario, to_string(r.errors.front()));
    return;
  }
  if (auto bad = check_conservation(r); !bad.empty()) tally().fail(FailureKind::kConservation, bad);
  if (auto bad = check_span(r, windows); !bad.empty()) tally().fail(FailureKind::kSpan, bad);
}

void Workload::record_execution(const ScenarioResult& r, double ms) {
  m_.single_ms.push_back(ms);
  m_.single_events += r.energy.kernel().events_dispatched;
  m_.runner_ms_by_scheme[std::string{iotsim::core::to_string(r.scheme)}] += ms;
}

void Workload::verify_result(iotsim::cache::ResultCache& cache, const Scenario& sc,
                             const ScenarioResult& r) {
  tally().attempt(3);
  const std::string json = json_of(tracer(), r);
  std::string key;
  {
    const Span span{tracer(), "core.scenario_key"};
    key = iotsim::core::scenario_key(sc);
  }
  std::string bytes;
  {
    const Span span{tracer(), "cache.encode_result"};
    bytes = iotsim::cache::encode_result(r);
  }
  std::optional<ScenarioResult> decoded;
  {
    const Span span{tracer(), "cache.decode_result"};
    decoded = iotsim::cache::decode_result(bytes);
  }
  m_.key_bytes.push_back(static_cast<double>(key.size()));
  m_.codec_bytes.push_back(static_cast<double>(bytes.size()));
  m_.json_bytes.push_back(static_cast<double>(json.size()));
  if (!decoded || iotsim::cache::encode_result(*decoded) != bytes ||
      iotsim::core::to_json_text(*decoded) != json) {
    tally().fail(FailureKind::kCodecRoundTrip, "decode(encode(r)) differs for " + combo_name(sc.app_ids));
  }
  bool stored = false;
  {
    const Span span{tracer(), "cache.store"};
    stored = cache.store(key, r);
  }
  if (!stored) tally().fail(FailureKind::kStoreFailure, "verification store into " + cache.dir().string());
  std::shared_ptr<const ScenarioResult> hit;
  {
    const Span span{tracer(), "cache.lookup"};
    hit = cache.lookup(key);
  }
  if (!hit) {
    tally().fail(FailureKind::kWarmQueryMiss, "verification lookup missed a stored result");
  } else if (json_of(tracer(), *hit) != json) {
    tally().fail(FailureKind::kWarmQueryMismatch, "verification lookup returned other JSON");
  }
}

void Workload::count_round(const std::vector<const ScenarioResult*>& results) {
  if (m_.counted) return;
  for (const auto* r : results) m_.counts.add_result(*r);
  m_.counted = true;
}

namespace {

// ---- paper_sweep -----------------------------------------------------------
//
// Figs. 10-12 of the paper: A1-A10 × {Baseline, Batching, COM}, the 14
// sensor-sharing combos × {Baseline, BEAM, BCOM}, and the A11 heavyweight
// mixes — 82 distinct single-hub scenarios. A round runs each once through
// a fresh memoizing SweepRunner on one worker, then asks for every cell
// again as a figure table does (memo hits).
class PaperSweep final : public Workload {
 public:
  using Workload::Workload;

  void verify() override {
    iotsim::cache::ResultCache cache{ctx_.dir / "verify"};
    for (std::size_t i = 0; i < scenarios_.size(); ++i) verify_result(cache, scenarios_[i], results_[i]);
  }

 protected:
  void do_setup() override {
    scenarios_.clear();
    orderings_.clear();
    step_counter_.clear();
    const std::uint64_t seed = mix(ctx_.seed);
    const int w = sizes_.sweep_windows;
    auto add_group = [&](const std::vector<AppId>& ids, std::initializer_list<Scheme> schemes,
                         bool ordered) {
      std::vector<std::size_t> group;
      for (const Scheme s : schemes) {
        group.push_back(scenarios_.size());
        scenarios_.push_back(build([&] { return single_hub(ids, s, w, seed); }));
        if (ids == std::vector<AppId>{AppId::kA2StepCounter}) step_counter_.push_back(group.back());
      }
      if (ordered) orderings_.emplace_back(combo_name(ids), std::move(group));
    };
    for (const AppId id : iotsim::apps::kLightweightApps) {
      add_group({id}, {Scheme::kBaseline, Scheme::kBatching, Scheme::kCom}, true);
    }
    for (const auto& combo : fig11_combos()) {
      add_group(combo, {Scheme::kBaseline, Scheme::kBeam, Scheme::kBcom}, true);
    }
    add_group({AppId::kA11SpeechToText}, {Scheme::kBaseline, Scheme::kBatching}, false);
    for (const auto& ids : {std::vector<AppId>{AppId::kA11SpeechToText, AppId::kA6Dropbox},
                            std::vector<AppId>{AppId::kA11SpeechToText, AppId::kA6Dropbox,
                                               AppId::kA1CoapServer}}) {
      add_group(ids, {Scheme::kBaseline, Scheme::kBeam, Scheme::kBatching, Scheme::kBcom}, false);
    }
  }

  RoundWork do_round() override {
    SweepRunner runner{one_worker()};
    results_.clear();
    results_.reserve(scenarios_.size());
    const auto t0 = Clock::now();
    for (const auto& sc : scenarios_) {
      const auto t = Clock::now();
      {
        const Span span{tracer(), "core.sweep.run_one"};
        results_.push_back(runner.run_one(sc));
      }
      const double ms = ms_since(t);
      m_.request_ms.push_back(ms);
      record_execution(results_.back(), ms);
    }
    for (const auto& sc : scenarios_) {
      const Span span{tracer(), "core.sweep.run_one"};
      (void)runner.run_one(sc);
    }
    const double op_ms = ms_since(t0);
    tally().attempt(2 * scenarios_.size());

    for (std::size_t i = 0; i < scenarios_.size(); ++i) check_result(results_[i], scenarios_[i].windows);
    for (const std::size_t i : step_counter_) {
      const auto bad = check_step_counter_interrupts(results_[i], scenarios_[i].scheme,
                                                     scenarios_[i].windows);
      if (!bad.empty()) tally().fail(FailureKind::kInterruptCount, bad);
    }
    for (const auto& [label, group] : orderings_) {
      std::vector<const ScenarioResult*> ordered;
      for (const std::size_t i : group) ordered.push_back(&results_[i]);
      if (auto bad = check_scheme_ordering(label, ordered); !bad.empty()) {
        tally().fail(FailureKind::kSchemeOrdering, bad);
      }
    }
    if (!m_.counted) {
      m_.counts.sweep_executed = runner.stats().executed;
      m_.counts.sweep_memo_hits = runner.stats().cache_hits;
      std::vector<const ScenarioResult*> all;
      for (const auto& r : results_) all.push_back(&r);
      count_round(all);
    }
    return {static_cast<double>(runner.stats().executed), op_ms};
  }

 private:
  std::vector<Scenario> scenarios_;
  std::vector<std::pair<std::string, std::vector<std::size_t>>> orderings_;
  std::vector<std::size_t> step_counter_;
  std::vector<ScenarioResult> results_;
};

// ---- fleet_ideal / fleet_windowed_ap -----------------------------------------
//
// One BCOM fleet run at 1 shard and then at `workers` shards per round;
// every sharded result must serialize byte-identically to the single-shard
// one. Work is simulated hub-seconds.
class Fleet final : public Workload {
  // Sharded runs per round: they take a fraction of the single-shard run's
  // time and vary more, so each round samples them more often.
  static constexpr int kShardedRuns = 3;

 public:
  Fleet(Context ctx, Sizes sizes, bool uplink)
      : Workload{std::move(ctx), std::move(sizes)}, uplink_{uplink} {}

  void verify() override {
    iotsim::cache::ResultCache cache{ctx_.dir / "verify"};
    verify_result(cache, scenario_, last_);
  }

 protected:
  void do_setup() override {
    const int hubs = uplink_ ? sizes_.ap_hubs : sizes_.fleet_hubs;
    scenario_ = build([&] { return bcom_fleet(hubs, sizes_.fleet_windows, mix(ctx_.seed), uplink_); });
  }

  RoundWork do_round() override {
    auto run = [&](int shards, double& ms) {
      const Span span{tracer(), "core.run_scenario"};
      const auto t = Clock::now();
      ScenarioResult r = iotsim::core::run_scenario(scenario_, iotsim::core::ExecPolicy{.shards = shards});
      ms = ms_since(t);
      return r;
    };
    double single_ms = 0.0;
    last_ = run(1, single_ms);
    record_execution(last_, single_ms);
    check_result(last_, scenario_.windows);
    const std::string single_json = json_of(tracer(), last_);
    double op_ms = single_ms;
    for (int i = 0; i < kShardedRuns; ++i) {
      double sharded_ms = 0.0;
      const ScenarioResult sharded = run(ctx_.workers, sharded_ms);
      op_ms += sharded_ms;
      m_.sharded_ms.push_back(sharded_ms);
      m_.request_ms.push_back(sharded_ms);
      m_.shards = sharded.energy.kernel().shards;
      if (json_of(tracer(), sharded) != single_json) {
        tally().fail(FailureKind::kShardDivergence, "sharded JSON differs from the single-shard run");
      } else if (ctx_.workers > 1 && m_.shards != ctx_.workers) {
        tally().fail(FailureKind::kShardDivergence,
                     "the fleet ran on " + std::to_string(m_.shards) + " shards, not " +
                         std::to_string(ctx_.workers));
      }
    }
    tally().attempt(1 + kShardedRuns);
    count_round({&last_});
    // Sampled hub-seconds: the drain tail after the last window is left out
    // so the work per round does not depend on the seed.
    const double hub_seconds = static_cast<double>(scenario_.fleet_size()) * scenario_.windows;
    return {(1 + kShardedRuns) * hub_seconds, op_ms};
  }

 private:
  bool uplink_;
  Scenario scenario_;
  ScenarioResult last_;
};

// ---- cache_replay --------------------------------------------------------------
//
// Set-up simulates a fixed mix — the fig10 single-hub cells, BEAM/BCOM
// multi-app cells and BCOM fleets of up to 64 hubs — into a fresh disk
// cache. A round is a closed loop from one client: every scenario queried
// six times, each pass in a seeded scrambled order, each query through a
// fresh SweepRunner over the warm directory and rendered with to_json_text;
// then every result stored once into a second directory (empty before the
// first round; later rounds replace its entries). Nothing executes.
class CacheReplay final : public Workload {
  // Query passes per store pass. A store creates and renames a file, and
  // on an ext4 volume mounted with discard that churn slowed later stores
  // run after run, and store times vary widely; six reads per write keep
  // the round read-dominated.
  static constexpr int kQueryPasses = 6;

 public:
  using Workload::Workload;

  ~CacheReplay() override {
    std::error_code ec;
    if (!warm_.empty()) std::filesystem::remove_all(warm_, ec);
  }

  void verify() override {
    iotsim::cache::ResultCache cache{ctx_.dir / "verify"};
    for (std::size_t i = 0; i < scenarios_.size(); ++i) verify_result(cache, scenarios_[i], results_[i]);
  }

 protected:
  void do_setup() override {
    std::error_code ec;
    if (!warm_.empty()) std::filesystem::remove_all(warm_, ec);
    warm_ = ctx_.dir / ("warm-" + std::to_string(setups_++));
    scenarios_.clear();
    const std::uint64_t seed = mix(ctx_.seed);
    const int w = sizes_.cache_windows;
    for (const AppId id : iotsim::apps::kLightweightApps) {
      for (const Scheme s : {Scheme::kBaseline, Scheme::kBatching, Scheme::kCom}) {
        scenarios_.push_back(build([&] { return single_hub({id}, s, w, seed); }));
      }
    }
    for (std::size_t c = 0; c < 4; ++c) {
      for (const Scheme s : {Scheme::kBeam, Scheme::kBcom}) {
        scenarios_.push_back(build([&] { return single_hub(fig11_combos()[c], s, w, seed); }));
      }
    }
    for (const int hubs : sizes_.cache_fleet_hubs) {
      scenarios_.push_back(build([&] { return bcom_fleet(hubs, sizes_.fleet_windows, seed, false); }));
    }

    SweepRunner populate{one_worker(warm_)};
    results_.clear();
    expected_json_.clear();
    for (const auto& sc : scenarios_) {
      const auto t = Clock::now();
      {
        const Span span{tracer(), "core.sweep.run_one"};
        results_.push_back(populate.run_one(sc));
      }
      record_execution(results_.back(), ms_since(t));
      check_result(results_.back(), sc.windows);
      expected_json_.push_back(json_of(tracer(), results_.back()));
    }
    if (populate.stats().disk_stores != scenarios_.size()) {
      tally().fail(FailureKind::kStoreFailure, "set-up persisted " +
                                                   std::to_string(populate.stats().disk_stores) +
                                                   " of " + std::to_string(scenarios_.size()));
    }
    order_state_ = mix(ctx_.seed ^ 0x5eedULL);
  }

  RoundWork do_round() override {
    const std::size_t n = scenarios_.size();
    // Each pass visits every scenario once in a seeded Fisher-Yates order,
    // never the set-up order.
    std::vector<std::size_t> order;
    for (int pass = 0; pass < kQueryPasses; ++pass) {
      std::vector<std::size_t> perm(n);
      for (std::size_t i = 0; i < n; ++i) perm[i] = i;
      for (std::size_t i = n; i > 1; --i) {
        order_state_ = mix(order_state_);
        std::swap(perm[i - 1], perm[order_state_ % i]);
      }
      order.insert(order.end(), perm.begin(), perm.end());
    }

    const bool count = !m_.counted;
    double query_ms = 0.0;
    for (const std::size_t i : order) {
      iotsim::core::SweepStats stats;
      iotsim::cache::CacheStats cache_stats;
      std::string json;
      const auto t = Clock::now();
      {
        const Span span{tracer(), "bench.query"};
        SweepRunner runner{one_worker(warm_)};
        ScenarioResult r;
        {
          const Span run_span{tracer(), "core.sweep.run_one"};
          r = runner.run_one(scenarios_[i]);
        }
        json = json_of(tracer(), r);
        stats = runner.stats();
        cache_stats = runner.disk_cache()->stats();
      }
      const double ms = ms_since(t);
      query_ms += ms;
      m_.request_ms.push_back(ms);
      if (stats.disk_hits != 1 || stats.executed != 0) {
        tally().fail(FailureKind::kWarmQueryMiss,
                     "query " + std::to_string(i) + " was not served from the warm cache");
      } else if (json != expected_json_[i]) {
        tally().fail(FailureKind::kWarmQueryMismatch, "query " + std::to_string(i) + " answered other JSON");
      }
      if (count) {
        m_.counts.sweep_executed += stats.executed;
        m_.counts.sweep_memo_hits += stats.cache_hits;
        m_.counts.cache_hits += cache_stats.hits;
        m_.counts.cache_misses += cache_stats.misses;
        m_.counts.cache_corrupt += cache_stats.corrupt_entries;
      }
    }

    const auto store_dir = ctx_.dir / "store";
    double store_ms = 0.0;
    {
      iotsim::cache::ResultCache store{store_dir};
      const auto t = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        std::string key;
        {
          const Span span{tracer(), "core.scenario_key"};
          key = iotsim::core::scenario_key(scenarios_[i]);
        }
        bool ok = false;
        {
          const Span span{tracer(), "cache.store"};
          ok = store.store(key, results_[i]);
        }
        if (!ok) tally().fail(FailureKind::kStoreFailure, "store into " + store_dir.string());
      }
      store_ms = ms_since(t);
      if (count) m_.counts.cache_store_failures += store.stats().store_failures;
    }
    tally().attempt((kQueryPasses + 1) * n);

    if (count) {
      std::vector<const ScenarioResult*> all;
      for (const auto& r : results_) all.push_back(&r);
      count_round(all);
    }
    m_.store_ms.push_back(store_ms);
    m_.stores += n;
    return {static_cast<double>((kQueryPasses + 1) * n), query_ms + store_ms};
  }

 private:
  std::vector<Scenario> scenarios_;
  std::vector<ScenarioResult> results_;
  std::vector<std::string> expected_json_;
  std::filesystem::path warm_;
  std::uint64_t order_state_ = 0;
  int setups_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, Context ctx, Sizes sizes) {
  if (name == "paper_sweep") return std::make_unique<PaperSweep>(std::move(ctx), std::move(sizes));
  if (name == "fleet_ideal") return std::make_unique<Fleet>(std::move(ctx), std::move(sizes), false);
  if (name == "fleet_windowed_ap") {
    return std::make_unique<Fleet>(std::move(ctx), std::move(sizes), true);
  }
  if (name == "cache_replay") return std::make_unique<CacheReplay>(std::move(ctx), std::move(sizes));
  return nullptr;
}

}  // namespace iotbench
