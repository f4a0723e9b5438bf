// The benchmark's four workloads. Each one loads a different layer of the
// simulator; README.md gives the layer → metric mapping and why each
// workload was chosen.
//
//  paper_sweep        the paper's single-hub design space (Figs. 10-12)
//                     through one memoizing SweepRunner on one worker
//  fleet_ideal        a count-compressed BCOM fleet on the ideal medium, at
//                     1 shard and at min(4, cores) shards, byte-compared
//  fleet_windowed_ap  a BCOM fleet behind a finite window-quantum uplink,
//                     at 1 and at min(4, cores) shards, byte-compared
//  cache_replay       warm single-scenario queries from a disk cache plus
//                     stores into an empty one; no scenario executes
//
// A workload is set up several times (the last set-up is kept), then runs
// whole rounds of identical operations, then verifies what it produced.
// Inputs depend only on the seed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checks.h"
#include "core/scenario.h"
#include "tracer.h"

namespace iotsim::cache {
class ResultCache;
}

namespace iotbench {

/// Input sizes. The defaults are the benchmark's; tests shrink them.
struct Sizes {
  int sweep_windows = 2;
  int fleet_hubs = 480;  // > 4096 live events: the single kernel migrates to the calendar queue
  int ap_hubs = 240;
  int fleet_windows = 1;
  int cache_windows = 2;
  std::vector<int> cache_fleet_hubs = {4, 16, 64};
};

inline constexpr std::string_view kWorkloadNames[] = {"paper_sweep", "fleet_ideal",
                                                      "fleet_windowed_ap", "cache_replay"};

/// Simulated statistics of the distinct results one round delivers.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t cpu_wakeups = 0;
  std::uint64_t instructions = 0;
  std::uint64_t airtime_grants = 0;
  std::uint64_t net_retries = 0;
  std::uint64_t net_drops = 0;
  double airtime_wait_sim_ms = 0.0;
  std::uint64_t sweep_executed = 0;
  std::uint64_t sweep_memo_hits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_corrupt = 0;
  std::uint64_t cache_store_failures = 0;

  void add_result(const iotsim::core::ScenarioResult& r);
};

/// Host-time measurements a workload accumulates (benchmark-side clocks).
struct Measurements {
  std::vector<double> setup_s;       // one per set-up
  std::vector<double> build_ms;      // builder + validate time of each set-up
  std::vector<double> round_ms;      // wall time of each timed round
  double work_units = 0.0;           // work units of all rounds
  double op_ms = 0.0;                // host time of all rounds' operations
  std::vector<double> request_ms;    // each request's latency
  std::vector<double> single_ms;     // each one-worker scenario execution
  std::vector<double> sharded_ms;    // each multi-shard fleet run
  std::vector<double> store_ms;      // each round's store loop (cache_replay)
  std::uint64_t stores = 0;
  std::uint64_t single_events = 0;   // events those executions dispatched
  std::map<std::string, double> runner_ms_by_scheme;
  int shards = 1;                    // shard count of the sharded runs
  LayerCounts counts;                // one round's worth
  bool counted = false;
  // Sizes seen by verify(): mean bytes per call.
  std::vector<double> key_bytes, codec_bytes, json_bytes;
};

/// What every workload is handed: the seed, worker budget, its private
/// directory, and the run's tracer and failure tally.
struct Context {
  std::uint64_t seed = 1;
  int workers = 1;
  std::filesystem::path dir;
  Tracer* tracer = nullptr;
  Tally* tally = nullptr;
};

/// What one round did: work units completed and the host time of the
/// operations themselves (checks excluded).
struct RoundWork {
  double units = 0.0;
  double op_ms = 0.0;
};

class Workload {
 public:
  Workload(Context ctx, Sizes sizes) : ctx_{std::move(ctx)}, sizes_{std::move(sizes)} {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds and validates the inputs (and fills caches); repeatable, the
  /// last set-up is the one the rounds use.
  void setup();
  /// One whole round of the timed operations.
  void round();
  /// Checks made once on what the rounds produced (codec round-trip,
  /// cache store/lookup of every distinct result).
  virtual void verify() = 0;

  [[nodiscard]] const Measurements& measurements() const { return m_; }

 protected:
  virtual void do_setup() = 0;
  virtual RoundWork do_round() = 0;

  /// Makes the builder and builds (span core.build), then validates (span
  /// core.validate) one scenario; an invalid one is a failed operation.
  iotsim::core::Scenario build(const std::function<iotsim::core::ScenarioBuilder()>& make);
  /// Conservation and span checks on one executed result.
  void check_result(const iotsim::core::ScenarioResult& r, int windows);
  /// Books one scenario execution on a single worker.
  void record_execution(const iotsim::core::ScenarioResult& r, double ms);
  /// Key, codec round-trip, and a store then lookup through `cache`.
  void verify_result(iotsim::cache::ResultCache& cache, const iotsim::core::Scenario& sc,
                     const iotsim::core::ScenarioResult& r);
  /// Records the simulated statistics of one round (the first one).
  void count_round(const std::vector<const iotsim::core::ScenarioResult*>& results);

  Tracer& tracer() { return *ctx_.tracer; }
  Tally& tally() { return *ctx_.tally; }

  Context ctx_;
  Sizes sizes_;
  Measurements m_;
  double build_ms_ = 0.0;  // builder + validate time of the current set-up
};

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, Context ctx,
                                                      Sizes sizes = {});

/// Seed → 64-bit stream (splitmix64), for every seeded input choice.
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

}  // namespace iotbench
