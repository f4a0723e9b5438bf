// Assembles a Scenario into a live simulation and runs it to completion.
//
// The per-hub machinery (hub hardware, sensors, streams, executors, offload
// plan, QoS) lives in core::HubRuntime; the runner's job is the fleet shape:
// resolve the scenario's hub list (one legacy hub or a count-expanded
// HubInstance fleet), drive every HubRuntime, and collect the fleet-level
// plus per-hub sections of the ScenarioResult.
//
// Execution shape is a separate axis (core/exec_policy.h): run() drives the
// whole fleet from one Simulator on the calling thread; run(policy) may
// deal a fleet's hubs round-robin to shards, one Simulator and energy ledger
// per shard on its own worker thread, merging results in global hub order
// so the output is byte-identical either way. Hubs are materialized lazily from
// Scenario::fleet() inside their shard worker — each hub's runtime state
// lives in its shard's arena, so a 10k-hub fleet never exists on one heap
// at once and construction itself parallelizes with the shard count.
//
// Fleets coupled through a shared access point shard too, when the AP runs
// in window-quantum mode (ApConfig::reservation_window > 0): the shard
// window is forced to the reservation window, every shard drains to the
// boundary, and the barrier completion step arbitrates the batched airtime
// requests — the same total order the single-kernel run derives from its
// boundary system events, hence byte-identical results.
#pragma once

#include "core/exec_policy.h"
#include "core/reports.h"
#include "core/scenario.h"
// Part of this header's established surface: consumers of the runner build
// hubs and simulators of their own (benches, examples) and have always
// reached those types through this include.
#include "hw/iot_hub.h"
#include "sim/simulator.h"

namespace iotsim::core {

class ScenarioRunner {
 public:
  explicit ScenarioRunner(Scenario scenario) : scenario_{std::move(scenario)} {}

  /// Runs the whole scenario single-threaded; every call builds a fresh
  /// simulation. If the scenario fails Scenario::validate(), nothing runs
  /// and the returned result carries the errors.
  [[nodiscard]] ScenarioResult run();

  /// Runs under `policy`, sharding the fleet when the scenario permits it.
  /// Results are byte-identical to run() for every policy.
  [[nodiscard]] ScenarioResult run(const ExecPolicy& policy);

  /// The shard count run(policy) would actually use for this scenario:
  /// `policy.shards` clamped to the fleet size, collapsed to 1 when hubs
  /// couple through a shared access point *without* window-quantum
  /// arbitration (ApConfig::reservation_window == 0) or a power trace is
  /// recorded. A windowed AP is a coupling contract the shard barrier can
  /// honour, so those fleets keep their shards.
  [[nodiscard]] int effective_shards(const ExecPolicy& policy) const;

  /// The shard window run(policy) would actually use: `policy.window`,
  /// overridden by the AP's reservation window when the scenario couples
  /// hubs through a window-quantum access point (shards must synchronize
  /// exactly at arbitration boundaries — no other quantum is sound).
  [[nodiscard]] sim::Duration effective_window(const ExecPolicy& policy) const;

 private:
  [[nodiscard]] ScenarioResult run_single();
  [[nodiscard]] ScenarioResult run_sharded(int shards, sim::Duration window);

  Scenario scenario_;
};

/// Convenience: run one scenario.
[[nodiscard]] ScenarioResult run_scenario(Scenario scenario, ExecPolicy policy = {});

}  // namespace iotsim::core
