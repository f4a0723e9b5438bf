// One hub's complete runtime: the hardware instance plus the sensors, PIO
// buses, sampling streams, executors, offload plan and QoS/MIPS bookkeeping
// that ScenarioRunner used to hard-wire for exactly one hub.
//
// A scenario run owns a list of HubRuntimes, all driven by one shared
// sim::Simulator and accounted in one shared energy::EnergyAccountant —
// fleet mode scopes every component name per hub ("hub0/cpu", "hub1/mcu",
// …), while the legacy single-hub path keeps the historical flat names so
// existing results stay byte-identical.
//
// Life cycle (ScenarioRunner drives it):
//   1. construct     — offload plan, app modes, executors, sensors, buses;
//                      every powered component registers with the ledger
//   2. attach_trace  — optional, after *all* hubs exist
//   3. start         — wire streams + IRQ lines, spawn coroutines
//   4. sim.run(); flush_power()
//   5. harvest       — per-hub HubResult (energy slice, apps, QoS)
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/app_executor.h"
#include "core/offload_planner.h"
#include "core/reports.h"
#include "core/scenario.h"
#include "env/hub_environment.h"
#include "sim/arena.h"

namespace iotsim::net {
class Medium;
}

namespace iotsim::core {

class HubRuntime {
 public:
  /// Everything one hub needs to build itself. `component_scope` names the
  /// hub inside the shared accountant ("hub1" ⇒ components "hub1/cpu", …);
  /// empty keeps the historical flat names (single-hub back-compat).
  struct Config {
    std::string name;             // result-facing name ("hub0")
    std::string component_scope;  // accountant scope; "" on the legacy path
    hw::HubSpec spec;
    std::vector<apps::AppId> app_ids;
    sensors::WorldConfig world;
    Scheme scheme = Scheme::kBaseline;
    int windows = 1;
    int batch_flushes_per_window = 1;
    double mcu_speed_factor = 1.0;
    std::uint64_t seed = 0;
    /// Flat fleet index of this hub (HubView::index). Decides the hub's
    /// medium attachment slots (2i main, 2i+1 MCU) so attachment handles do
    /// not depend on the order shard workers build their hubs in.
    std::size_t hub_index = 0;
    /// Shared medium this hub's NICs transmit through; nullptr leaves the
    /// NICs unattached (the pre-network-layer behaviour). Must outlive the
    /// runtime. Backoff RNG streams are derived from `seed` with fixed
    /// salts, independent of the hub's sensor/fault streams.
    net::Medium* medium = nullptr;
    /// Arena the hub's container spines (streams, executors) allocate from —
    /// the shard's frame arena, so a lazily built fleet keeps each hub's
    /// runtime state on its own shard instead of one global heap. nullptr ⇒
    /// the global heap (standalone construction in tests). Must outlive the
    /// runtime.
    sim::Arena* arena = nullptr;
    /// This hub's environment: fault profile, crash model, power source.
    /// Unset ⇒ the legacy always-on hub (iid faults from `world`, mains
    /// power) — numerically identical to the pre-environment runtime.
    std::optional<env::EnvironmentConfig> env;
  };

  /// Builds the hub's hardware and app topology; registers every powered
  /// component with `acct`. Nothing is spawned yet.
  HubRuntime(sim::Simulator& sim, energy::EnergyAccountant& acct, Config cfg);

  HubRuntime(const HubRuntime&) = delete;
  HubRuntime& operator=(const HubRuntime&) = delete;

  /// Wires the sampling streams and IRQ lines, then spawns every coroutine
  /// onto the shared simulator. Call exactly once, after construction (and
  /// after any attach_trace, so the trace sees all components).
  void start();

  template <typename Trace>
  void attach_trace(Trace& trace) {
    hub_->attach_trace(trace);
  }

  /// Closes all of this hub's open power segments (after the sim drains).
  void flush_power() { hub_->flush_power(); }

  /// Collects this hub's slice of the run: its components' energy report,
  /// per-app results, offload plan and QoS verdicts.
  [[nodiscard]] HubResult harvest(sim::Duration span) const;

  /// The components this hub registered, in the ledger it was built on.
  [[nodiscard]] energy::LedgerSlice ledger_slice() const {
    return {&acct_, comp_begin_, comp_end_};
  }

  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] hw::IotHub& hub() { return *hub_; }
  /// Availability snapshot (default "always up" stats without an
  /// environment). Valid after the sim drains; the runner sums these per
  /// fleet for the report-level reassembly invariant.
  [[nodiscard]] env::AvailabilityStats availability() const {
    return env_ ? env_->availability() : env::AvailabilityStats{};
  }

 private:
  [[nodiscard]] AppMode mode_for(apps::AppId id, const OffloadPlan& plan) const;
  [[nodiscard]] sim::Task<void> stream_sampler(SensorStream* stream);
  [[nodiscard]] sim::Task<void> stream_cpu_handler(SensorStream* stream);
  /// Per-hub environment driver: crash draws at window starts, power-source
  /// evaluation at window boundaries. Spawned first, and only when
  /// env_->needs_supervisor().
  [[nodiscard]] sim::Task<void> env_supervisor();
  /// Joules this hub's components have booked so far (its contiguous slice
  /// of the shared ledger).
  [[nodiscard]] double hub_joules() const;
  /// Delivers a lost-sample marker for window `w` down the stream's normal
  /// delivery topology (IRQ handshake preserved in per-sample mode).
  [[nodiscard]] sim::Task<void> deliver_lost(SensorStream* stream, int w);

  sim::Simulator& sim_;
  energy::EnergyAccountant& acct_;
  Config cfg_;
  std::unique_ptr<hw::IotHub> hub_;
  sim::Rng rng_;
  QosChecker qos_;
  trace::MipsCounter mips_;
  OffloadPlan plan_;
  std::unique_ptr<env::HubEnvironment> env_;  // nullptr on the legacy path
  std::size_t comp_begin_ = 0;  // this hub's [begin, end) ledger slice
  std::size_t comp_end_ = 0;
  double last_hub_joules_ = 0.0;  // supervisor's window-delta baseline
  std::map<sensors::SensorId, std::unique_ptr<sensors::Sensor>> sensors_;
  std::map<sensors::SensorId, hw::Bus*> buses_;
  // Deques so elements stay pinned (streams/executors hand out internal
  // pointers); spines come from Config::arena when one is supplied.
  std::deque<SensorStream, sim::ArenaAllocator<SensorStream>> streams_;
  std::deque<AppExecutor, sim::ArenaAllocator<AppExecutor>> executors_;
  std::map<apps::AppId, std::string> notes_;
  std::uint64_t sensor_read_errors_ = 0;
};

}  // namespace iotsim::core
