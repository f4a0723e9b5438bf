#include "core/scenario_runner.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "check/check.h"
#include "core/hub_runtime.h"
#include "core/thread_pool.h"
#include "energy/energy_accountant.h"
#include "net/medium.h"
#include "net/shared_access_point.h"
#include "sim/arena.h"
#include "trace/power_trace.h"

namespace iotsim::core {

namespace {

HubRuntime::Config hub_config(const Scenario& scenario, const HubView& hv, net::Medium* medium,
                              sim::Arena* arena) {
  HubRuntime::Config cfg;
  cfg.name = hv.name;
  cfg.component_scope = hv.component_scope;
  cfg.spec = *hv.spec;
  cfg.app_ids = *hv.app_ids;
  cfg.world = *hv.world;
  cfg.scheme = scenario.scheme;
  cfg.windows = scenario.windows;
  cfg.batch_flushes_per_window = scenario.batch_flushes_per_window;
  cfg.mcu_speed_factor = scenario.mcu_speed_factor;
  cfg.seed = hv.seed;
  cfg.hub_index = hv.index;
  cfg.medium = medium;
  cfg.arena = arena;
  if (hv.environment != nullptr) cfg.env = *hv.environment;
  return cfg;
}

/// Fleet energy from every hub's ledger slice, walked in global hub order
/// (see EnergyReport::from_slices), checked against the ledgers those
/// slices must partition — the tripwire for a hub skipped or walked twice.
energy::EnergyReport fleet_energy(const std::vector<const HubRuntime*>& hubs,
                                  const std::vector<const energy::EnergyAccountant*>& ledgers,
                                  sim::Duration span) {
  std::vector<energy::LedgerSlice> slices;
  slices.reserve(hubs.size());
  for (const HubRuntime* hub : hubs) slices.push_back(hub->ledger_slice());
  energy::EnergyReport report = energy::EnergyReport::from_slices(slices, span);
  double ledger = 0.0;
  for (const energy::EnergyAccountant* acct : ledgers) ledger += acct->total_joules();
  const double total = report.total_joules();
  const double tol = 1e-9 * (std::abs(ledger) > 1.0 ? std::abs(ledger) : 1.0);
  IOTSIM_CHECK_LE(std::abs(total - ledger), tol,
                  "fleet report total %.12g J diverges from %zu ledgers' total %.12g J", total,
                  ledgers.size(), ledger);
  return report;
}

/// Fleet availability roll-up straight from the runtimes, in hub order —
/// the totals harvest_fleet later re-derives from the HubResult sections
/// and checks against (the environment-layer reassembly tripwire).
energy::AvailabilitySummary availability_summary(const std::vector<const HubRuntime*>& hubs) {
  energy::AvailabilitySummary a;
  for (const HubRuntime* hub : hubs) {
    const env::AvailabilityStats st = hub->availability();
    if (!st.modeled) continue;
    a.modeled = true;
    ++a.hubs_modeled;
    a.reboots += st.reboots;
    a.windows_lost += st.windows_lost;
    a.samples_lost_faults += st.samples_lost_faults;
    a.samples_lost_outage += st.samples_lost_outage;
    a.samples_lost_crash += st.samples_lost_crash;
    a.downtime += st.downtime;
    a.harvested_j += st.harvested_j;
    a.billed_j += st.billed_j;
  }
  return a;
}

/// The fleet-shape half of result assembly, identical for both execution
/// paths: per-hub harvest in hub order, reassembly tripwires against the
/// fleet totals already placed in `result.energy`, and the legacy flat-field
/// mirror / fleet QoS summary.
void harvest_fleet(ScenarioResult& result, const Scenario& scenario,
                   const std::vector<const HubRuntime*>& hubs) {
  result.qos_met = true;
  double hub_joules_sum = 0.0;
  net::AirtimeStats hub_stats_sum;
  energy::AvailabilitySummary hub_avail_sum;
  for (const HubRuntime* hub : hubs) {
    HubResult hr = hub->harvest(result.span);
    hub_joules_sum += hr.energy.total_joules();
    hub_stats_sum.airtime_wait += hr.airtime_wait;
    hub_stats_sum.grants += hr.airtime_grants;
    hub_stats_sum.retries += hr.net_retries;
    hub_stats_sum.drops += hr.net_drops;
    if (hr.availability.modeled) {
      hub_avail_sum.modeled = true;
      ++hub_avail_sum.hubs_modeled;
      hub_avail_sum.reboots += hr.availability.reboots;
      hub_avail_sum.windows_lost += hr.availability.windows_lost;
      hub_avail_sum.samples_lost_faults += hr.availability.samples_lost_faults;
      hub_avail_sum.samples_lost_outage += hr.availability.samples_lost_outage;
      hub_avail_sum.samples_lost_crash += hr.availability.samples_lost_crash;
      hub_avail_sum.downtime += hr.availability.downtime;
      hub_avail_sum.harvested_j += hr.availability.harvested_j;
      hub_avail_sum.billed_j += hr.availability.billed_j;
    }
    result.interrupts_raised += hr.interrupts_raised;
    result.cpu_wakeups += hr.cpu_wakeups;
    result.sensor_read_errors += hr.sensor_read_errors;
    result.qos_met = result.qos_met && hr.qos_met;
    result.hubs.push_back(std::move(hr));
  }
  // Per-hub contention stats partition the medium's attachment list, so
  // their sums must reassemble the fleet totals exactly — the tripwire for
  // a NIC attached to the wrong medium or harvested twice.
  {
    const energy::CongestionSummary& fleet = result.energy.congestion();
    IOTSIM_CHECK_EQ(hub_stats_sum.grants, fleet.grants,
                    "per-hub airtime grants do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_stats_sum.retries, fleet.retries,
                    "per-hub net retries do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_stats_sum.drops, fleet.drops,
                    "per-hub net drops do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_stats_sum.airtime_wait.count_ns(), fleet.airtime_wait.count_ns(),
                    "per-hub airtime wait does not reassemble the fleet total");
  }
  // Per-hub availability stats were rolled up from the runtimes before
  // harvesting; the HubResult sections must re-derive the same fleet totals
  // — the tripwire for a hub harvested twice, skipped, or out of order.
  {
    const energy::AvailabilitySummary& fleet = result.energy.availability();
    IOTSIM_CHECK_EQ(hub_avail_sum.hubs_modeled, fleet.hubs_modeled,
                    "per-hub availability sections do not reassemble the fleet roll-up");
    IOTSIM_CHECK_EQ(hub_avail_sum.reboots, fleet.reboots,
                    "per-hub reboot counts do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_avail_sum.windows_lost, fleet.windows_lost,
                    "per-hub lost-window counts do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_avail_sum.samples_lost_faults, fleet.samples_lost_faults,
                    "per-hub fault-loss counts do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_avail_sum.samples_lost_outage, fleet.samples_lost_outage,
                    "per-hub outage-loss counts do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_avail_sum.samples_lost_crash, fleet.samples_lost_crash,
                    "per-hub crash-loss counts do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_avail_sum.downtime.count_ns(), fleet.downtime.count_ns(),
                    "per-hub outage time does not reassemble the fleet total");
    const double etol = 1e-9 * (std::abs(fleet.harvested_j + fleet.billed_j) > 1.0
                                    ? std::abs(fleet.harvested_j + fleet.billed_j)
                                    : 1.0);
    IOTSIM_CHECK_LE(std::abs(hub_avail_sum.harvested_j - fleet.harvested_j), etol,
                    "per-hub harvested energy does not reassemble the fleet total");
    IOTSIM_CHECK_LE(std::abs(hub_avail_sum.billed_j - fleet.billed_j), etol,
                    "per-hub billed energy does not reassemble the fleet total");
  }
  // Fleet conservation: the hub reports are the slices fleet_energy walked,
  // so their totals must reassemble the fleet total exactly (modulo
  // summation-order rounding). The tripwire for a hub harvested twice or
  // skipped.
  {
    const double fleet = result.energy.total_joules();
    const double tol = 1e-9 * (std::abs(fleet) > 1.0 ? std::abs(fleet) : 1.0);
    IOTSIM_CHECK_LE(std::abs(fleet - hub_joules_sum), tol,
                    "per-hub energy (%.12g J over %zu hubs) does not reassemble fleet total "
                    "(%.12g J)",
                    hub_joules_sum, result.hubs.size(), fleet);
  }

  if (!scenario.multi_hub()) {
    // Legacy single-hub view: the flat fields mirror the only hub.
    const HubResult& only = result.hubs.front();
    result.apps = only.apps;
    result.plan = only.plan;
    result.notes = only.notes;
    result.qos_summary = only.qos_summary;
  } else {
    // Fleet: per-app sections live per hub; the flat summary names hubs.
    for (const HubResult& hr : result.hubs) {
      if (hr.qos_summary.empty()) continue;
      std::string block = hr.qos_summary;
      // Indent each app line under its hub heading.
      result.qos_summary += hr.name + ":\n";
      std::size_t pos = 0;
      while (pos < block.size()) {
        const std::size_t eol = block.find('\n', pos);
        const std::size_t end = eol == std::string::npos ? block.size() : eol;
        result.qos_summary += "  " + block.substr(pos, end - pos) + "\n";
        pos = end + 1;
      }
    }
  }
}

/// The k-th window boundary, saturating instead of overflowing.
sim::SimTime window_horizon(sim::Duration window, std::int64_t k) {
  const std::int64_t w = window.count_ns();
  if (w >= std::numeric_limits<std::int64_t>::max() / k) return sim::SimTime::infinite();
  return sim::SimTime::from_ns(w * k);
}

}  // namespace

int ScenarioRunner::effective_shards(const ExecPolicy& policy) const {
  // Hubs coupled through an event-driven (FIFO/CSMA, no reservation window)
  // access point cannot shard: grant order at equal timestamps depends on
  // global event sequence, which no partition can reproduce. A windowed AP
  // batches requests per reservation window and arbitrates them in a total
  // order independent of registration interleaving — that contract the
  // shard barrier can honour, so those fleets keep their shards.
  if (scenario_.network && !scenario_.network->windowed()) return 1;
  // One power trace integrates the whole fleet; keep it on one clock.
  if (scenario_.record_power_trace) return 1;
  const int fleet = std::max(1, static_cast<int>(scenario_.fleet_size()));
  return std::clamp(policy.shards, 1, fleet);
}

sim::Duration ScenarioRunner::effective_window(const ExecPolicy& policy) const {
  // A windowed AP arbitrates exactly at reservation-window boundaries, so
  // the shard barrier must meet there and nowhere else — any finer window
  // would arbitrate early, any coarser one late, both visible in results.
  if (scenario_.network && scenario_.network->windowed()) {
    return scenario_.network->reservation_window;
  }
  return policy.window;
}

ScenarioResult ScenarioRunner::run() { return run(ExecPolicy{}); }

ScenarioResult ScenarioRunner::run(const ExecPolicy& policy) {
  if (auto errors = scenario_.validate(); !errors.empty()) {
    ScenarioResult invalid;
    invalid.scheme = scenario_.scheme;
    invalid.errors = std::move(errors);
    invalid.qos_met = false;
    return invalid;
  }
  const int shards = effective_shards(policy);
  if (shards <= 1) return run_single();
  return run_sharded(shards, effective_window(policy));
}

ScenarioResult ScenarioRunner::run_single() {
  // The arena outlives the simulator: coroutine frames allocated from it
  // are destroyed with the simulator's processes, before the arena.
  sim::Arena arena;
  sim::Simulator sim;
  energy::EnergyAccountant acct;
  sim::ArenaScope frame_arena{arena};

  // The medium every hub's NICs transmit through: a finite-bandwidth shared
  // access point when the scenario configures one, the ideal
  // infinite-capacity ether otherwise (byte-identical to the pre-network
  // model — an IdealMedium acquire grants without suspending).
  std::unique_ptr<net::Medium> medium;
  const FleetView fleet = scenario_.fleet();
  if (scenario_.network) {
    auto ap = std::make_unique<net::SharedAccessPoint>(sim, *scenario_.network);
    ap->reserve_attachments(2 * fleet.size());
    medium = std::move(ap);
  } else {
    medium = std::make_unique<net::IdealMedium>();
  }

  // Build every hub's hardware and topology first (all powered components
  // register with the shared ledger), then attach the trace, then spawn —
  // so the trace integral covers every component, per hub or fleet-wide.
  // Hubs are materialized one at a time from the lazy fleet view; the deque
  // keeps each HubRuntime pinned (internal pointers) and its spine — like
  // every hub's own container spines — comes from the run's arena.
  std::deque<HubRuntime, sim::ArenaAllocator<HubRuntime>> hubs{
      sim::ArenaAllocator<HubRuntime>{&arena}};
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    hubs.emplace_back(sim, acct, hub_config(scenario_, fleet.hub(i), medium.get(), &arena));
  }

  std::shared_ptr<trace::PowerTrace> power_trace;
  if (scenario_.record_power_trace) {
    power_trace = std::make_shared<trace::PowerTrace>();
    for (auto& hub : hubs) hub.attach_trace(*power_trace);
  }

  for (auto& hub : hubs) hub.start();

  sim.run();
  sim.check_processes();
  IOTSIM_CHECK(sim.all_processes_done(), "simulation drained with live processes at t=%s",
               sim.now().to_string().c_str());
  for (auto& hub : hubs) hub.flush_power();
  acct.check_conservation();

  // Harvest: fleet-level totals from the shared ledger, one HubResult per
  // hub from its component slice.
  ScenarioResult result;
  result.scheme = scenario_.scheme;
  result.span = sim.now() - sim::SimTime::origin();
  std::vector<const HubRuntime*> in_order;
  in_order.reserve(hubs.size());
  for (const auto& hub : hubs) in_order.push_back(&hub);
  result.energy = fleet_energy(in_order, {&acct}, result.span);
  {
    const net::MediumStats net_stats = medium->stats();
    energy::CongestionSummary congestion;
    congestion.modeled = scenario_.network.has_value();
    congestion.utilization = medium->utilization(sim.now());
    congestion.airtime_wait = net_stats.totals.airtime_wait;
    congestion.grants = net_stats.totals.grants;
    congestion.retries = net_stats.totals.retries;
    congestion.drops = net_stats.totals.drops;
    result.energy.set_congestion(congestion);
  }
  {
    const sim::SimulatorStats kernel_stats = sim.stats();
    energy::KernelSummary kernel;
    kernel.events_dispatched = kernel_stats.events_dispatched;
    kernel.peak_queue_depth = kernel_stats.peak_queue_depth;
    kernel.scheduler = std::string{sim::to_string(kernel_stats.scheduler)};
    kernel.shards = 1;
    result.energy.set_kernel(std::move(kernel));
  }
  result.power_trace = power_trace;
  result.energy.set_availability(availability_summary(in_order));
  harvest_fleet(result, scenario_, in_order);
  return result;
}

ScenarioResult ScenarioRunner::run_sharded(int shards, sim::Duration window) {
  // Each shard is a self-contained kernel: its own arena (coroutine frames
  // AND its hubs' runtime state — a 10k-hub fleet never exists on one heap),
  // simulator, energy ledger, and per-shard ideal medium. Hubs are dealt
  // round-robin: shard s drives hubs s, s+S, s+2S, …, so a count-compressed
  // fleet — contiguous runs of identical hubs — spreads every template
  // evenly over the shards, whatever each template costs to simulate. (A
  // hand-expanded fleet whose templates cycle with a period dividing S
  // still lands one template per shard; its results stay byte-identical,
  // only the shards' work is lopsided.) Member order is destruction order
  // in reverse: hubs die before the simulator, frames before the arena.
  struct Shard {
    sim::Arena arena;
    sim::Simulator sim;
    energy::EnergyAccountant acct;
    net::IdealMedium medium;
    std::deque<HubRuntime, sim::ArenaAllocator<HubRuntime>> hubs{
        sim::ArenaAllocator<HubRuntime>{&arena}};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
  };

  const FleetView fleet_view = scenario_.fleet();
  const std::size_t n = fleet_view.size();
  const auto s_count = static_cast<std::size_t>(shards);
  IOTSIM_CHECK_GE(n, s_count, "more shards than hubs after clamping");

  // One shared access point for the whole fleet when the scenario couples
  // hubs through one — kernel-less: request times come from each NIC's
  // owner simulator and the barrier completion step below arbitrates every
  // reservation-window batch while the shard workers are parked.
  // effective_shards only kept shards > 1 for a *windowed* AP.
  std::unique_ptr<net::SharedAccessPoint> shared_ap;
  if (scenario_.network) {
    IOTSIM_CHECK(scenario_.network->windowed(),
                 "sharded run with a non-windowed access point (effective_shards bug)");
    IOTSIM_CHECK_EQ(window.count_ns(), scenario_.network->reservation_window.count_ns(),
                    "shard window must equal the AP reservation window");
    shared_ap = std::make_unique<net::SharedAccessPoint>(*scenario_.network);
    shared_ap->reserve_attachments(2 * n);
  }

  std::vector<std::unique_ptr<Shard>> fleet;
  fleet.reserve(s_count);
  for (std::size_t s = 0; s < s_count; ++s) fleet.push_back(std::make_unique<Shard>());

  // A finite window interleaves shard execution in simulated-time lockstep:
  // every shard drains to the k-th boundary, then all arrive at the barrier
  // before continuing. The completion step runs while every worker is
  // parked: it first arbitrates the shared AP's batched airtime requests at
  // the boundary (scheduling resume events into shard kernels — the same
  // grants the single-kernel run derives from its boundary system events),
  // then decides termination for all shards at once, so nobody can leave a
  // barrier another shard still waits on. The done check reads each shard's
  // pending-event count *after* arbitration: a shard whose sim drained may
  // have just been handed a resume event.
  std::atomic<bool> all_done{false};
  std::atomic<std::int64_t> round{1};
  net::SharedAccessPoint* ap = shared_ap.get();
  auto on_window_complete = [&fleet, &all_done, &round, ap, window]() noexcept {
    const std::int64_t k = round.fetch_add(1, std::memory_order_relaxed);
    if (ap != nullptr) ap->arbitrate_window(window_horizon(window, k));
    bool done = ap == nullptr || ap->pending_requests() == 0;
    for (const auto& sh : fleet) {
      done = done && (sh->failed.load(std::memory_order_relaxed) ||
                      sh->sim.stats().pending_events == 0);
    }
    all_done.store(done, std::memory_order_relaxed);
  };
  std::barrier barrier{static_cast<std::ptrdiff_t>(s_count), on_window_complete};
  // A non-positive window could never advance the horizon; treat it (and
  // the Duration::max() default) as free-running. A shared AP always has a
  // positive window (its reservation window, checked above).
  const bool windowed = window != sim::Duration::max() && window > sim::Duration::zero();

  // Exactly one worker per shard: every shard job must run concurrently
  // when windowed (they meet at the barrier).
  ThreadPool pool{shards};
  for (std::size_t s = 0; s < s_count; ++s) {
    Shard& shard = *fleet[s];
    pool.submit([this, &shard, &fleet_view, &barrier, &all_done, ap, windowed, window, s,
                 s_count, n] {
      bool failed = false;
      try {
        sim::ArenaScope frame_arena{shard.arena};
        // Lazy materialization: each hub is built here, inside its shard
        // worker, from the count-compressed scenario — runtime state lands
        // in this shard's arena and construction parallelizes with the
        // shard count. Slot-addressed NIC attachment (hub_index) keeps the
        // shared AP's attachment table identical to the single-kernel run
        // no matter how workers interleave.
        net::Medium* medium = ap != nullptr ? static_cast<net::Medium*>(ap) : &shard.medium;
        for (std::size_t h = s; h < n; h += s_count) {
          shard.hubs.emplace_back(shard.sim, shard.acct,
                                  hub_config(scenario_, fleet_view.hub(h), medium,
                                             &shard.arena));
        }
        for (auto& hub : shard.hubs) hub.start();
        if (!windowed) {
          shard.sim.run();
        }
      } catch (...) {
        shard.error = std::current_exception();
        failed = true;
      }
      if (windowed) {
        std::int64_t k = 1;
        for (;;) {
          if (!failed) {
            try {
              sim::ArenaScope frame_arena{shard.arena};
              shard.sim.drain_until(window_horizon(window, k));
            } catch (...) {
              shard.error = std::current_exception();
              failed = true;
            }
          }
          shard.failed.store(failed, std::memory_order_relaxed);
          barrier.arrive_and_wait();
          if (all_done.load(std::memory_order_relaxed)) break;
          ++k;
        }
      }
      if (failed) return;
      try {
        shard.sim.check_processes();
        IOTSIM_CHECK(shard.sim.all_processes_done(),
                     "shard drained with live processes at t=%s",
                     shard.sim.now().to_string().c_str());
        // Power is NOT flushed here: each shard's clock stops at its own
        // last event, but idle power must integrate to the fleet-wide end
        // time (exactly what the single-thread run does). The merge phase
        // advances every shard to the global span first.
      } catch (...) {
        shard.error = std::current_exception();
      }
    });
  }
  pool.wait_idle();
  for (const auto& sh : fleet) {
    if (sh->error) std::rethrow_exception(sh->error);
  }

  // Merge in global hub order: hub h is local hub h / S of shard h % S.
  // Every per-hub sum below walks this list, and the energy report reads
  // each hub's own ledger slice from its shard's ledger, so the float sums
  // reproduce the single-thread ledger's order bit for bit. The per-shard
  // sums (events, medium stats) are integers and order-free.
  std::vector<const HubRuntime*> in_order;
  in_order.reserve(n);
  for (std::size_t h = 0; h < n; ++h) in_order.push_back(&fleet[h % s_count]->hubs[h / s_count]);

  ScenarioResult result;
  result.scheme = scenario_.scheme;
  sim::SimTime span_end = sim::SimTime::origin();
  for (const auto& sh : fleet) span_end = std::max(span_end, sh->sim.now());
  result.span = span_end - sim::SimTime::origin();

  // Close every hub's power segments at the fleet-wide end time: a shard
  // whose last event fired early still idles (on every component's resting
  // state) until the fleet finishes, exactly as it would sharing the
  // single-thread clock. run_until on a drained simulator only advances
  // the clock — no events, no coroutine frames.
  std::vector<const energy::EnergyAccountant*> ledgers;
  ledgers.reserve(s_count);
  for (const auto& sh : fleet) {
    sh->sim.run_until(span_end);
    for (auto& hub : sh->hubs) hub.flush_power();
    sh->acct.check_conservation();
    ledgers.push_back(&sh->acct);
  }
  result.energy = fleet_energy(in_order, ledgers, result.span);
  {
    energy::CongestionSummary congestion;
    if (shared_ap != nullptr) {
      // Assembled exactly as run_single assembles it from its own AP.
      const net::MediumStats net_stats = shared_ap->stats();
      congestion.modeled = true;
      congestion.utilization = shared_ap->utilization(span_end);
      congestion.airtime_wait = net_stats.totals.airtime_wait;
      congestion.grants = net_stats.totals.grants;
      congestion.retries = net_stats.totals.retries;
      congestion.drops = net_stats.totals.drops;
    } else {
      congestion.modeled = false;
      congestion.utilization = 0.0;  // == IdealMedium utilization, always
      for (const auto& sh : fleet) {
        const net::MediumStats net_stats = sh->medium.stats();
        congestion.airtime_wait += net_stats.totals.airtime_wait;
        congestion.grants += net_stats.totals.grants;
        congestion.retries += net_stats.totals.retries;
        congestion.drops += net_stats.totals.drops;
      }
    }
    result.energy.set_congestion(congestion);
  }
  {
    energy::KernelSummary kernel;
    kernel.shards = static_cast<int>(s_count);
    for (const auto& sh : fleet) {
      const sim::SimulatorStats kernel_stats = sh->sim.stats();
      kernel.events_dispatched += kernel_stats.events_dispatched;
      kernel.peak_queue_depth = std::max(kernel.peak_queue_depth, kernel_stats.peak_queue_depth);
    }
    kernel.scheduler = std::string{sim::to_string(fleet.front()->sim.stats().scheduler)};
    result.energy.set_kernel(std::move(kernel));
  }

  result.energy.set_availability(availability_summary(in_order));
  harvest_fleet(result, scenario_, in_order);

  // Tear down in parallel: a shard's hubs, coroutine frames, ledger and
  // arena are its own, so each worker frees one shard. The result holds
  // copies only.
  for (auto& sh : fleet) pool.submit([&sh] { sh.reset(); });
  pool.wait_idle();
  return result;
}

ScenarioResult run_scenario(Scenario scenario, ExecPolicy policy) {
  ScenarioRunner runner{std::move(scenario)};
  return runner.run(policy);
}

}  // namespace iotsim::core
