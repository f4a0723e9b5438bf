// The discrete-event simulation kernel.
//
// Single-threaded: events pop in (time, insertion) order; coroutine processes
// resume from resume events (resume_at), other work runs from callbacks. The
// kernel knows nothing about hardware — the hw/ layer builds component
// models on top of it.
//
// Introspection goes through one snapshot, Simulator::stats(), instead of
// scattered getters: events dispatched, pending population, the queue's
// high-water mark, and which scheduler (binary heap vs calendar queue) is
// ordering events.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"

namespace iotsim::sim {

/// A point-in-time snapshot of kernel counters. Values are comparable
/// across runs of the same scenario: `events_dispatched` is deterministic;
/// `peak_queue_depth` and `scheduler` depend on execution shape (sharding
/// splits the population) and are diagnostics, not results.
struct SimulatorStats {
  std::uint64_t events_dispatched = 0;
  std::size_t pending_events = 0;
  std::size_t peak_queue_depth = 0;
  SchedulerKind scheduler = SchedulerKind::kBinaryHeap;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules a raw callback at absolute time `t` (must not precede now()).
  EventId at(SimTime t, EventQueue::Callback cb);
  /// Schedules a raw callback `d` from now.
  EventId after(Duration d, EventQueue::Callback cb);
  /// Resumes `h` at absolute time `t` (must not precede now()). The event
  /// orders like any other scheduled at this point but stores no callback
  /// and cannot be cancelled — the path every pure coroutine wakeup takes.
  void resume_at(SimTime t, std::coroutine_handle<> h);
  /// Schedules kernel bookkeeping at `t` that fires after every regular
  /// event sharing that timestamp and is excluded from events_dispatched —
  /// so a run driven by system events (e.g. windowed-AP arbitration) stays
  /// counter-identical to one driven externally at barriers.
  EventId at_system(SimTime t, EventQueue::Callback cb);
  void cancel(EventId id) { queue_.cancel(id); }

  /// Takes ownership of a top-level process and schedules its start at now().
  void spawn(Task<void> task);

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs until the queue drains, stop() is called, or simulated time would
  /// pass `deadline`; now() is advanced to `deadline` if the horizon is hit.
  void run_until(SimTime deadline);

  /// Dispatches every event with time <= `horizon`, leaving later events
  /// pending. Unlike run_until, now() is NOT advanced past the last
  /// dispatched event, so the final span of a windowed (barrier-stepped)
  /// run matches an uninterrupted run() exactly. Resumable: call again with
  /// a later horizon to continue.
  void drain_until(SimTime horizon);

  /// Requests that run()/run_until()/drain_until() return after the current
  /// event.
  void stop() { stop_requested_ = true; }

  /// Kernel counters as one coherent snapshot.
  [[nodiscard]] SimulatorStats stats() const;

  [[nodiscard]] std::size_t live_processes() const;

  /// True if every spawned process has run to completion.
  [[nodiscard]] bool all_processes_done() const;

  /// Rethrows the first exception stored by any completed process.
  void check_processes() const;

  /// Registered observers run whenever now() advances (power-trace flushing).
  using ClockListener = std::function<void(SimTime)>;
  void add_clock_listener(ClockListener l) { clock_listeners_.push_back(std::move(l)); }

  /// Pins the event queue's ordering structure. Test/bench hook; results
  /// are identical for either kind.
  void force_scheduler(SchedulerKind kind) { queue_.force_scheduler(kind); }

 private:
  void advance_to(SimTime t);
  /// Shared dispatch loop: runs events with time <= `limit`; when
  /// `settle_at_limit`, an exhausted/overshooting queue advances now() to
  /// `limit` (run_until semantics) instead of staying at the last event
  /// (drain_until semantics).
  void dispatch_loop(SimTime limit, bool settle_at_limit);

  SimTime now_ = SimTime::origin();
  EventQueue queue_;
  std::vector<Task<void>> processes_;
  std::vector<ClockListener> clock_listeners_;
  std::uint64_t dispatched_ = 0;
  bool stop_requested_ = false;
  bool running_ = false;
};

}  // namespace iotsim::sim
