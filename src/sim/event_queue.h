// A deterministic pending-event set for the discrete-event kernel.
//
// Events at equal timestamps fire in insertion order (FIFO tie-break), which
// makes multi-component simulations reproducible run to run.
//
// Ordering is delegated to a pluggable sim::Scheduler: a binary heap by
// default, migrating automatically to a bucketed CalendarQueue once the
// live population crosses kCalendarSwitchThreshold (fleet pressure). Both
// yield the identical pop sequence, so the switch never changes results.
//
// Each scheduler entry carries its own payload (scheduler.h). Almost every
// event only resumes a coroutine, so the entry holds that coroutine handle
// and nothing else is stored. The rare real callback lives in a slab slot
// that the entry indexes. A slot carries a generation counter, which is
// folded into the callback's EventId: cancel() compares it with the slot's
// current id, so a stale id never touches an event that reuses its slot. A
// cancelled slot stays reserved until its entry is popped and dropped.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "sim/sim_time.h"

namespace iotsim::sim {

/// Cancellation handle of a callback event. Encodes the slab slot (low 32
/// bits) and the slot's generation (31 bits above); the top bit marks a
/// system event.
using EventId = std::uint64_t;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Live events beyond which the queue migrates from the binary heap to
  /// the calendar queue (one-way; see force_scheduler for tests).
  static constexpr std::size_t kCalendarSwitchThreshold = 4096;

  /// Ids and sequence numbers at or above this floor belong to system
  /// events (schedule_last). Regular ones can never reach it.
  static constexpr EventId kSystemIdFloor = EventId{1} << 63;

  EventQueue();

  /// Schedules `cb` to run at absolute time `when`. Returns a handle that can
  /// be passed to `cancel`.
  EventId schedule(SimTime when, Callback cb);

  /// Schedules a resumption of `h` at `when`. It orders exactly like a
  /// callback scheduled at the same point, but stores no callback and
  /// cannot be cancelled.
  void schedule_resume(SimTime when, std::coroutine_handle<> h);

  /// Schedules a *system* event at `when` that fires after every regular
  /// event with the same timestamp (sequence numbers descend from 2^64−1,
  /// and the FIFO tie-break is ascending sequence). Kernel plumbing — e.g.
  /// the windowed access-point arbitration trigger — uses this so
  /// bookkeeping never interleaves with model events; Simulator excludes
  /// system events from its events_dispatched counter for the same reason.
  EventId schedule_last(SimTime when, Callback cb);

  /// Marks a still-pending event as cancelled; it is dropped lazily.
  /// Cancelling an already-fired, already-cancelled or unknown id is a
  /// harmless no-op.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }
  /// High-water mark of the live event population.
  [[nodiscard]] std::size_t peak_size() const { return peak_count_; }

  /// Time of the earliest live event; SimTime::infinite() when empty.
  [[nodiscard]] SimTime next_time();

  /// What a popped event does: resume its coroutine or run its callback.
  class Action {
   public:
    explicit Action(std::coroutine_handle<> h) : handle_{h} {}
    explicit Action(Callback cb) : callback_{std::move(cb)} {}
    void operator()() {
      if (handle_) {
        handle_.resume();
      } else {
        callback_();
      }
    }

   private:
    std::coroutine_handle<> handle_;
    Callback callback_;
  };

  struct Popped {
    SimTime time;
    /// Insertion sequence; at or above kSystemIdFloor for system events.
    std::uint64_t seq;
    Action callback;
  };

  /// Removes and returns the earliest live event if it is due at or before
  /// `limit`; std::nullopt when the queue is empty or the next live event
  /// is later. One scheduler peek per returned event.
  std::optional<Popped> pop_until(SimTime limit);

  /// Removes and returns the earliest live event. Precondition: !empty().
  Popped pop();

  void clear();

  /// The ordering structure currently in use.
  [[nodiscard]] SchedulerKind scheduler_kind() const { return impl_->kind(); }
  /// Migrates to `kind` now and pins it (disables the automatic switch).
  /// Test/bench hook — the pop order is identical either way.
  void force_scheduler(SchedulerKind kind);

 private:
  /// A callback's home until it fires. `id` is the pending event's EventId,
  /// or 0 when the slot is free or its event was cancelled.
  struct Slot {
    Callback callback;
    EventId id = 0;
    std::uint32_t generation = 0;
  };

  /// Shared tail of every schedule call: entry, population, migration.
  void push(SchedEntry e);
  /// Claims a slab slot for `cb`, pushes its entry and returns its EventId.
  EventId push_callback(SimTime when, std::uint64_t seq, Callback cb, EventId system_bit);
  /// True if `e` is a callback entry whose event was cancelled.
  [[nodiscard]] bool is_cancelled(const SchedEntry& e) const;
  /// IOTSIM_CHECK that `e` does not precede the last popped event.
  void check_monotonic(const SchedEntry& e);
  /// Pops scheduler entries whose callback was cancelled.
  void drop_cancelled_front();
  /// Moves every pending entry onto a scheduler of `kind`.
  void migrate_to(SchedulerKind kind);

  std::unique_ptr<Scheduler> impl_;
  bool pinned_ = false;  // force_scheduler() disables auto-migration
  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_system_seq_ = std::numeric_limits<std::uint64_t>::max();
  std::size_t live_count_ = 0;
  std::size_t peak_count_ = 0;
  // High-water mark of popped event times; pops check monotonicity against
  // it (IOTSIM_CHECK) — the kernel's core ordering invariant.
  SimTime last_popped_ = SimTime::origin();
};

}  // namespace iotsim::sim
