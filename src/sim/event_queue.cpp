#include "sim/event_queue.h"

#include <utility>
#include <vector>

#include "check/check.h"
#include "sim/calendar_queue.h"

namespace iotsim::sim {

namespace {

// Payload encoding: a coroutine frame address is at least max_align
// aligned, so its low bit is free to tag callback entries, whose payload is
// (slot << 1) | 1.
constexpr std::uintptr_t kCallbackTag = 1;
constexpr EventId kSlotMask = 0xFFFF'FFFFu;
constexpr std::uint32_t kMaxGeneration = 0x7FFF'FFFFu;

[[nodiscard]] bool is_callback(const SchedEntry& e) { return (e.payload & kCallbackTag) != 0; }
[[nodiscard]] std::uint32_t slot_of(const SchedEntry& e) {
  return static_cast<std::uint32_t>(e.payload >> 1);
}

}  // namespace

EventQueue::EventQueue() : impl_{std::make_unique<BinaryHeapScheduler>()} {}

EventId EventQueue::schedule(SimTime when, Callback cb) {
  IOTSIM_CHECK_GE(when, SimTime::origin(), "event scheduled before simulation start");
  const std::uint64_t seq = next_seq_++;
  IOTSIM_CHECK_LT(seq, kSystemIdFloor, "regular event sequence numbers exhausted");
  return push_callback(when, seq, std::move(cb), /*system_bit=*/0);
}

void EventQueue::schedule_resume(SimTime when, std::coroutine_handle<> h) {
  IOTSIM_CHECK_GE(when, SimTime::origin(), "event scheduled before simulation start");
  const std::uint64_t seq = next_seq_++;
  IOTSIM_CHECK_LT(seq, kSystemIdFloor, "regular event sequence numbers exhausted");
  const auto payload = reinterpret_cast<std::uintptr_t>(h.address());
  IOTSIM_CHECK((payload & kCallbackTag) == 0, "coroutine frame address is not aligned");
  push(SchedEntry{when, seq, payload});
}

EventId EventQueue::schedule_last(SimTime when, Callback cb) {
  IOTSIM_CHECK_GE(when, SimTime::origin(), "event scheduled before simulation start");
  const std::uint64_t seq = next_system_seq_--;
  IOTSIM_CHECK_GE(seq, kSystemIdFloor, "system event sequence numbers exhausted");
  return push_callback(when, seq, std::move(cb), kSystemIdFloor);
}

EventId EventQueue::push_callback(SimTime when, std::uint64_t seq, Callback cb,
                                  EventId system_bit) {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    IOTSIM_CHECK_LT(slab_.size(), std::size_t{kSlotMask}, "callback slab exhausted");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slab_[slot];
  s.generation = s.generation % kMaxGeneration + 1;
  s.id = system_bit | (EventId{s.generation} << 32) | slot;
  s.callback = std::move(cb);
  const EventId id = s.id;
  push(SchedEntry{when, seq, (std::uintptr_t{slot} << 1) | kCallbackTag});
  return id;
}

void EventQueue::push(SchedEntry e) {
  impl_->push(e);
  ++live_count_;
  if (live_count_ > peak_count_) peak_count_ = live_count_;
  // Fleet pressure: a binary heap pays O(log n) per event; past the
  // threshold the calendar queue's amortised O(1) wins. One-way — fleets
  // stay dense once they are dense.
  if (!pinned_ && live_count_ >= kCalendarSwitchThreshold &&
      impl_->kind() == SchedulerKind::kBinaryHeap) {
    migrate_to(SchedulerKind::kCalendar);
  }
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::size_t>(id & kSlotMask);
  if (slot >= slab_.size()) return;
  Slot& s = slab_[slot];
  // A fired or cancelled event left id 0; a reused slot has a newer id.
  if (s.id == 0 || s.id != id) return;
  s.id = 0;
  s.callback = nullptr;  // release captures now; the entry drops lazily
  --live_count_;
}

bool EventQueue::is_cancelled(const SchedEntry& e) const {
  return is_callback(e) && slab_[slot_of(e)].id == 0;
}

void EventQueue::migrate_to(SchedulerKind kind) {
  if (impl_->kind() == kind) return;
  std::vector<SchedEntry> entries;
  entries.reserve(impl_->size());
  while (!impl_->empty()) {
    const SchedEntry e = impl_->pop();
    // Cancelled stragglers are dropped here instead of migrating.
    if (is_cancelled(e)) {
      free_slots_.push_back(slot_of(e));
    } else {
      entries.push_back(e);
    }
  }
  if (kind == SchedulerKind::kCalendar) {
    impl_ = std::make_unique<CalendarQueue>(std::move(entries));
  } else {
    auto heap = std::make_unique<BinaryHeapScheduler>();
    for (const SchedEntry& e : entries) heap->push(e);
    impl_ = std::move(heap);
  }
}

void EventQueue::force_scheduler(SchedulerKind kind) {
  migrate_to(kind);
  pinned_ = true;
}

void EventQueue::drop_cancelled_front() {
  while (!impl_->empty() && is_cancelled(impl_->peek())) {
    free_slots_.push_back(slot_of(impl_->pop()));
  }
}

SimTime EventQueue::next_time() {
  drop_cancelled_front();
  if (impl_->empty()) return SimTime::infinite();
  return impl_->peek().time;
}

std::optional<EventQueue::Popped> EventQueue::pop_until(SimTime limit) {
  while (!impl_->empty()) {
    if (impl_->peek().time > limit) return std::nullopt;
    const SchedEntry e = impl_->pop();
    if (is_callback(e)) {
      Slot& s = slab_[slot_of(e)];
      free_slots_.push_back(slot_of(e));
      if (s.id == 0) continue;  // cancelled
      s.id = 0;
      --live_count_;
      check_monotonic(e);
      return Popped{e.time, e.seq, Action{std::move(s.callback)}};
    }
    --live_count_;
    check_monotonic(e);
    const auto h = std::coroutine_handle<>::from_address(reinterpret_cast<void*>(e.payload));
    return Popped{e.time, e.seq, Action{h}};
  }
  return std::nullopt;
}

void EventQueue::check_monotonic(const SchedEntry& e) {
  // Time monotonicity: the kernel clock never moves backwards. A violation
  // here means scheduler ordering or a scheduling path is broken.
  IOTSIM_CHECK_GE(e.time, last_popped_, "event %llu fires at t=%s, before already-popped t=%s",
                  static_cast<unsigned long long>(e.seq), e.time.to_string().c_str(),
                  last_popped_.to_string().c_str());
  last_popped_ = e.time;
}

EventQueue::Popped EventQueue::pop() {
  std::optional<Popped> ev = pop_until(SimTime::infinite());
  IOTSIM_CHECK(ev.has_value(), "pop() on empty EventQueue");
  return std::move(*ev);
}

void EventQueue::clear() {
  impl_->clear();
  // Slots keep their generations, so ids issued before the clear stay stale.
  free_slots_.clear();
  for (std::size_t i = slab_.size(); i-- > 0;) {
    slab_[i].callback = nullptr;
    slab_[i].id = 0;
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  live_count_ = 0;
  last_popped_ = SimTime::origin();
}

}  // namespace iotsim::sim
