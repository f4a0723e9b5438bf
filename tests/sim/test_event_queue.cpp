#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/process.h"

namespace iotsim::sim {
namespace {

/// A lazily started coroutine that records `label` when resumed.
Task<void> recorder(std::vector<int>& out, int label) {
  out.push_back(label);
  co_return;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::from_ns(30), [&] { order.push_back(3); });
  q.schedule(SimTime::from_ns(10), [&] { order.push_back(1); });
  q.schedule(SimTime::from_ns(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtEqualTime) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::from_ns(5);
  for (int i = 0; i < 10; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelDropsEvent) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(SimTime::from_ns(1), [&] { ++fired; });
  q.schedule(SimTime::from_ns(2), [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.schedule(SimTime::from_ns(1), [] {});
  q.cancel(9999);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelFiredIdIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(SimTime::from_ns(1), [] {});
  q.pop().callback();
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(SimTime::from_ns(1), [] {});
  q.schedule(SimTime::from_ns(7), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), SimTime::from_ns(7));
}

TEST(EventQueue, NextTimeOnEmptyIsInfinite) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::infinite());
}

TEST(EventQueue, ClearEmptiesQueue) {
  EventQueue q;
  q.schedule(SimTime::from_ns(1), [] {});
  q.schedule(SimTime::from_ns(2), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, MigratesToCalendarExactlyAtThreshold) {
  EventQueue q;
  // One below the threshold: still the binary heap.
  for (std::size_t i = 0; i + 1 < EventQueue::kCalendarSwitchThreshold; ++i) {
    q.schedule(SimTime::from_ns(static_cast<std::int64_t>(i % 97)), [] {});
  }
  ASSERT_EQ(q.size(), EventQueue::kCalendarSwitchThreshold - 1);
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kBinaryHeap);
  // The event that reaches the threshold flips the scheduler.
  q.schedule(SimTime::from_ns(3), [] {});
  EXPECT_EQ(q.size(), EventQueue::kCalendarSwitchThreshold);
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kCalendar);
}

TEST(EventQueue, CalendarMigrationIsOneWayAndOrderPreserving) {
  EventQueue q;
  std::vector<std::int64_t> popped;
  for (std::size_t i = 0; i < EventQueue::kCalendarSwitchThreshold + 32; ++i) {
    const auto t = static_cast<std::int64_t>((i * 31) % 257);
    q.schedule(SimTime::from_ns(t), [&popped, t] { popped.push_back(t); });
  }
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kCalendar);
  // Draining below the threshold must not migrate back.
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kCalendar);
  ASSERT_EQ(popped.size(), EventQueue::kCalendarSwitchThreshold + 32);
  for (std::size_t i = 1; i < popped.size(); ++i) EXPECT_LE(popped[i - 1], popped[i]);
}

TEST(EventQueue, PinnedSchedulerNeverAutoMigrates) {
  EventQueue q;
  q.force_scheduler(SchedulerKind::kBinaryHeap);
  for (std::size_t i = 0; i < EventQueue::kCalendarSwitchThreshold + 8; ++i) {
    q.schedule(SimTime::from_ns(1), [] {});
  }
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kBinaryHeap);
}

TEST(EventQueue, SystemEventFiresAfterRegularEventsAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::from_ns(40);
  q.schedule(t, [&] { order.push_back(1); });
  // Registered *before* the later regular events, yet fires after them.
  q.schedule_last(t, [&] { order.push_back(99); });
  q.schedule(t, [&] { order.push_back(2); });
  q.schedule(SimTime::from_ns(50), [&] { order.push_back(3); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 99, 3}));
}

TEST(EventQueue, SystemEventsKeepRegistrationOrderAmongThemselves) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::from_ns(7);
  q.schedule_last(t, [&] { order.push_back(10); });
  q.schedule_last(t, [&] { order.push_back(11); });
  q.schedule(t, [&] { order.push_back(0); });
  while (!q.empty()) q.pop().callback();
  // Ids descend from 2^64−1 and the tie-break is ascending id, so same-time
  // system events pop in *reverse* registration order. Documented, not
  // relied on: the kernel arms at most one system event per timestamp.
  EXPECT_EQ(order, (std::vector<int>{0, 11, 10}));
}

TEST(EventQueue, SystemEventIdsSitAboveTheFloorAndAreCancellable) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_last(SimTime::from_ns(1), [&] { ++fired; });
  EXPECT_GE(id, EventQueue::kSystemIdFloor);
  EXPECT_LT(q.schedule(SimTime::from_ns(1), [] {}), EventQueue::kSystemIdFloor);
  q.cancel(id);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<std::int64_t> popped;
  // Insert with a scrambled but deterministic pattern of times.
  for (std::int64_t i = 0; i < 2000; ++i) {
    const std::int64_t t = (i * 7919) % 1009;
    q.schedule(SimTime::from_ns(t), [&popped, t] { popped.push_back(t); });
  }
  while (!q.empty()) q.pop().callback();
  ASSERT_EQ(popped.size(), 2000u);
  for (std::size_t i = 1; i < popped.size(); ++i) EXPECT_LE(popped[i - 1], popped[i]);
}

TEST(EventQueue, CancelStaleIdLeavesSlotReuserAlone) {
  EventQueue q;
  int first_fired = 0;
  int second_fired = 0;
  const EventId first = q.schedule(SimTime::from_ns(1), [&] { ++first_fired; });
  q.pop().callback();  // fires; its slot is free again
  const EventId second = q.schedule(SimTime::from_ns(2), [&] { ++second_fired; });
  EXPECT_NE(first, second);
  q.cancel(first);  // stale: the slot now belongs to `second`
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(first_fired, 1);
  EXPECT_EQ(second_fired, 1);
}

TEST(EventQueue, CancelOfCancelledIdAfterSlotReuseIsNoop) {
  EventQueue q;
  int fired = 0;
  const EventId doomed = q.schedule(SimTime::from_ns(1), [&] { fired += 100; });
  q.cancel(doomed);
  q.cancel(doomed);  // twice: still one cancellation
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), SimTime::infinite());  // drops the tombstone, frees the slot
  const EventId reuser = q.schedule(SimTime::from_ns(2), [&] { ++fired; });
  EXPECT_NE(doomed, reuser);
  q.cancel(doomed);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ClearKeepsIssuedIdsStale) {
  EventQueue q;
  int fired = 0;
  const EventId before = q.schedule(SimTime::from_ns(1), [] {});
  q.clear();
  q.schedule(SimTime::from_ns(1), [&] { ++fired; });
  q.cancel(before);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ResumeEntriesShareFifoOrderWithCallbacks) {
  EventQueue q;
  std::vector<int> order;
  std::vector<Task<void>> tasks;
  const auto t = SimTime::from_ns(9);
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      tasks.push_back(recorder(order, i));
      q.schedule_resume(t, tasks.back().handle());
    } else {
      q.schedule(t, [&order, i] { order.push_back(i); });
    }
  }
  tasks.push_back(recorder(order, -1));
  q.schedule_resume(SimTime::from_ns(3), tasks.back().handle());  // earlier time pops first
  EXPECT_EQ(q.size(), 7u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5}));
  for (const auto& task : tasks) EXPECT_TRUE(task.done());
}

TEST(EventQueue, PopUntilStopsAtLimitAndSkipsCancelled) {
  EventQueue q;
  std::vector<int> order;
  const EventId gone = q.schedule(SimTime::from_ns(1), [&] { order.push_back(0); });
  q.schedule(SimTime::from_ns(5), [&] { order.push_back(5); });
  q.schedule(SimTime::from_ns(6), [&] { order.push_back(6); });
  q.cancel(gone);
  while (auto ev = q.pop_until(SimTime::from_ns(5))) {
    EXPECT_LE(ev->time, SimTime::from_ns(5));
    ev->callback();
  }
  EXPECT_EQ(order, (std::vector<int>{5}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.pop_until(SimTime::from_ns(5)).has_value());
  auto last = q.pop_until(SimTime::infinite());
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->time, SimTime::from_ns(6));
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace iotsim::sim
