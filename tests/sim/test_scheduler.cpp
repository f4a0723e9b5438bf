// The kernel's scheduler determinism contract: BinaryHeapScheduler and
// CalendarQueue yield the identical pop sequence for the identical push/pop
// history, so which structure is active never changes simulation results.
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/event_queue.h"
#include "sim/process.h"
#include "sim/random.h"

namespace iotsim::sim {
namespace {

/// A lazily started coroutine that records `label` when resumed.
Task<void> recorder(std::vector<int>& out, int label) {
  out.push_back(label);
  co_return;
}

std::vector<SchedEntry> drain(Scheduler& s) {
  std::vector<SchedEntry> out;
  out.reserve(s.size());
  while (!s.empty()) out.push_back(s.pop());
  return out;
}

void expect_same_sequence(const std::vector<SchedEntry>& a,
                          const std::vector<SchedEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "at pop " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << "at pop " << i;
  }
}

TEST(Scheduler, CalendarMatchesHeapOnUniformFuzz) {
  Rng rng{0xC0FFEEu};
  BinaryHeapScheduler heap;
  CalendarQueue cal;
  for (std::uint64_t seq = 0; seq < 5000; ++seq) {
    const SchedEntry e{SimTime::from_ns(rng.uniform_int(0, 1'000'000)), seq};
    heap.push(e);
    cal.push(e);
  }
  expect_same_sequence(drain(heap), drain(cal));
}

TEST(Scheduler, CalendarMatchesHeapOnHeavyTies) {
  // Many entries share few distinct timestamps: the FIFO tie-break is the
  // whole ordering signal, and equal times must land in one bucket.
  Rng rng{42};
  BinaryHeapScheduler heap;
  CalendarQueue cal;
  for (std::uint64_t seq = 0; seq < 3000; ++seq) {
    const SchedEntry e{SimTime::from_ns(rng.uniform_int(0, 7) * 1000), seq};
    heap.push(e);
    cal.push(e);
  }
  expect_same_sequence(drain(heap), drain(cal));
}

TEST(Scheduler, CalendarMatchesHeapOnInterleavedPushPop) {
  // The realistic kernel pattern: pops interleaved with pushes whose times
  // hover near the current minimum (event handlers scheduling follow-ups).
  Rng rng{7};
  BinaryHeapScheduler heap;
  CalendarQueue cal;
  std::int64_t now_ns = 0;
  std::uint64_t seq = 0;
  std::vector<SchedEntry> heap_pops, cal_pops;
  for (int step = 0; step < 20000; ++step) {
    const bool push = heap.empty() || rng.uniform() < 0.55;
    if (push) {
      const SchedEntry e{SimTime::from_ns(now_ns + rng.uniform_int(0, 50'000)), seq++};
      heap.push(e);
      cal.push(e);
    } else {
      const SchedEntry a = heap.pop();
      const SchedEntry b = cal.pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
      now_ns = a.time.count_ns();
      heap_pops.push_back(a);
      cal_pops.push_back(b);
    }
  }
  expect_same_sequence(drain(heap), drain(cal));
}

TEST(Scheduler, CalendarHandlesSparseTails) {
  // A dense cluster plus far-future stragglers: the pop scan must not walk
  // millions of empty buckets, and ordering must survive the gap.
  BinaryHeapScheduler heap;
  CalendarQueue cal;
  std::uint64_t seq = 0;
  for (int i = 0; i < 2000; ++i) {
    const SchedEntry e{SimTime::from_ns(i * 10), seq++};
    heap.push(e);
    cal.push(e);
  }
  for (int i = 0; i < 5; ++i) {
    const SchedEntry e{SimTime::from_ns(1'000'000'000'000 + i), seq++};
    heap.push(e);
    cal.push(e);
  }
  expect_same_sequence(drain(heap), drain(cal));
}

TEST(Scheduler, CalendarCursorRewindsOnEarlierPush) {
  CalendarQueue cal;
  cal.push({SimTime::from_ns(1'000'000), 1});
  EXPECT_EQ(cal.pop().seq, 1u);
  // The cursor has advanced to t=1ms; an earlier push must still pop first.
  cal.push({SimTime::from_ns(10), 2});
  cal.push({SimTime::from_ns(2'000'000), 3});
  EXPECT_EQ(cal.pop().seq, 2u);
  EXPECT_EQ(cal.pop().seq, 3u);
  EXPECT_TRUE(cal.empty());
}

TEST(Scheduler, CalendarAdoptsBatchPreservingOrder) {
  // The heap→calendar migration path: a pre-existing population is adopted
  // wholesale and must drain in exact (time, seq) order.
  Rng rng{99};
  std::vector<SchedEntry> batch;
  for (std::uint64_t seq = 0; seq < 4096; ++seq) {
    batch.push_back({SimTime::from_ns(rng.uniform_int(0, 500'000)), seq});
  }
  std::vector<SchedEntry> expected = batch;
  std::sort(expected.begin(), expected.end());
  CalendarQueue cal{std::move(batch)};
  expect_same_sequence(expected, drain(cal));
}

TEST(Scheduler, CalendarResizesUnderGrowth) {
  CalendarQueue cal;
  const std::size_t initial_buckets = cal.bucket_count();
  for (std::uint64_t seq = 0; seq < 100'000; ++seq) {
    cal.push({SimTime::from_ns(static_cast<std::int64_t>(seq) * 137), seq});
  }
  EXPECT_GT(cal.bucket_count(), initial_buckets);
  SimTime prev = SimTime::origin();
  while (!cal.empty()) {
    const SchedEntry e = cal.pop();
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(EventQueueScheduler, StartsOnHeapAndMigratesUnderFleetPressure) {
  EventQueue q;
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kBinaryHeap);
  for (std::size_t i = 0; i <= EventQueue::kCalendarSwitchThreshold; ++i) {
    q.schedule(SimTime::from_ns(static_cast<std::int64_t>(i)), [] {});
  }
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kCalendar);
  EXPECT_EQ(q.peak_size(), EventQueue::kCalendarSwitchThreshold + 1);
}

TEST(EventQueueScheduler, MigrationPreservesPendingOrderAndCancels) {
  // Build identical histories on a pinned heap, a pinned calendar and an
  // auto-migrating queue. Resume entries, callbacks and cancels interleave
  // at heavily tied timestamps, before the switch and while draining; the
  // dispatch order must be identical on all three, through the switch.
  enum class Mode { kPinnedHeap, kPinnedCalendar, kAuto };
  auto run_history = [](Mode mode) {
    EventQueue q;
    if (mode == Mode::kPinnedHeap) q.force_scheduler(SchedulerKind::kBinaryHeap);
    if (mode == Mode::kPinnedCalendar) q.force_scheduler(SchedulerKind::kCalendar);
    Rng rng{123};
    std::vector<EventId> ids;
    std::vector<int> fired;
    std::vector<Task<void>> tasks;
    int next_label = 0;
    auto add = [&](SimTime t) {
      const int label = next_label++;
      if (rng.uniform() < 0.5) {
        tasks.push_back(recorder(fired, label));
        q.schedule_resume(t, tasks.back().handle());
      } else {
        ids.push_back(q.schedule(t, [&fired, label] { fired.push_back(label); }));
      }
      // Cancels hit pending, fired and already-cancelled ids alike.
      if (rng.uniform() < 0.15) {
        q.cancel(ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))]);
      }
    };
    ids.push_back(q.schedule(SimTime::origin(), [&fired] { fired.push_back(-1); }));
    for (std::size_t i = 0; i < 2 * EventQueue::kCalendarSwitchThreshold; ++i) {
      add(SimTime::from_ns(rng.uniform_int(0, 40) * 1000));
    }
    EXPECT_EQ(q.scheduler_kind(),
              mode == Mode::kPinnedHeap ? SchedulerKind::kBinaryHeap : SchedulerKind::kCalendar);
    int follow_ups = 0;
    while (!q.empty()) {
      auto ev = q.pop();
      ev.callback();
      // Handlers schedule follow-ups at their own timestamp, tying with
      // still-pending entries.
      if (follow_ups < 2000 && rng.uniform() < 0.3) {
        ++follow_ups;
        add(ev.time + Duration::ns(rng.uniform_int(0, 1) * 1000));
      }
    }
    return fired;
  };
  const std::vector<int> heap = run_history(Mode::kPinnedHeap);
  EXPECT_GT(heap.size(), EventQueue::kCalendarSwitchThreshold);
  EXPECT_EQ(heap, run_history(Mode::kPinnedCalendar));
  EXPECT_EQ(heap, run_history(Mode::kAuto));
}

TEST(EventQueueScheduler, ForceSchedulerPinsAndMatchesDefault) {
  auto dispatch_order = [](SchedulerKind kind) {
    EventQueue q;
    q.force_scheduler(kind);
    EXPECT_EQ(q.scheduler_kind(), kind);
    Rng rng{55};
    std::vector<int> fired;
    for (int i = 0; i < 2000; ++i) {
      q.schedule(SimTime::from_ns(rng.uniform_int(0, 10'000)),
                 [&fired, i] { fired.push_back(i); });
    }
    while (!q.empty()) q.pop().callback();
    EXPECT_EQ(q.scheduler_kind(), kind);  // pinned: no auto-switch either way
    return fired;
  };
  EXPECT_EQ(dispatch_order(SchedulerKind::kBinaryHeap),
            dispatch_order(SchedulerKind::kCalendar));
}

}  // namespace
}  // namespace iotsim::sim
