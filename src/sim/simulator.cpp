#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace iotsim::sim {

Simulator::~Simulator() {
  // Pending events may reference coroutine frames; drop them before the
  // frames are destroyed with processes_.
  queue_.clear();
}

EventId Simulator::at(SimTime t, EventQueue::Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  return queue_.schedule(t, std::move(cb));
}

EventId Simulator::after(Duration d, EventQueue::Callback cb) {
  assert(!d.is_negative());
  return at(now_ + d, std::move(cb));
}

void Simulator::resume_at(SimTime t, std::coroutine_handle<> h) {
  assert(t >= now_ && "cannot schedule into the past");
  queue_.schedule_resume(t, h);
}

EventId Simulator::at_system(SimTime t, EventQueue::Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  return queue_.schedule_last(t, std::move(cb));
}

void Simulator::spawn(Task<void> task) {
  assert(task.valid());
  auto handle = task.handle();
  handle.promise().sim = this;
  processes_.push_back(std::move(task));
  resume_at(now_, handle);
}

void Simulator::advance_to(SimTime t) {
  if (t == now_) return;
  assert(t > now_);
  now_ = t;
  for (auto& l : clock_listeners_) l(now_);
}

void Simulator::run() { dispatch_loop(SimTime::infinite(), /*settle_at_limit=*/false); }

void Simulator::run_until(SimTime deadline) { dispatch_loop(deadline, /*settle_at_limit=*/true); }

void Simulator::drain_until(SimTime horizon) {
  dispatch_loop(horizon, /*settle_at_limit=*/false);
}

void Simulator::dispatch_loop(SimTime limit, bool settle_at_limit) {
  assert(!running_ && "re-entrant run()");
  running_ = true;
  stop_requested_ = false;
  while (!stop_requested_) {
    auto ev = queue_.pop_until(limit);
    if (!ev) break;
    advance_to(ev->time);
    ev->callback();
    // System events are kernel plumbing, not model activity: keeping them
    // out of the counter makes events_dispatched identical across
    // execution shapes that do or don't need them.
    if (ev->seq < EventQueue::kSystemIdFloor) ++dispatched_;
  }
  // The queue drained or its next event lies past `limit`.
  if (settle_at_limit && !stop_requested_ && limit != SimTime::infinite() && now_ < limit) {
    advance_to(limit);
  }
  running_ = false;
}

SimulatorStats Simulator::stats() const {
  return SimulatorStats{
      .events_dispatched = dispatched_,
      .pending_events = queue_.size(),
      .peak_queue_depth = queue_.peak_size(),
      .scheduler = queue_.scheduler_kind(),
  };
}

std::size_t Simulator::live_processes() const {
  return static_cast<std::size_t>(
      std::count_if(processes_.begin(), processes_.end(),
                    [](const Task<void>& t) { return t.valid() && !t.done(); }));
}

bool Simulator::all_processes_done() const { return live_processes() == 0; }

void Simulator::check_processes() const {
  for (const auto& t : processes_) {
    if (t.done()) t.check();
  }
}

}  // namespace iotsim::sim
