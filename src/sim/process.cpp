#include "sim/process.h"

#include "sim/simulator.h"

namespace iotsim::sim {

void Delay::arm(std::coroutine_handle<> h) {
  sim->resume_at(sim->now() + d, h);
}

void Signal::notify_all() {
  // Wakeups are scheduled, never run inline, so no waiter can touch
  // waiters_ during the loop. A resumed waiter that waits again registers
  // after the clear and belongs to the *next* notification.
  for (const Waiter& w : waiters_) w.sim->resume_at(w.sim->now(), w.h);
  waiters_.clear();
}

void Signal::notify_one() {
  if (waiters_.empty()) return;
  const Waiter w = waiters_.front();
  waiters_.pop_front();
  w.sim->resume_at(w.sim->now(), w.h);
}

void SimMutex::release() {
  assert(locked_ && "release() of an unlocked SimMutex");
  if (waiters_.empty()) {
    locked_ = false;
    return;
  }
  // Hand the lock to the first waiter; locked_ stays true across the
  // scheduled wakeup so no third party can sneak in between.
  const Waiter w = waiters_.front();
  waiters_.pop_front();
  w.sim->resume_at(w.sim->now(), w.h);
}

}  // namespace iotsim::sim
