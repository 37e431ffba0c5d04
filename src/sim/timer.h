// Cancellable one-shot timers on top of Engine.
//
// Engine::ScheduleAfter is fire-and-forget: the priority queue has no removal
// API (removal would break the FIFO-tiebreak determinism contract). The ARQ
// retransmit path needs timers that are usually cancelled (the ack arrives
// long before the timeout), so TimerSet keeps the callback in a side table
// keyed by handle and schedules only a thin trampoline. Cancel() erases the
// table entry; the queued engine event then pops as a no-op. That keeps the
// engine's event ordering untouched while giving O(log n) cancellation.
#ifndef GENIE_SRC_SIM_TIMER_H_
#define GENIE_SRC_SIM_TIMER_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/sim/engine.h"
#include "src/util/units.h"

namespace genie {

class TimerSet {
 public:
  using Handle = std::uint64_t;  // 0 is never a valid handle.

  explicit TimerSet(Engine& engine) : engine_(&engine) {}
  TimerSet(const TimerSet&) = delete;
  TimerSet& operator=(const TimerSet&) = delete;

  // Arms a one-shot timer `delay` ns from now. The callback runs as a normal
  // engine event unless Cancel()ed first.
  Handle ScheduleAfter(SimTime delay, std::function<void()> fn);

  // True if the timer was still pending (callback will not run). False if it
  // already fired or was already cancelled.
  bool Cancel(Handle handle);

  std::size_t pending() const { return live_.size(); }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t cancelled() const { return cancelled_; }

 private:
  // The trampoline each timer queues: runs timer `handle` unless cancelled.
  static void Fire(void* self, Handle handle);

  Engine* engine_;
  Handle next_ = 1;
  std::map<Handle, std::function<void()>> live_;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace genie

#endif  // GENIE_SRC_SIM_TIMER_H_
