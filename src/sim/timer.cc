#include "src/sim/timer.h"

#include <utility>

namespace genie {

TimerSet::Handle TimerSet::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  const Handle handle = next_++;
  live_.emplace(handle, std::move(fn));
  engine_->CallAfter(delay, &TimerSet::Fire, this, handle);
  return handle;
}

void TimerSet::Fire(void* self, Handle handle) {
  TimerSet& timers = *static_cast<TimerSet*>(self);
  auto it = timers.live_.find(handle);
  if (it == timers.live_.end()) {
    return;  // Cancelled; the queued event degenerates to a no-op.
  }
  std::function<void()> callback = std::move(it->second);
  timers.live_.erase(it);
  ++timers.fired_;
  callback();
}

bool TimerSet::Cancel(Handle handle) {
  if (live_.erase(handle) == 0) {
    return false;
  }
  ++cancelled_;
  return true;
}

}  // namespace genie
