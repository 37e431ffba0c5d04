#include "src/sim/engine.h"

#include <utility>

#include "src/util/check.h"

namespace genie {

void Engine::Push(SimTime t, RawFn fn, void* ctx, std::uint64_t arg) {
  GENIE_CHECK_GE(t, now_) << "cannot schedule in the past";
  queue_.push(Event{t, next_seq_++, fn, ctx, arg});
}

void Engine::ScheduleAt(SimTime t, Callback fn) {
  GENIE_CHECK_GE(t, now_) << "cannot schedule in the past";
  std::uint64_t slot;
  if (free_slots_.empty()) {
    slot = callbacks_.size();
    callbacks_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  queue_.push(Event{t, next_seq_++, &RunCallback, this, slot});
}

void Engine::ScheduleAfter(SimTime delay, Callback fn) {
  GENIE_CHECK_GE(delay, 0);
  ScheduleAt(now_ + delay, std::move(fn));
}

void Engine::ResumeAfter(SimTime delay, std::coroutine_handle<> h) {
  GENIE_CHECK_GE(delay, 0);
  ResumeAt(now_ + delay, h);
}

void Engine::CallAfter(SimTime delay, RawFn fn, void* ctx, std::uint64_t arg) {
  GENIE_CHECK_GE(delay, 0);
  Push(now_ + delay, fn, ctx, arg);
}

void Engine::ResumeHandle(void* address, std::uint64_t) {
  std::coroutine_handle<>::from_address(address).resume();
}

void Engine::RunCallback(void* self, std::uint64_t slot) {
  Engine& engine = *static_cast<Engine*>(self);
  // Move the callback out before running it: it may schedule more callbacks,
  // which can grow (and reallocate) the slot table under it. Its captures
  // die when it returns, not when the slot is next reused.
  Callback fn = std::move(engine.callbacks_[slot]);
  engine.callbacks_[slot] = nullptr;
  engine.free_slots_.push_back(slot);
  fn();
}

bool Engine::Step() {
  if (queue_.empty()) {
    return false;
  }
  const Event ev = queue_.top();
  queue_.pop();
  GENIE_CHECK_GE(ev.time, now_);
  now_ = ev.time;
  ++events_executed_;
  digest_.Mix(static_cast<std::uint64_t>(ev.time));
  digest_.Mix(ev.seq);
  if (probe_) {
    // Runs before the callback so a sample taken at time T reflects state
    // produced by events strictly before T's window edge.
    probe_(now_);
  }
  ev.fn(ev.ctx, ev.arg);
  return true;
}

void Engine::set_probe(Probe probe) {
  GENIE_CHECK(!probe || !probe_) << "engine probe already installed";
  probe_ = std::move(probe);
}

void Engine::Run() {
  while (Step()) {
  }
}

SimTime Engine::RunFor(SimTime duration) {
  GENIE_CHECK_GE(duration, 0);
  const SimTime deadline = now_ + duration;
  while (!queue_.empty() && queue_.top().time <= deadline) {
    Step();
  }
  now_ = deadline;
  return now_;
}

bool Engine::RunUntil(const std::function<bool()>& pred) {
  if (pred()) {
    return true;
  }
  while (Step()) {
    if (pred()) {
      return true;
    }
  }
  return pred();
}

}  // namespace genie
