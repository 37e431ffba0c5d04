// Awaitables that suspend coroutine tasks on the discrete-event engine:
// Delay (advance simulated time) and SimEvent (a settable latch).
#ifndef GENIE_SRC_SIM_AWAITABLE_H_
#define GENIE_SRC_SIM_AWAITABLE_H_

#include <coroutine>
#include <vector>

#include "src/sim/engine.h"
#include "src/util/check.h"
#include "src/util/units.h"

namespace genie {

// `co_await Delay(engine, d)` resumes the coroutine d nanoseconds later.
// A zero delay does not suspend at all.
class Delay {
 public:
  Delay(Engine& engine, SimTime duration) : engine_(engine), duration_(duration) {
    GENIE_CHECK_GE(duration, 0);
  }

  bool await_ready() const noexcept { return duration_ == 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine_.ResumeAfter(duration_, h);
  }
  void await_resume() const noexcept {}

 private:
  Engine& engine_;
  SimTime duration_;
};

// A level-triggered latch. `co_await event.Wait()` suspends until Set() is
// called (or continues immediately if already set). Waiters are resumed as
// separate engine events at the time of Set(), preserving FIFO determinism
// and bounding stack depth.
class SimEvent {
 public:
  explicit SimEvent(Engine& engine) : engine_(&engine) {}
  SimEvent(const SimEvent&) = delete;
  SimEvent& operator=(const SimEvent&) = delete;

  void Set() {
    set_ = true;
    for (std::coroutine_handle<> h : waiters_) {
      engine_->ResumeAfter(0, h);
    }
    waiters_.clear();
  }

  void Reset() { set_ = false; }
  bool is_set() const { return set_; }
  std::size_t waiter_count() const { return waiters_.size(); }

  auto Wait() {
    struct Awaiter {
      SimEvent& ev;
      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* engine_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace genie

#endif  // GENIE_SRC_SIM_AWAITABLE_H_
