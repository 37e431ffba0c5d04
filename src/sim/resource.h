// A FIFO-served exclusive resource (e.g. a node's CPU) with
// busy-time accounting for utilization measurements (paper Figure 4).
#ifndef GENIE_SRC_SIM_RESOURCE_H_
#define GENIE_SRC_SIM_RESOURCE_H_

#include <coroutine>
#include <deque>
#include <string>

#include "src/sim/awaitable.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/util/check.h"
#include "src/util/units.h"

namespace genie {

class Resource {
 public:
  Resource(Engine& engine, std::string name) : engine_(&engine), name_(std::move(name)) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  // `co_await resource.Acquire()` grants exclusive use, queueing FIFO behind
  // the current holder. Pair with Release().
  auto Acquire() {
    struct Awaiter {
      Resource& res;
      bool await_ready() noexcept {
        if (!res.held_) {
          res.Grant();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { res.waiters_.push_back(Waiter{h, 0}); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  // Releases the resource; the next queued waiter (if any) is granted at the
  // current simulated time via a fresh engine event.
  void Release() {
    GENIE_CHECK(held_) << "Release() on idle resource " << name_;
    busy_accum_ += engine_->now() - grant_time_;
    if (waiters_.empty()) {
      held_ = false;
      return;
    }
    const Waiter next = waiters_.front();
    waiters_.pop_front();
    grant_time_ = engine_->now();  // Hand-off: stays held, new grant starts now.
    if (next.handle) {
      engine_->ResumeAfter(0, next.handle);
    } else {
      engine_->CallAfter(0, &StartCharge, this, static_cast<std::uint64_t>(next.cost));
    }
  }

  // Acquires the resource, holds it for `cost` ns of simulated work, and
  // releases it. This is how kernel code "executes" on a CPU.
  Task<void> Run(SimTime cost) {
    GENIE_CHECK_GE(cost, 0);
    co_await Acquire();
    co_await Delay(*engine_, cost);
    Release();
  }

  // Fire-and-forget Run(cost) with no coroutine frame. The charge joins the
  // same FIFO as Acquire() waiters and schedules exactly the events that
  // `std::move(Run(cost)).Detach()` schedules: a grant event at the hand-off
  // if it had to queue, then a release event `cost` ns into its hold unless
  // the cost is 0 (Delay(0) does not suspend). Swapping one for the other
  // therefore leaves every event's (time, seq), and the digest, unchanged.
  void RunDetached(SimTime cost) {
    GENIE_CHECK_GE(cost, 0);
    if (held_) {
      waiters_.push_back(Waiter{nullptr, cost});
      return;
    }
    Grant();
    Hold(cost);
  }

  bool held() const { return held_; }
  std::size_t queue_length() const { return waiters_.size(); }
  const std::string& name() const { return name_; }

  // Total simulated time this resource has been held. If currently held the
  // in-progress grant is included up to now().
  SimTime busy_time() const {
    SimTime busy = busy_accum_;
    if (held_) {
      busy += engine_->now() - grant_time_;
    }
    return busy;
  }

  // Resets the busy-time accumulator (to start a measurement window).
  void ResetBusyTime() {
    busy_accum_ = 0;
    if (held_) {
      grant_time_ = engine_->now();
    }
  }

 private:
  // A queued holder: a suspended Acquire() caller, or (null handle) a
  // RunDetached() charge of `cost` ns.
  struct Waiter {
    std::coroutine_handle<> handle;
    SimTime cost;
  };

  void Grant() {
    held_ = true;
    grant_time_ = engine_->now();
  }
  // The granted detached charge: Run()'s `co_await Delay(cost); Release();`.
  void Hold(SimTime cost) {
    if (cost == 0) {
      Release();
      return;
    }
    engine_->CallAfter(cost, &EndCharge, this, 0);
  }
  // Engine::RawFn bodies: a queued charge's grant event, any charge's release.
  static void StartCharge(void* self, std::uint64_t cost) {
    static_cast<Resource*>(self)->Hold(static_cast<SimTime>(cost));
  }
  static void EndCharge(void* self, std::uint64_t) { static_cast<Resource*>(self)->Release(); }

  Engine* engine_;
  std::string name_;
  bool held_ = false;
  SimTime grant_time_ = 0;
  SimTime busy_accum_ = 0;
  std::deque<Waiter> waiters_;
};

}  // namespace genie

#endif  // GENIE_SRC_SIM_RESOURCE_H_
