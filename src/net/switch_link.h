// An arbitrated exclusive frame link: the unit of serialization inside the
// switched fabric (per-port ingress/egress queues, dumbbell trunks).
//
// Like sim::Resource this is a one-holder-at-a-time lock with busy-time
// accounting, but the wait queue is per-channel and the arbiter is deficit
// round robin (DRR): when the link frees up, the scheduler cycles over the
// channels with queued frames, crediting each a byte quantum per visit and
// granting the head frame once its channel's deficit covers it. Equal
// offered loads therefore get equal byte shares regardless of frame size —
// a tenant pushing jumbo frames waits out the rotations its bytes cost
// instead of starving the small-frame channels behind it in a FIFO.
//
// Determinism: grants depend only on (channel id, arrival order, byte
// counts); no randomness, no wall clock. The uncontended path acquires
// synchronously and schedules nothing, so an idle fabric adds zero events.
#ifndef GENIE_SRC_NET_SWITCH_LINK_H_
#define GENIE_SRC_NET_SWITCH_LINK_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "src/sim/engine.h"
#include "src/util/units.h"

namespace genie {

class SwitchLink {
 public:
  SwitchLink(Engine& engine, std::string name, std::uint64_t drr_quantum_bytes)
      : engine_(&engine), name_(std::move(name)), quantum_(drr_quantum_bytes) {}
  SwitchLink(const SwitchLink&) = delete;
  SwitchLink& operator=(const SwitchLink&) = delete;

  // Fast path: grants immediately when the link is idle and nothing is
  // queued (waiters always have priority over a late arrival). Returns
  // false without side effects otherwise; the caller must then Enqueue.
  bool TryAcquire(std::uint64_t channel, std::uint64_t bytes);

  // Parks a frame of `bytes` on `channel`'s queue; `h` is resumed (via a
  // fresh engine event) when the arbiter grants the link to this frame, or
  // when the link goes down while the frame is queued. In the latter case
  // `*dead` is set before the resume: the frame was dropped, not granted,
  // and the caller must not Release().
  void Enqueue(std::uint64_t channel, std::uint64_t bytes, std::coroutine_handle<> h,
               bool* dead = nullptr);

  // Releases the link and runs one DRR arbitration round over the queued
  // channels, granting at most one frame (the link is exclusive).
  void Release();

  // Takes the link down: every queued frame is dropped (resumed with its
  // dead flag set) and subsequent TryAcquire calls fail until SetUp(). A
  // holder mid-frame keeps the link held — the carrier is gone but the
  // holder still owns the release. Counts one flap per down transition.
  void SetDown();

  // Brings the link back up with DRR state reset: residual deficits and the
  // rotation order from before the outage are forgotten (the queues are
  // empty by construction — frames cannot queue on a down link).
  void SetUp();

  const std::string& name() const { return name_; }
  bool held() const { return held_; }
  bool down() const { return down_; }
  std::uint64_t flaps() const { return flaps_; }
  std::uint64_t down_drops() const { return down_drops_; }
  std::size_t queue_length() const { return waiting_; }
  std::size_t max_queue_length() const { return max_queue_; }
  std::uint64_t grants() const { return grants_; }
  std::uint64_t bytes_granted() const { return bytes_granted_; }
  // Cumulative time queued frames spent waiting for a grant.
  SimTime total_wait() const { return total_wait_; }
  SimTime busy_time() const {
    return busy_accum_ + (held_ ? engine_->now() - grant_time_ : 0);
  }

 private:
  struct Waiter {
    std::uint64_t bytes = 0;
    std::coroutine_handle<> handle;
    SimTime enqueued_at = 0;
    bool* dead = nullptr;  // set before resume when the link went down
  };

  // A channel's FIFO and DRR deficit, kept for the link's life once the
  // channel first queues a frame.
  struct Channel {
    std::deque<Waiter> waiters;
    std::uint64_t deficit = 0;
  };

  void GrantNext();

  Engine* engine_;
  std::string name_;
  std::uint64_t quantum_;
  bool held_ = false;
  SimTime grant_time_ = 0;
  SimTime busy_accum_ = 0;
  std::map<std::uint64_t, Channel> channels_;
  std::deque<std::uint64_t> active_;  // DRR rotation over channels with waiters
  std::size_t waiting_ = 0;
  std::size_t max_queue_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t bytes_granted_ = 0;
  SimTime total_wait_ = 0;
  bool down_ = false;
  std::uint64_t flaps_ = 0;
  std::uint64_t down_drops_ = 0;
};

}  // namespace genie

#endif  // GENIE_SRC_NET_SWITCH_LINK_H_
