#include "src/net/switch_link.h"

#include <algorithm>

#include "src/util/check.h"

namespace genie {

bool SwitchLink::TryAcquire(std::uint64_t channel, std::uint64_t bytes) {
  (void)channel;
  if (down_ || held_ || waiting_ > 0) {
    return false;
  }
  held_ = true;
  grant_time_ = engine_->now();
  ++grants_;
  bytes_granted_ += bytes;
  return true;
}

void SwitchLink::Enqueue(std::uint64_t channel, std::uint64_t bytes,
                         std::coroutine_handle<> h, bool* dead) {
  if (down_) {
    // Racing a down transition: drop immediately, same contract as a queued
    // frame caught by SetDown().
    ++down_drops_;
    if (dead != nullptr) {
      *dead = true;
    }
    engine_->ResumeAfter(0, h);
    return;
  }
  Channel& c = channels_[channel];
  if (c.waiters.empty()) {
    active_.push_back(channel);
  }
  c.waiters.push_back(Waiter{bytes, h, engine_->now(), dead});
  ++waiting_;
  max_queue_ = std::max(max_queue_, waiting_);
}

void SwitchLink::Release() {
  GENIE_CHECK(held_) << "Release() on idle switch link " << name_;
  busy_accum_ += engine_->now() - grant_time_;
  if (waiting_ == 0) {
    held_ = false;
    return;
  }
  // Hand-off: the link stays held; the granted frame's coroutine resumes via
  // a fresh engine event at the current simulated time (same discipline as
  // sim::Resource).
  GrantNext();
}

void SwitchLink::SetDown() {
  if (down_) {
    return;
  }
  down_ = true;
  ++flaps_;
  // Drop every queued frame: resume each waiter with its dead flag set so
  // the owning transmit coroutine unwinds (releases already-held path links
  // and reports the frame lost) instead of waiting for a grant that will
  // never come. Waiters resume in channel-id order, not rotation order, so
  // the same-instant events keep a fixed order.
  for (auto& [ch, c] : channels_) {
    for (Waiter& w : c.waiters) {
      ++down_drops_;
      total_wait_ += engine_->now() - w.enqueued_at;
      if (w.dead != nullptr) {
        *w.dead = true;
      }
      engine_->ResumeAfter(0, w.handle);
    }
    c.waiters.clear();
    c.deficit = 0;
  }
  active_.clear();
  waiting_ = 0;
}

void SwitchLink::SetUp() {
  if (!down_) {
    return;
  }
  GENIE_CHECK_EQ(waiting_, 0u) << "frames queued on down link " << name_;
  down_ = false;
  // DRR state reset on heal: deficits and rotation order were cleared at
  // SetDown(); arbitration restarts from a clean slate.
}

void SwitchLink::GrantNext() {
  // One DRR round: the front channel spends its deficit on its head frame;
  // when the frame costs more than the channel has, the channel earns a
  // quantum and rotates to the back. Every rotation credits one channel, so
  // the loop terminates as soon as some deficit covers some head frame.
  for (;;) {
    GENIE_CHECK(!active_.empty());
    const std::uint64_t ch = active_.front();
    Channel& c = channels_.at(ch);
    GENIE_CHECK(!c.waiters.empty());
    if (c.waiters.front().bytes > c.deficit) {
      c.deficit += quantum_;
      active_.pop_front();
      active_.push_back(ch);
      continue;
    }
    c.deficit -= c.waiters.front().bytes;
    Waiter w = std::move(c.waiters.front());
    c.waiters.pop_front();
    --waiting_;
    total_wait_ += engine_->now() - w.enqueued_at;
    if (c.waiters.empty()) {
      // An emptied channel leaves the rotation (it is the front) and
      // forfeits its residual deficit (classic DRR: credit does not
      // accumulate while idle). Its queue stays for the link's life.
      c.deficit = 0;
      active_.pop_front();
    }
    held_ = true;
    grant_time_ = engine_->now();
    ++grants_;
    bytes_granted_ += w.bytes;
    engine_->ResumeAfter(0, w.handle);
    return;
  }
}

}  // namespace genie
