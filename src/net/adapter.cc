#include "src/net/adapter.h"

#include <algorithm>
#include <cstring>

#include "src/net/iovec_io.h"
#include "src/net/switch_link.h"
#include "src/util/check.h"

namespace genie {

namespace {
// Return time of a control cell (credit, ack, nack, SACK train).
constexpr SimTime kCreditLatency = 5 * kMicrosecond;
// A frame held back by an injected kLinkReorder fault is delivered when the
// next frame goes out, or after this delay, whichever comes first (the
// rule's arg overrides the delay per firing).
constexpr SimTime kReorderFlushDelay = 50 * kMicrosecond;
}  // namespace

std::string_view InputBufferingName(InputBuffering b) {
  switch (b) {
    case InputBuffering::kEarlyDemux:
      return "early-demultiplexed";
    case InputBuffering::kPooled:
      return "pooled in-host";
    case InputBuffering::kOutboard:
      return "outboard";
  }
  return "?";
}

Adapter::Adapter(Engine& engine, PhysicalMemory& pm, const CostModel& cost, std::string name,
                 Config config)
    : engine_(engine), pm_(pm), name_(std::move(name)), config_(config) {
  link_us_per_byte_ = cost.Line(OpKind::kNetworkTransfer).slope_us_per_byte;
  GENIE_CHECK_GT(link_us_per_byte_, 0.0);
  if (config_.rx_buffering == InputBuffering::kPooled) {
    pool_ = std::make_unique<BufferPool>(pm_, config_.pool_pages);
  }
}

void Adapter::ConnectTo(Adapter* peer, SwitchLink* link) {
  GENIE_CHECK(peer != nullptr && link != nullptr);
  wire_ = TxPath{peer, {link}, 1};
  ConnectFabric([this](std::uint64_t) { return &wire_; });
}

void Adapter::ConnectFabric(RouteFn route) {
  GENIE_CHECK(route != nullptr);
  GENIE_CHECK(route_fn_ == nullptr) << "adapter " << name_ << " already connected";
  route_fn_ = std::move(route);
}

Task<bool> Adapter::AcquirePath(const TxPath& path, std::uint64_t channel,
                                std::uint64_t bytes) {
  struct LinkAwaiter {
    SwitchLink& link;
    std::uint64_t channel;
    std::uint64_t bytes;
    bool dead = false;  // set by the link when it goes down under the waiter
    bool await_ready() {
      if (link.down()) {
        dead = true;
        return true;
      }
      return link.TryAcquire(channel, bytes);
    }
    void await_suspend(std::coroutine_handle<> h) { link.Enqueue(channel, bytes, h, &dead); }
    bool await_resume() const noexcept { return !dead; }
  };
  for (int i = 0; i < path.nlinks; ++i) {
    const bool granted = co_await LinkAwaiter{*path.links[i], channel, bytes};
    if (!granted) {
      // Link down: unwind the partial hold; the frame is dropped.
      for (int j = i; j-- > 0;) {
        path.links[j]->Release();
      }
      co_return false;
    }
  }
  co_return true;
}

void Adapter::ReleasePath(const TxPath& path) {
  for (int i = path.nlinks; i-- > 0;) {
    path.links[i]->Release();
  }
}

bool Adapter::PathDown(const TxPath& path) {
  for (int i = 0; i < path.nlinks; ++i) {
    if (path.links[i]->down()) {
      return true;
    }
  }
  return false;
}

Task<void> Adapter::TransmitFrame(std::uint64_t channel, IoVec iov, std::uint32_t header,
                                  std::uint32_t tag, std::shared_ptr<TxControl> ctl,
                                  std::uint64_t flow) {
  const TxPath* const path = route_fn_ ? route_fn_(channel) : nullptr;
  GENIE_CHECK(path != nullptr) << "adapter " << name_ << " has no route for channel " << channel;
  Adapter* const dst = path->dst;
  const std::uint64_t total = iov.total_bytes();
  GENIE_CHECK_GT(total, 0u);
  GENIE_CHECK_LE(total, kMaxAal5Payload);
  const std::uint64_t seq = ctl != nullptr ? ctl->seq : 0;
  const std::uint32_t src_epoch = ctl != nullptr ? ctl->src_epoch : 0;
  const std::uint32_t dst_epoch = ctl != nullptr ? ctl->dst_epoch : 0;

  if (config_.flow_control && tag == 0 && (ctl == nullptr || !ctl->skip_credit)) {
    // Credit-based flow control: wait for the receiver to have a buffer.
    const SimTime credit_start = engine_.now();
    co_await AcquireCredit(channel, ctl);
    if (trace_ != nullptr && engine_.now() > credit_start) {
      // Only a wait that actually suspended gets a span; an immediately
      // available credit leaves the trace untouched.
      trace_->Span(name_ + ".wire", "credit_wait", "net", credit_start, engine_.now(), flow);
    }
    if (ctl != nullptr && ctl->aborted) {
      co_return;  // Watchdog broke a credit deadlock; nothing went out.
    }
  }
  // Hold the whole transmit path for the whole frame (AAL5 frames on one VC
  // are not interleaved, and exclusive egress preserves the destination's
  // one-frame-at-a-time receive invariant across N senders).
  const SimTime arb_start = engine_.now();
  const bool acquired = co_await AcquirePath(*path, channel, total);
  if (!acquired) {
    // A path link is (or went) down: the frame is dropped at the switch,
    // consuming no wire time. A sequenced frame's loss is recovered by the
    // ARQ retransmit timer once the partition heals.
    ++link_down_drops_;
    if (trace_ != nullptr) {
      trace_->Instant(name_ + ".wire", "link_down_drop seq " + std::to_string(seq), "net",
                      engine_.now(), flow);
    }
    co_return;
  }
  if (trace_ != nullptr && engine_.now() > arb_start) {
    // Only an arbitration wait that actually suspended gets a span.
    trace_->Span(name_ + ".wire", "fabric_wait", "net", arb_start, engine_.now(), flow);
  }
  // Injected short transfer: the device stops after `arg` bytes (at least
  // one; default half the frame), as when cell loss truncates an AAL5 frame.
  // The CRC still passes — the transport checksum in `header`, when enabled,
  // is what notices — so the receive path sees a well-formed shorter frame.
  std::uint64_t wire_bytes = total;
  if (fault_plan_ != nullptr) {
    std::uint64_t keep = 0;
    if (fault_plan_->ShouldFail(FaultSite::kDeviceShortTransfer, &keep)) {
      if (keep == 0) {
        keep = total / 2;
      }
      wire_bytes = std::max<std::uint64_t>(1, std::min(keep, total));
    }
  }
  // Injected link faults. The frame occupies the wire either way; what
  // differs is whether/when the peer sees it. Consult order (drop, then
  // reorder, then duplicate) is part of the deterministic replay contract.
  bool link_drop = false;
  bool link_reorder = false;
  bool link_duplicate = false;
  std::uint64_t reorder_delay_ns = 0;
  if (fault_plan_ != nullptr) {
    link_drop = fault_plan_->ShouldFail(FaultSite::kLinkDrop);
    if (!link_drop) {
      link_reorder = fault_plan_->ShouldFail(FaultSite::kLinkReorder, &reorder_delay_ns);
      if (!link_reorder) {
        link_duplicate = fault_plan_->ShouldFail(FaultSite::kLinkDuplicate);
      }
    }
  }
  const bool deliver_now = !link_drop && !link_reorder;
  const bool need_snapshot = link_reorder || link_duplicate;

  const SimTime wire_start = engine_.now();
  if (deliver_now) {
    dst->BeginRxFrame(channel, header, tag, seq, flow, src_epoch, dst_epoch, wire_bytes);
  }
  HeldFrame snapshot;
  if (need_snapshot) {
    snapshot.path = path;
    snapshot.channel = channel;
    snapshot.header = header;
    snapshot.tag = tag;
    snapshot.seq = seq;
    snapshot.flow = flow;
    snapshot.src_epoch = src_epoch;
    snapshot.dst_epoch = dst_epoch;
    snapshot.bytes.reserve(wire_bytes);
  }
  // Every byte of the bounce chunk is written by ReadFromIoVec before it is
  // read, so it is not zero-filled.
  const std::unique_ptr<std::byte[]> chunk =
      std::make_unique_for_overwrite<std::byte[]>(pm_.page_size());
  std::uint64_t sent = 0;
  bool carrier_lost = false;
  while (sent < wire_bytes) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(pm_.page_size(), wire_bytes - sent));
    // Snapshot the bytes from the frames *now*: this is the instant the DMA
    // engine reads them. Earlier or later application stores are or are not
    // visible exactly as on real cut-through hardware (page granularity).
    ReadFromIoVec(pm_, iov, sent, std::span<std::byte>(chunk.get(), n));
    if (cpu_ != nullptr && driver_us_per_byte_ > 0) {
      // Driver/descriptor processing overlapping this chunk's wire time.
      cpu_->RunDetached(MicrosToSimTime(static_cast<double>(n) * driver_us_per_byte_));
    }
    co_await Delay(engine_, MicrosToSimTime(static_cast<double>(n) * link_us_per_byte_));
    const bool is_last = sent + n == wire_bytes;
    if (need_snapshot) {
      snapshot.bytes.insert(snapshot.bytes.end(), chunk.get(), chunk.get() + n);
    }
    if (deliver_now) {
      dst->DeliverChunk(std::span<const std::byte>(chunk.get(), n), is_last);
    }
    sent += n;
    if (sent < wire_bytes && PathDown(*path)) {
      // A path link died under the streaming frame: the carrier is gone, so
      // the tail never arrives. The delivered prefix fails the AAL5 CRC and
      // takes the normal damaged-frame recovery (nack + retransmit).
      carrier_lost = true;
      break;
    }
  }
  bool crc_ok = true;
  if (carrier_lost) {
    crc_ok = false;
    ++link_down_drops_;
    if (trace_ != nullptr) {
      trace_->Instant(name_ + ".wire", "carrier_lost seq " + std::to_string(seq), "net",
                      engine_.now(), flow);
    }
  }
  if (fault_plan_ != nullptr && !carrier_lost) {
    // Injected device error: the frame arrived but its AAL5 CRC failed. A
    // dropped frame never arrives, so its CRC is not consulted; a held or
    // duplicated frame carries one CRC outcome for every copy delivered.
    if (!link_drop && fault_plan_->ShouldFail(FaultSite::kDeviceError)) {
      crc_ok = false;
    }
    // Injected delayed completion: the receive interrupt is held off while
    // the VC stays busy — widens the window in which the sender's pages keep
    // their I/O references, TCOW protection, and hidden regions, so races
    // against pageout and write faults become reachable.
    std::uint64_t delay_ns = 0;
    if (fault_plan_->ShouldFail(FaultSite::kDeviceDelay, &delay_ns)) {
      co_await Delay(engine_, delay_ns == 0 ? 20 * kMicrosecond
                                            : static_cast<SimTime>(delay_ns));
    }
  }
  snapshot.crc_ok = crc_ok;
  if (deliver_now) {
    dst->EndRxFrame(crc_ok);
  }
  if (link_drop) {
    ++link_frames_dropped_;
    if (trace_ != nullptr) {
      trace_->Instant(name_ + ".wire", "link_drop seq " + std::to_string(seq), "net",
                      engine_.now(), flow);
    }
  }
  if (link_duplicate) {
    // Second copy arrives back-to-back with the first, from the snapshot
    // (the sender's pages may be disposed or rewritten by now).
    ++link_frames_duplicated_;
    DeliverSnapshot(snapshot);
  }
  if (link_reorder) {
    ++link_frames_reordered_;
    held_.push_back(std::move(snapshot));
    if (trace_ != nullptr) {
      trace_->Instant(name_ + ".wire", "link_hold seq " + std::to_string(seq), "net",
                      engine_.now(), flow);
    }
    const SimTime flush_delay = reorder_delay_ns == 0 ? kReorderFlushDelay
                                                      : static_cast<SimTime>(reorder_delay_ns);
    engine_.ScheduleAfter(flush_delay, [this] { std::move(FlushHeldFrames()).Detach(); });
  } else {
    // A younger frame just completed: any held frames for this destination
    // now go out late, behind it — the reordering observable at the peer.
    // (The held path/egress is exactly the one those frames recorded: held
    // frames only ever target the destination whose path we hold now.)
    DeliverHeldFramesLocked(dst);
  }
  if (trace_ != nullptr) {
    trace_->Span(name_ + ".wire", "frame " + std::to_string(total) + "B", "net", wire_start,
                 engine_.now(), flow);
  }
  ReleasePath(*path);
  ++frames_sent_;
}

void Adapter::DeliverSnapshot(const HeldFrame& frame) {
  Adapter* const dst = frame.path->dst;
  dst->BeginRxFrame(frame.channel, frame.header, frame.tag, frame.seq, frame.flow,
                    frame.src_epoch, frame.dst_epoch, frame.bytes.size());
  std::size_t done = 0;
  while (done < frame.bytes.size()) {
    const std::size_t n = std::min<std::size_t>(pm_.page_size(), frame.bytes.size() - done);
    const bool is_last = done + n == frame.bytes.size();
    dst->DeliverChunk(std::span<const std::byte>(frame.bytes.data() + done, n), is_last);
    done += n;
  }
  dst->EndRxFrame(frame.crc_ok);
}

std::deque<Adapter::HeldFrame> Adapter::TakeHeldFrames(const Adapter* dst) {
  std::deque<HeldFrame> taken;
  std::deque<HeldFrame> keep;
  for (HeldFrame& frame : held_) {
    (frame.path->dst == dst ? taken : keep).push_back(std::move(frame));
  }
  held_ = std::move(keep);
  return taken;
}

void Adapter::DeliverHeldFramesLocked(const Adapter* dst) {
  // Only frames bound for `dst` may ride this grant: the caller holds that
  // destination's egress, and delivering to any other adapter here would
  // interleave with a frame it might be receiving. Other destinations' held
  // frames wait for their own flush timer or a later same-destination frame.
  if (held_.empty()) {
    return;
  }
  for (const HeldFrame& frame : TakeHeldFrames(dst)) {
    if (trace_ != nullptr) {
      trace_->Instant(name_ + ".wire", "link_late_delivery seq " + std::to_string(frame.seq),
                      "net", engine_.now(), frame.flow);
    }
    DeliverSnapshot(frame);
  }
}

Task<void> Adapter::FlushHeldFrames() {
  while (!held_.empty()) {
    // Each flush round acquires the front frame's own transmit path (held
    // frames may target different destinations on a fabric) and drains every
    // held frame sharing that destination.
    const TxPath& path = *held_.front().path;
    if (co_await AcquirePath(path, held_.front().channel, held_.front().bytes.size())) {
      DeliverHeldFramesLocked(path.dst);
      ReleasePath(path);
      continue;
    }
    // The replay path is down: every held frame bound for this destination
    // is dropped (held-frame drop on link down).
    for (const HeldFrame& frame : TakeHeldFrames(path.dst)) {
      ++link_down_drops_;
      if (trace_ != nullptr) {
        trace_->Instant(name_ + ".wire", "held_drop_link_down seq " + std::to_string(frame.seq),
                        "net", engine_.now(), frame.flow);
      }
    }
  }
}

bool Adapter::SendCell(ControlCell::Kind kind, std::uint64_t channel, std::uint64_t seq) {
  Adapter* const peer = ControlPeer(channel);
  if (peer == nullptr) {
    return false;  // Unidirectional test wiring: no control-cell return path.
  }
  // Field by field: a designated initializer without `sack` warns (-Wextra).
  ControlCell cell;
  cell.kind = kind;
  cell.epoch = self_epoch_;
  cell.channel = channel;
  cell.seq = seq;
  engine_.ScheduleAfter(kCreditLatency, [peer, cell = std::move(cell)] { peer->OnCell(cell); });
  return true;
}

void Adapter::OnCell(const ControlCell& cell) {
  if (crashed_) {
    // The device that would act on the cell is dead; a lost credit
    // reinitializes from the peer's posted buffers after restart.
    ++crash_cell_drops_;
    return;
  }
  switch (cell.kind) {
    case ControlCell::Kind::kAck:
    case ControlCell::Kind::kNack:
    case ControlCell::Kind::kSack:
      if (auto floor = peer_epoch_floor_.find(cell.channel);
          floor != peer_epoch_floor_.end() && cell.epoch < floor->second) {
        // A dead incarnation must not ack its successor's sequence space.
        ++stale_epoch_cell_drops_;
        return;
      }
      break;
    case ControlCell::Kind::kCredit: {
      auto& waiters = credit_waiters_[cell.channel];
      if (waiters.empty()) {
        ++tx_credits_[cell.channel];
      } else {
        // Hand the credit straight to the oldest blocked transmission.
        engine_.ResumeAfter(0, waiters.front().handle);
        waiters.pop_front();
      }
      return;
    }
    case ControlCell::Kind::kResync: {
      // Reinitialize the channel's dedup window at the sender's high-water
      // mark: every sequence at or below it belongs to completed or abandoned
      // transfers, so only genuinely new frames are accepted after the bump.
      RxDedup& dedup = rx_dedup_[cell.channel];
      dedup.max_seq = std::max(dedup.max_seq, cell.seq);
      dedup.cum = std::max(dedup.cum, cell.seq);
      dedup.seen.erase(dedup.seen.begin(), dedup.seen.upper_bound(dedup.cum));
      dedup.src_epoch = std::max(dedup.src_epoch, cell.epoch);
      NotePeerEpoch(cell.channel, cell.epoch);
      if (trace_ != nullptr) {
        trace_->Instant(name_ + ".wire", "resync_accept hw " + std::to_string(cell.seq), "net",
                        engine_.now());
      }
      SendCell(ControlCell::Kind::kResyncAck, cell.channel);
      return;
    }
    case ControlCell::Kind::kFence:
    case ControlCell::Kind::kResyncAck:
      break;
  }
  if (cell_handler_) {
    cell_handler_(cell);
  }
}

void Adapter::SendAck(std::uint64_t channel, std::uint64_t seq, bool ok, std::uint64_t flow) {
  if (!SendCell(ok ? ControlCell::Kind::kAck : ControlCell::Kind::kNack, channel, seq)) {
    return;
  }
  ++(ok ? acks_sent_ : nacks_sent_);
  if (trace_ != nullptr) {
    trace_->Instant(name_ + ".wire", std::string(ok ? "ack" : "nack") + " seq " +
                        std::to_string(seq), "net", engine_.now(), flow);
  }
}

void Adapter::NotePeerEpoch(std::uint64_t channel, std::uint32_t epoch) {
  std::uint32_t& floor = peer_epoch_floor_[channel];
  floor = std::max(floor, epoch);
}

void Adapter::SendEpochFence(std::uint64_t channel, std::uint64_t flow) {
  if (!SendCell(ControlCell::Kind::kFence, channel)) {
    return;
  }
  ++fences_sent_;
  if (trace_ != nullptr) {
    trace_->Instant(name_ + ".wire", "epoch_fence e" + std::to_string(self_epoch_), "net",
                    engine_.now(), flow);
  }
}

void Adapter::SendResync(std::uint64_t channel, std::uint64_t seq_hw) {
  if (!SendCell(ControlCell::Kind::kResync, channel, seq_hw)) {
    return;
  }
  ++resyncs_sent_;
  if (trace_ != nullptr) {
    trace_->Instant(name_ + ".wire",
                    "resync hw " + std::to_string(seq_hw) + " e" + std::to_string(self_epoch_),
                    "net", engine_.now());
  }
}

void Adapter::ScheduleSackFlush(std::uint64_t channel) {
  if (ControlPeer(channel) == nullptr) {
    return;  // Unidirectional test wiring: no control-cell return path.
  }
  bool& pending = sack_flush_pending_[channel];
  if (pending) {
    return;  // A flush is already armed; this accept rides the same train.
  }
  pending = true;
  // The flush fires one control-cell latency out and snapshots the dedup
  // state *then*, so every frame accepted during the accumulation window is
  // acknowledged by the same cell train — one ack wakeup for many frames.
  engine_.ScheduleAfter(kCreditLatency, [this, channel] { FlushSack(channel); });
}

void Adapter::FlushSack(std::uint64_t channel) {
  if (crashed_) {
    return;  // Armed pre-crash; the dedup state it would snapshot is gone.
  }
  sack_flush_pending_[channel] = false;
  Adapter* const peer = ControlPeer(channel);
  if (peer == nullptr) {
    return;
  }
  auto it = rx_dedup_.find(channel);
  if (it == rx_dedup_.end()) {
    return;
  }
  // The train leaves now, when the armed flush fires: its latency was the
  // accumulation window, so it skips SendCell's second one.
  ControlCell train;
  train.kind = ControlCell::Kind::kSack;
  train.epoch = self_epoch_;
  train.channel = channel;
  train.sack = EncodeSack(it->second.cum, it->second.seen);
  ++sack_flushes_;
  sack_cells_sent_ += train.sack.size();
  acks_sent_ += train.sack.size();
  if (trace_ != nullptr) {
    trace_->Instant(name_ + ".wire",
                    "sack cum " + std::to_string(it->second.cum) + " +" +
                        std::to_string(it->second.seen.size()) + " cells " +
                        std::to_string(train.sack.size()),
                    "net", engine_.now());
  }
  peer->OnCell(train);
}

bool Adapter::AbortCreditWait(std::uint64_t channel, const std::shared_ptr<TxControl>& ctl) {
  auto it = credit_waiters_.find(channel);
  if (it == credit_waiters_.end()) {
    return false;
  }
  for (auto w = it->second.begin(); w != it->second.end(); ++w) {
    if (w->ctl == ctl && ctl != nullptr) {
      const std::coroutine_handle<> h = w->handle;
      it->second.erase(w);
      ctl->aborted = true;
      engine_.ResumeAfter(0, h);
      return true;
    }
  }
  return false;
}

void Adapter::PostReceive(std::uint64_t channel, PostedReceive posted) {
  GENIE_CHECK(!crashed_) << "PostReceive on crashed adapter " << name_;
  posted_[channel].push_back(std::move(posted));
  if (config_.flow_control) {
    SendCell(ControlCell::Kind::kCredit, channel);  // One credit back to the sender.
  }
}

std::size_t Adapter::posted_receives(std::uint64_t channel) const {
  auto it = posted_.find(channel);
  return it == posted_.end() ? 0 : it->second.size();
}

void Adapter::BeginRxFrame(std::uint64_t channel, std::uint32_t header, std::uint32_t tag,
                           std::uint64_t seq, std::uint64_t flow, std::uint32_t src_epoch,
                           std::uint32_t dst_epoch, std::uint64_t wire_bytes) {
  GENIE_CHECK(!rx_.has_value()) << "overlapping frames on one link";
  rx_.emplace();
  rx_->channel = channel;
  rx_->header = header;
  rx_->tag = tag;
  rx_->seq = seq;
  rx_->flow = flow;
  rx_->src_epoch = src_epoch;
  rx_->dst_epoch = dst_epoch;
  if (crashed_) {
    // A dead node neither delivers nor responds; the sender's ARQ timers
    // (and eventually the epoch fence after restart) own recovery.
    rx_->silent_drop = true;
    ++crash_frame_drops_;
    return;
  }
  if (seq != 0 && dst_epoch != 0) {
    GENIE_CHECK_LE(dst_epoch, self_epoch_)
        << "frame addressed to a future incarnation of " << name_;
    if (dst_epoch < self_epoch_) {
      // Addressed to a dead incarnation of this node: delivering it could
      // duplicate data the predecessor already consumed (its dedup state
      // died with it). Fence the sender instead of acking.
      rx_->fenced = true;
      ++stale_epoch_frame_drops_;
      return;
    }
  }
  if (seq != 0 && src_epoch != 0) {
    RxDedup& dedup = rx_dedup_[channel];
    if (dedup.src_epoch != 0 && src_epoch < dedup.src_epoch) {
      // A straggler (held/duplicated frame) from a dead incarnation of the
      // sender. Its sequence space predates the channel's current one; drop
      // without acking so it can never resolve a live entry.
      rx_->silent_drop = true;
      ++stale_epoch_frame_drops_;
      return;
    }
    dedup.src_epoch = std::max(dedup.src_epoch, src_epoch);
  }
  if (seq != 0) {
    // ARQ duplicate suppression: a sequence number already delivered to the
    // host is discarded without consuming a buffer (the ack got lost or beat
    // the sender's timeout; re-acked at EndRxFrame). Anything at or below
    // the cumulative mark, or accepted out of order above it, is a duplicate.
    auto dedup = rx_dedup_.find(channel);
    if (dedup != rx_dedup_.end() &&
        (seq <= dedup->second.cum || dedup->second.seen.count(seq) != 0)) {
      rx_->duplicate = true;
      return;
    }
  }
  if (config_.rx_buffering == InputBuffering::kEarlyDemux) {
    if (tag != 0) {
      // Sender-managed placement: look the tag up in the named registry.
      auto named = named_.find({channel, tag});
      if (named != named_.end()) {
        rx_->posted = named->second;  // Copy: the registration persists.
        rx_->named = true;
        return;
      }
      rx_->dropped = true;
      NoteDrop("no_named_buffer", channel, &drops_no_posted_buffer_);
      return;
    }
    auto it = posted_.find(channel);
    if (it == posted_.end() || it->second.empty()) {
      // No posted buffer: the controller has nowhere to put the data.
      rx_->dropped = true;
      NoteDrop("no_posted_buffer", channel, &drops_no_posted_buffer_);
    } else {
      rx_->posted = std::move(it->second.front());
      it->second.pop_front();
    }
  } else if (config_.rx_buffering == InputBuffering::kOutboard) {
    // Stage the frame in one allocation instead of growing it chunk by chunk.
    rx_->outboard.reserve(wire_bytes);
  } else {
    // Pooled: one overlay page per page of the frame, listed in one allocation.
    rx_->overlay_pages.reserve((wire_bytes + pm_.page_size() - 1) / pm_.page_size());
  }
}

void Adapter::NoteDrop(const char* cause, std::uint64_t channel, std::uint64_t* cause_counter) {
  ++frames_dropped_no_buffer_;
  ++*cause_counter;
  if (trace_ != nullptr) {
    trace_->Instant(name_ + ".wire",
                    std::string("drop ") + cause + " ch " + std::to_string(channel), "net",
                    engine_.now());
  }
}

bool Adapter::CancelPostedReceive(std::uint64_t channel, std::uint64_t cancel_id) {
  if (cancel_id == 0) {
    return false;
  }
  auto it = posted_.find(channel);
  if (it == posted_.end()) {
    return false;
  }
  for (auto q = it->second.begin(); q != it->second.end(); ++q) {
    if (q->cancel_id == cancel_id) {
      it->second.erase(q);
      return true;
    }
  }
  return false;
}

void Adapter::RegisterNamedBuffer(std::uint64_t channel, std::uint32_t tag,
                                  PostedReceive buffer) {
  GENIE_CHECK(config_.rx_buffering == InputBuffering::kEarlyDemux)
      << "named buffers require early demultiplexing";
  GENIE_CHECK(tag != 0) << "tag 0 is reserved for receiver-posted buffers";
  const bool inserted = named_.emplace(std::make_pair(channel, tag), std::move(buffer)).second;
  GENIE_CHECK(inserted) << "tag " << tag << " already registered";
}

void Adapter::UnregisterNamedBuffer(std::uint64_t channel, std::uint32_t tag) {
  const std::size_t erased = named_.erase({channel, tag});
  GENIE_CHECK_EQ(erased, 1u) << "unregistering unknown named buffer";
}

void Adapter::DeliverChunk(std::span<const std::byte> data, bool is_last) {
  if (!rx_.has_value()) {
    // A crash mid-reception discarded the frame state; the sender keeps
    // streaming into the void until its transmit completes.
    GENIE_CHECK(rx_discarded_inflight_) << "chunk with no frame on " << name_;
    return;
  }
  if (cpu_ != nullptr && driver_us_per_byte_ > 0 && !is_last && !crashed_) {
    // Receive-side driver work overlapping the rest of the frame's arrival.
    // The final chunk's share is folded into the interrupt processing that
    // completion charges, so it is skipped here to keep it off the wire path.
    cpu_->RunDetached(MicrosToSimTime(static_cast<double>(data.size()) * driver_us_per_byte_));
  }
  RxState& rx = *rx_;
  if (rx.dropped || rx.duplicate || rx.silent_drop || rx.fenced) {
    rx.bytes += data.size();
    return;
  }
  switch (config_.rx_buffering) {
    case InputBuffering::kEarlyDemux:
      DeliverChunkEarlyDemux(rx, data);
      break;
    case InputBuffering::kPooled:
      DeliverChunkPooled(rx, data);
      break;
    case InputBuffering::kOutboard:
      if (outboard_bytes_held_ + rx.outboard.size() + data.size() >
          config_.outboard_capacity_bytes) {
        // Outboard staging RAM exhausted: the controller drops the frame.
        rx.dropped = true;
        NoteDrop("outboard_overflow", rx.channel, &drops_outboard_overflow_);
        rx.outboard.clear();
        rx.outboard.shrink_to_fit();
        rx.bytes += data.size();
        break;
      }
      rx.outboard.insert(rx.outboard.end(), data.begin(), data.end());
      rx.bytes += data.size();
      break;
  }
}

void Adapter::DeliverChunkEarlyDemux(RxState& rx, std::span<const std::byte> data) {
  const std::uint64_t written = WriteToIoVec(pm_, rx.posted->target, rx.bytes, data);
  if (written < data.size()) {
    rx.truncated = true;
  }
  rx.bytes += data.size();
}

void Adapter::DeliverChunkPooled(RxState& rx, std::span<const std::byte> data) {
  const std::uint32_t page = pm_.page_size();
  std::size_t done = 0;
  while (done < data.size()) {
    if (rx.overlay_pages.empty() || rx.in_page == page) {
      const FrameId f = pool_->Allocate();
      if (f == kInvalidFrame) {
        rx.dropped = true;
        NoteDrop("pool_exhausted", rx.channel, &drops_pool_exhausted_);
        // Return overlay pages already used for this frame.
        for (const FrameId used : rx.overlay_pages) {
          pool_->Free(used);
        }
        rx.overlay_pages.clear();
        rx.bytes += data.size() - done;
        return;
      }
      rx.overlay_pages.push_back(f);
      rx.in_page = 0;
    }
    const std::size_t chunk =
        std::min<std::size_t>(page - rx.in_page, data.size() - done);
    std::memcpy(pm_.Data(rx.overlay_pages.back()).data() + rx.in_page, data.data() + done,
                chunk);
    rx.in_page += static_cast<std::uint32_t>(chunk);
    done += chunk;
    rx.bytes += chunk;
  }
}

void Adapter::EndRxFrame(bool crc_ok) {
  if (!rx_.has_value()) {
    // The frame being streamed when this node crashed: its state is gone.
    GENIE_CHECK(rx_discarded_inflight_) << "frame end with no frame on " << name_;
    rx_discarded_inflight_ = false;
    return;
  }
  RxState rx = std::move(*rx_);
  rx_.reset();
  if (rx.silent_drop) {
    return;  // Crashed node or dead-epoch straggler: no cell goes back.
  }
  if (rx.fenced) {
    // Tell the sender which incarnation is live so it can abort, resync,
    // and re-stamp; the frame itself is discarded.
    SendEpochFence(rx.channel, rx.flow);
    return;
  }
  if (rx.duplicate) {
    ++rx_duplicate_frames_;
    if (trace_ != nullptr) {
      trace_->Instant(name_ + ".wire", "dup_suppressed seq " + std::to_string(rx.seq), "net",
                      engine_.now(), rx.flow);
    }
    // Re-ack: the sender is retransmitting because the first ack lost the
    // race against its timeout; only a fresh ack stops it.
    SendAck(rx.channel, rx.seq, true, rx.flow);
    return;
  }
  if (rx.dropped) {
    if (rx.seq != 0) {
      SendAck(rx.channel, rx.seq, false, rx.flow);
    }
    return;
  }
  ++frames_received_;
  if (!crc_ok) {
    ++rx_crc_errors_;
    if (rx.seq != 0) {
      // Damaged sequenced frame: the link layer owns recovery, so the host
      // never sees it. The consumed posted buffer goes back to the *front*
      // of the queue — its flow-control credit was already spent, and the
      // retransmission must land in the same buffer. (Pooled and outboard
      // devices take no posting before the frame is accepted.)
      if (rx.posted.has_value() && !rx.named) {
        posted_[rx.channel].push_front(std::move(*rx.posted));
      }
      for (const FrameId used : rx.overlay_pages) {
        pool_->Free(used);
      }
      if (trace_ != nullptr) {
        trace_->Instant(name_ + ".wire", "rx_crc_retry seq " + std::to_string(rx.seq), "net",
                        engine_.now(), rx.flow);
      }
      SendAck(rx.channel, rx.seq, false, rx.flow);
      return;
    }
  }
  if (rx.truncated) {
    ++rx_truncated_frames_;
  }
  if (rx.seq != 0) {
    // Accept: advance the cumulative mark over any now-contiguous prefix;
    // out-of-order accepts wait above it in the seen-set (bounded by the
    // sender's window, and recorded forever via `cum` once the prefix
    // closes). The ack rides the next batched SACK flush.
    RxDedup& dedup = rx_dedup_[rx.channel];
    dedup.max_seq = std::max(dedup.max_seq, rx.seq);
    if (rx.seq == dedup.cum + 1) {
      dedup.cum = rx.seq;
      while (!dedup.seen.empty() && *dedup.seen.begin() == dedup.cum + 1) {
        dedup.seen.erase(dedup.seen.begin());
        ++dedup.cum;
      }
    } else if (rx.seq > dedup.cum) {
      dedup.seen.insert(rx.seq);
    }
    // Dead-hole reclamation: the sender's live window spans at most
    // `arq_window_` seqs, so a gap more than two windows below the newest
    // accepted frame can no longer be filled (that sender gave up or was
    // cancelled). Jump the cumulative mark over it rather than letting the
    // out-of-order set grow without bound.
    const std::uint64_t horizon = 2ull * arq_window_;
    if (dedup.max_seq > horizon && dedup.cum < dedup.max_seq - horizon) {
      dedup.cum = dedup.max_seq - horizon;
      while (!dedup.seen.empty() && *dedup.seen.begin() <= dedup.cum) {
        dedup.seen.erase(dedup.seen.begin());
      }
      while (!dedup.seen.empty() && *dedup.seen.begin() == dedup.cum + 1) {
        dedup.seen.erase(dedup.seen.begin());
        ++dedup.cum;
      }
    }
    ScheduleSackFlush(rx.channel);
  }
  if (trace_ != nullptr) {
    trace_->Instant(name_ + ".wire",
                    "rx_complete " + std::to_string(rx.bytes) + "B" +
                        (crc_ok ? "" : " crc_error") + (rx.truncated ? " truncated" : ""),
                    "net", engine_.now(), rx.flow);
  }
  if (config_.rx_buffering != InputBuffering::kEarlyDemux) {
    // Pooled and outboard frames land in device-owned memory, so they meet
    // the oldest posting only now, complete. With none waiting, the frame is
    // discarded: its overlay pages go back to the pool, its staging is freed.
    auto it = posted_.find(rx.channel);
    if (it == posted_.end() || it->second.empty()) {
      for (const FrameId used : rx.overlay_pages) {
        pool_->Free(used);
      }
      return;
    }
    rx.posted = std::move(it->second.front());
    it->second.pop_front();
  }
  RxCompletion completion;
  completion.channel = rx.channel;
  completion.header = rx.header;
  completion.tag = rx.tag;
  completion.bytes = rx.bytes;
  completion.seq = rx.seq;
  completion.flow = rx.flow;
  completion.crc_ok = crc_ok;
  completion.truncated = rx.truncated;
  switch (config_.rx_buffering) {
    case InputBuffering::kEarlyDemux:
      completion.bytes = std::min<std::uint64_t>(rx.bytes, rx.posted->target.total_bytes());
      break;
    case InputBuffering::kPooled:
      completion.overlay_pages = std::move(rx.overlay_pages);
      break;
    case InputBuffering::kOutboard:
      completion.outboard_handle = next_outboard_handle_++;
      outboard_bytes_held_ += rx.outboard.size();
      outboard_[completion.outboard_handle] = std::move(rx.outboard);
      break;
  }
  if (rx.posted->on_complete) {
    rx.posted->on_complete(std::move(completion));
  }
}

void Adapter::Crash(std::uint32_t new_epoch) {
  GENIE_CHECK(!crashed_) << "double crash on " << name_;
  GENIE_CHECK_GT(new_epoch, self_epoch_) << "crash must bump the incarnation epoch";
  crashed_ = true;
  self_epoch_ = new_epoch;
  // The frame being received right now dies with the device: return its
  // overlay pages and forget it. The sending adapter's chunk/end calls are
  // tolerated until its transmit completes (rx_discarded_inflight_).
  if (rx_.has_value()) {
    if (pool_ != nullptr) {
      for (const FrameId used : rx_->overlay_pages) {
        pool_->Free(used);
      }
    }
    rx_.reset();
    rx_discarded_inflight_ = true;
  }
  // Host-visible device tables: posted and named buffer lists, reorder
  // holds, dedup windows, armed SACK flushes, and the cell-staleness floors
  // — all RAM-resident device state. Staged outboard frames stay: each was
  // handed to a posted input whose dispose has started, and that dispose
  // runs to completion and frees it (as handed-over overlay pages do).
  posted_.clear();
  named_.clear();
  held_.clear();
  rx_dedup_.clear();
  sack_flush_pending_.clear();
  peer_epoch_floor_.clear();
  // Transmit credits die; blocked transmissions resume aborted (the frames
  // were never put on the wire).
  tx_credits_.clear();
  for (auto& [channel, waiters] : credit_waiters_) {
    (void)channel;
    for (CreditWaiter& w : waiters) {
      if (w.ctl != nullptr) {
        w.ctl->aborted = true;
      }
      engine_.ResumeAfter(0, w.handle);
    }
  }
  credit_waiters_.clear();
  if (trace_ != nullptr) {
    trace_->Instant(name_ + ".wire", "crash e" + std::to_string(self_epoch_), "net",
                    engine_.now());
  }
}

void Adapter::Restart() {
  GENIE_CHECK(crashed_) << "Restart() on live adapter " << name_;
  crashed_ = false;
  if (trace_ != nullptr) {
    trace_->Instant(name_ + ".wire", "restart e" + std::to_string(self_epoch_), "net",
                    engine_.now());
  }
}

std::span<const std::byte> Adapter::OutboardData(std::uint32_t handle) const {
  auto it = outboard_.find(handle);
  GENIE_CHECK(it != outboard_.end()) << "unknown outboard handle " << handle;
  return it->second;
}

void Adapter::FreeOutboard(std::uint32_t handle) {
  auto it = outboard_.find(handle);
  GENIE_CHECK(it != outboard_.end()) << "freeing unknown outboard buffer";
  GENIE_CHECK_GE(outboard_bytes_held_, it->second.size());
  outboard_bytes_held_ -= it->second.size();
  outboard_.erase(it);
}

}  // namespace genie
