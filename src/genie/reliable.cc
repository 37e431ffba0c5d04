#include "src/genie/reliable.h"

#include <algorithm>
#include <vector>

#include "src/util/check.h"

namespace genie {

ReliableDelivery::ReliableDelivery(Engine& engine, Adapter& adapter, std::string xfer_track)
    : engine_(&engine),
      adapter_(&adapter),
      xfer_track_(std::move(xfer_track)),
      timers_(engine) {
  adapter_->set_cell_handler([this](const ControlCell& cell) {
    switch (cell.kind) {
      case ControlCell::Kind::kAck:
      case ControlCell::Kind::kNack:
        return OnAck(cell.channel, cell.seq, cell.kind == ControlCell::Kind::kAck);
      case ControlCell::Kind::kSack:
        return OnSack(cell.channel, cell.sack);
      case ControlCell::Kind::kFence:
        return OnFence(cell.channel, cell.epoch);
      case ControlCell::Kind::kResyncAck:
        return OnResyncAck(cell.channel, cell.epoch);
      default:
        return;  // The adapter consumes credits and resyncs itself.
    }
  });
}

void ReliableDelivery::Instant(const std::string& text, std::uint64_t flow) {
  if (trace_ != nullptr) {
    trace_->Instant(xfer_track_, text, "reliable", engine_->now(), flow);
  }
}

void ReliableDelivery::set_metrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    ack_rtt_ = nullptr;
    retransmit_delay_ = nullptr;
    return;
  }
  ack_rtt_ = &metrics->Histogram("reliable.ack_rtt_us");
  retransmit_delay_ = &metrics->Histogram("reliable.retransmit_delay_us");
}

SimTime ReliableDelivery::WithJitter(SimTime timeout) {
  if (options_.jitter_frac <= 0.0) {
    return timeout;
  }
  const double stretch = static_cast<double>(timeout) * options_.jitter_frac * rng_.NextDouble();
  return timeout + static_cast<SimTime>(stretch);
}

void ReliableDelivery::OnAck(std::uint64_t channel, std::uint64_t seq, bool ok) {
  if (ok) {
    ++stats_.acks;
  } else {
    ++stats_.nacks;
  }
  // Per-sequence cells carry nacks (CRC failures, dropped frames) and re-acks
  // of suppressed duplicates; SACK trains carry the normal acknowledgement
  // traffic (OnSack). An ack still overrides a give-up its owner has not
  // consumed yet (ResolveAcked).
  WindowEntry* entry = FindEntry(channel, seq);
  const bool live = entry != nullptr && (entry->result == WindowEntry::kPending ||
                                         (ok && entry->result == WindowEntry::kGiveUp));
  if (!live) {
    ++stats_.stale_acks;
    return;
  }
  if (ok) {
    ResolveAcked(*entry);
  } else {
    timers_.Cancel(entry->timer);
    RetransmitOrGiveUp(channel, seq, /*from_nack=*/true);
  }
}

ReliableDelivery::WindowEntry* ReliableDelivery::FindEntry(std::uint64_t channel,
                                                           std::uint64_t seq) {
  auto win = windows_.find(channel);
  if (win == windows_.end()) {
    return nullptr;
  }
  auto it = win->second->inflight.find(seq);
  return it == win->second->inflight.end() ? nullptr : it->second.get();
}

void ReliableDelivery::ResolveAcked(WindowEntry& entry) {
  // An ack that lands in the same instant as the give-up verdict, before the
  // owning coroutine consumed it, wins: the frame WAS delivered, so the
  // transfer completes (counted once, as delivered). Its owner is already
  // woken; only the verdict changes.
  const bool overrides_give_up = entry.result == WindowEntry::kGiveUp;
  entry.result = WindowEntry::kAcked;
  if (entry.token != nullptr) {
    entry.token->resolved = true;
  }
  if (overrides_give_up) {
    return;
  }
  timers_.Cancel(entry.timer);
  const SimTime now = engine_->now();
  if (trace_ != nullptr && entry.last_tx_end > 0 && now > entry.last_tx_end) {
    // The final ack_wait span of this transfer: last attempt off the wire to
    // ack arrival. Earlier attempts already emitted theirs when they timed
    // out (RetransmitOrGiveUp), so the critical-path classifier sees one
    // ack_wait per attempt.
    trace_->Span(xfer_track_, entry.label + ".ack_wait", "reliable", entry.last_tx_end, now,
                 entry.flow);
  }
  if (ack_rtt_ != nullptr) {
    // last_tx_end == 0 means the ack beat the first transmit's completion
    // (delayed-completion fault on our side): zero observable rtt.
    ack_rtt_->Add(entry.last_tx_end > 0 ? SimTimeToMicros(now - entry.last_tx_end) : 0.0);
  }
  entry.done.Set();
}

void ReliableDelivery::OnSack(std::uint64_t channel, const std::vector<SackCell>& cells) {
  auto win = windows_.find(channel);
  if (win == windows_.end()) {
    ++stats_.stale_acks;  // Nothing was ever in flight on this channel.
    return;
  }
  // Resolve every pending entry the train covers. Entries are erased only by
  // their owning coroutine (woken here via done.Set()), so iterating the
  // live map is safe. Sequence numbers never wrap in practice (64-bit,
  // minted from 1), so plain comparisons suffice on the sender side.
  bool resolved_any = false;
  for (auto& [seq, entry] : win->second->inflight) {
    if (entry->result != WindowEntry::kPending && entry->result != WindowEntry::kGiveUp) {
      continue;
    }
    bool covered = false;
    for (const SackCell& cell : cells) {
      const std::uint64_t off = seq - cell.base;
      if (seq <= cell.cum || (off < kSackBitsPerCell && ((cell.bitmap >> off) & 1ull) != 0)) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      continue;
    }
    resolved_any = true;
    ++stats_.acks;
    ResolveAcked(*entry);
  }
  if (!resolved_any) {
    // A late train: every frame it covers already retired (cancelled,
    // crashed, or resolved by an earlier train).
    ++stats_.stale_acks;
  }
}

void ReliableDelivery::ArmEntryTimer(std::uint64_t channel, std::uint64_t seq) {
  WindowEntry* entry = FindEntry(channel, seq);
  if (entry == nullptr) {
    return;
  }
  entry->timer = timers_.ScheduleAfter(WithJitter(entry->timeout), [this, channel, seq] {
    RetransmitOrGiveUp(channel, seq, /*from_nack=*/false);
  });
}

void ReliableDelivery::RetransmitOrGiveUp(std::uint64_t channel, std::uint64_t seq,
                                          bool from_nack) {
  WindowEntry* e = FindEntry(channel, seq);
  if (e == nullptr || e->result != WindowEntry::kPending || e->retransmitting) {
    // Already resolved, retired, or a retransmission is still on the wire
    // (a nack for the previous attempt can arrive mid-retransmit; the fresh
    // attempt's own timer takes over when it completes).
    return;
  }
  const SimTime now = engine_->now();
  if (trace_ != nullptr && e->last_tx_end > 0 && now > e->last_tx_end) {
    // Time parked between the attempt leaving the wire and this escalation.
    trace_->Span(xfer_track_, e->label + ".ack_wait", "reliable", e->last_tx_end, now, e->flow);
  }
  if (e->token != nullptr && e->token->cancelled) {
    e->result = WindowEntry::kCancelled;
    e->done.Set();
    return;
  }
  if (e->attempts > options_.max_retransmits) {
    // The give-up is counted (and traced) by the owning coroutine when it
    // consumes the verdict: an ack landing in this same instant may still
    // override the result to kAcked (ResolveAcked), and that path must
    // count one delivery — not a give-up AND a delivery.
    e->result = WindowEntry::kGiveUp;
    e->done.Set();
    return;
  }
  ++stats_.retransmits;
  if (!from_nack) {
    ++stats_.timeouts;
  }
  if (retransmit_delay_ != nullptr && e->last_tx_end > 0) {
    retransmit_delay_->Add(SimTimeToMicros(now - e->last_tx_end));
  }
  Instant(e->label + " retransmit(" + (from_nack ? "nack" : "timeout") + ") seq " +
              std::to_string(seq) + " attempt " + std::to_string(e->attempts + 1),
          e->flow);
  if (!from_nack) {
    e->timeout = std::min<SimTime>(
        options_.max_timeout, static_cast<SimTime>(static_cast<double>(e->timeout) *
                                                   std::max(1.0, options_.backoff_factor)));
  }
  e->retransmitting = true;
  std::move(RetransmitEntry(channel, seq, from_nack)).Detach();
}

Task<void> ReliableDelivery::RetransmitEntry(std::uint64_t channel, std::uint64_t seq,
                                             bool from_nack) {
  // `retransmitting` pins the entry: the owning coroutine defers erasure
  // until this unwinds, so the pointer stays valid across the awaits below.
  WindowEntry* e = FindEntry(channel, seq);
  GENIE_CHECK(e != nullptr);
  if (from_nack && options_.nack_delay > 0) {
    // Let the receiver finish restoring the posted buffer that the corrupted
    // frame consumed before the replacement lands in it.
    const SimTime delay_start = engine_->now();
    co_await Delay(*engine_, options_.nack_delay);
    if (trace_ != nullptr) {
      trace_->Span(xfer_track_, e->label + ".nack_delay", "reliable", delay_start,
                   engine_->now(), e->flow);
    }
    if (e->result != WindowEntry::kPending ||
        (e->token != nullptr && e->token->cancelled)) {
      // A duplicate delivery got acked (or the watchdog struck) during the
      // pause; the owner retires the entry.
      e->retransmitting = false;
      e->done.Set();
      co_return;
    }
  }
  ++e->attempts;
  auto ctl = std::make_shared<TxControl>();
  ctl->seq = seq;
  ctl->src_epoch = local_epoch_;
  ctl->dst_epoch = e->peer_epoch;
  // The lost original already spent this frame's flow-control credit;
  // acquiring again would double-spend and deadlock under loss.
  ctl->skip_credit = true;
  e->ctl = ctl;
  if (e->token != nullptr) {
    e->token->ctl = ctl;
  }
  co_await adapter_->TransmitFrame(channel, e->iov, e->header, e->tag, ctl, e->flow);
  e->last_tx_end = engine_->now();
  e->retransmitting = false;
  if (e->result == WindowEntry::kPending &&
      (ctl->aborted || (e->token != nullptr && e->token->cancelled))) {
    e->result = WindowEntry::kCancelled;
  }
  if (e->result != WindowEntry::kPending) {
    e->done.Set();  // Resolved (or cancelled) while on the wire.
    co_return;
  }
  ArmEntryTimer(channel, seq);
}

Task<ReliableDelivery::TxReport> ReliableDelivery::TransmitReliably(
    std::uint64_t channel, IoVec iov, std::uint32_t header, std::uint32_t tag, std::string label,
    std::shared_ptr<CancelToken> token, std::uint64_t flow, std::uint32_t peer_epoch) {
  GENIE_CHECK(options_.arq) << "TransmitReliably with ARQ disabled";
  if (peer_epoch == 0) {
    peer_epoch = PeerEpoch(channel);
  }
  ++stats_.sequenced_frames;
  TxReport report;
  auto& win_slot = windows_[channel];
  if (win_slot == nullptr) {
    win_slot = std::make_unique<ChannelWindow>(*engine_);
  }
  ChannelWindow& win = *win_slot;

  // Admission: selective repeat keeps live seqs inside [base, base + window),
  // base being the oldest unacked frame. The seq is minted only on
  // admission, so a transfer cancelled while stalled leaves no hole in the
  // sequence space. All stalled admissions re-check when the window slides;
  // the check-and-mint runs without suspension, so each admission sees its
  // predecessors' seqs.
  for (;;) {
    // A peer epoch that moved on since the output began means its
    // addressee died (a fence arrived while this output was being prepared
    // or waiting for the window): fail it before it gets a sequence number,
    // or it would land in a buffer the new incarnation posted for a later
    // transfer.
    if (crashed_ || PeerEpoch(channel) != peer_epoch) {
      report.outcome = TxOutcome::kPeerCrashed;
      ++stats_.peer_crash_aborts;
      co_return report;
    }
    if (token != nullptr && token->cancelled) {
      report.outcome = TxOutcome::kCancelled;
      ++stats_.cancelled_transmits;
      co_return report;
    }
    if (Resyncing(channel)) {
      if (!co_await AwaitResync(channel, token, label, flow)) {
        report.outcome = TxOutcome::kCancelled;
        ++stats_.cancelled_transmits;
        co_return report;
      }
      continue;  // Re-check crash/epoch/cancel/window from the top.
    }
    if (win.inflight.empty() ||
        next_seq_[channel] + 1 < win.inflight.begin()->first + options_.window) {
      break;
    }
    if (token != nullptr) {
      token->wake = &win.open;
    }
    const SimTime stall_start = engine_->now();
    co_await win.open.Wait();
    win.open.Reset();
    if (trace_ != nullptr && engine_->now() > stall_start) {
      trace_->Span(xfer_track_, label + ".window_stall", "reliable", stall_start, engine_->now(),
                   flow);
    }
  }

  const std::uint64_t seq = ++next_seq_[channel];
  auto owned = std::make_unique<WindowEntry>(*engine_);
  WindowEntry* e = owned.get();
  e->iov = iov;
  e->header = header;
  e->tag = tag;
  e->label = label;
  e->flow = flow;
  e->peer_epoch = peer_epoch;
  e->token = token;
  e->timeout = options_.initial_timeout;
  e->attempts = 1;
  win.inflight.emplace(seq, std::move(owned));
  if (token != nullptr) {
    token->wake = &e->done;
  }

  auto ctl = std::make_shared<TxControl>();
  ctl->seq = seq;
  ctl->src_epoch = local_epoch_;
  ctl->dst_epoch = peer_epoch;
  e->ctl = ctl;
  if (token != nullptr) {
    token->ctl = ctl;
  }
  co_await adapter_->TransmitFrame(channel, iov, header, tag, ctl, flow);
  e->last_tx_end = engine_->now();
  if (e->result == WindowEntry::kPending &&
      (ctl->aborted || (token != nullptr && token->cancelled))) {
    e->result = WindowEntry::kCancelled;
  }
  if (e->result == WindowEntry::kPending) {
    ArmEntryTimer(channel, seq);
  }

  // Park until the SACK/timeout/nack machinery resolves the entry, or a
  // watchdog cancellation pokes `done`.
  while (e->result == WindowEntry::kPending) {
    co_await e->done.Wait();
    e->done.Reset();
    if (e->result == WindowEntry::kPending && token != nullptr && token->cancelled) {
      timers_.Cancel(e->timer);
      e->result = WindowEntry::kCancelled;
    }
  }
  // A detached retransmission may still hold pointers into the entry; it
  // signals `done` as it unwinds. Only then is the entry safe to retire.
  while (e->retransmitting) {
    co_await e->done.Wait();
    e->done.Reset();
  }

  report.attempts = e->attempts;
  switch (e->result) {
    case WindowEntry::kAcked:
      // Counted here — not in ResolveAcked — so an ack that lands after the
      // give-up verdict and overrides it (ResolveAcked) still counts exactly
      // one delivery.
      report.outcome = TxOutcome::kDelivered;
      ++stats_.delivered_frames;
      stats_.delivered_bytes += e->iov.total_bytes();
      break;
    case WindowEntry::kGiveUp:
      report.outcome = TxOutcome::kGiveUp;
      ++stats_.giveups;
      Instant(label + " giveup seq " + std::to_string(seq) + " after " +
                  std::to_string(e->attempts) + " attempts",
              flow);
      break;
    case WindowEntry::kCrashed:
      report.outcome = TxOutcome::kPeerCrashed;
      ++stats_.peer_crash_aborts;
      break;
    case WindowEntry::kCancelled:
    case WindowEntry::kPending:
      report.outcome = TxOutcome::kCancelled;
      ++stats_.cancelled_transmits;
      break;
  }
  win.inflight.erase(seq);
  win.open.Set();  // The window slid; stalled admissions re-check.
  if (token != nullptr) {
    token->resolved = true;
    token->wake = nullptr;
    token->ctl.reset();
  }
  co_return report;
}

std::uint64_t ReliableDelivery::Watch(std::string label, std::function<WatchVerdict()> on_expire) {
  const std::uint64_t id = next_watch_id_++;
  if (!watchdog_enabled()) {
    return id;  // No-op registration keeps call sites branch-free.
  }
  watched_.emplace(id, Watched{std::move(label), std::move(on_expire),
                               engine_->now() + options_.watchdog_timeout});
  ArmScan();
  return id;
}

void ReliableDelivery::Unwatch(std::uint64_t id) { watched_.erase(id); }

void ReliableDelivery::ArmScan() {
  if (scan_armed_ || watched_.empty()) {
    return;
  }
  scan_armed_ = true;
  timers_.ScheduleAfter(options_.watchdog_period, [this] {
    scan_armed_ = false;
    RunScan();
    ArmScan();  // Re-arm only while transfers remain watched.
  });
}

void ReliableDelivery::RunScan() {
  ++stats_.watchdog_scans;
  const SimTime now = engine_->now();
  std::vector<std::uint64_t> expired;
  for (const auto& [id, entry] : watched_) {
    if (entry.deadline <= now) {
      expired.push_back(id);
    }
  }
  for (std::uint64_t id : expired) {
    auto it = watched_.find(id);
    if (it == watched_.end()) {
      continue;  // Retired by an earlier callback in this same scan.
    }
    // The callback may Unwatch() arbitrary entries (including this one), so
    // keep what we need before invoking it.
    const std::string label = it->second.label;
    const WatchVerdict verdict = it->second.on_expire();
    it = watched_.find(id);
    switch (verdict) {
      case WatchVerdict::kCompleted:
        if (it != watched_.end()) {
          watched_.erase(it);
        }
        break;
      case WatchVerdict::kCancelled:
        ++stats_.watchdog_cancels;
        Instant(label + " watchdog cancel");
        if (it != watched_.end()) {
          watched_.erase(it);
        }
        if (cancel_hook_) {
          cancel_hook_(label);
        }
        break;
      case WatchVerdict::kBusy:
        if (it != watched_.end()) {
          it->second.deadline = now + options_.watchdog_timeout;
        }
        break;
    }
  }
}

void ReliableDelivery::RecordFallback(const std::string& label, std::string_view from,
                                      std::string_view to) {
  ++stats_.fallbacks;
  Instant(label + " fallback " + std::string(from) + " -> " + std::string(to));
}

std::uint32_t ReliableDelivery::PeerEpoch(std::uint64_t channel) const {
  auto it = peer_epoch_.find(channel);
  return it == peer_epoch_.end() ? 1 : it->second;
}

bool ReliableDelivery::Resyncing(std::uint64_t channel) const {
  auto it = resync_.find(channel);
  return it != resync_.end() && it->second->resyncing;
}

Task<bool> ReliableDelivery::AwaitResync(std::uint64_t channel,
                                         std::shared_ptr<CancelToken> token,
                                         const std::string& label, std::uint64_t flow) {
  for (;;) {
    auto it = resync_.find(channel);
    if (it == resync_.end() || !it->second->resyncing) {
      co_return true;
    }
    if (token != nullptr && token->cancelled) {
      co_return false;
    }
    ResyncBarrier& barrier = *it->second;
    if (token != nullptr) {
      token->wake = &barrier.open;
    }
    const SimTime stall_start = engine_->now();
    co_await barrier.open.Wait();
    barrier.open.Reset();
    if (trace_ != nullptr && engine_->now() > stall_start) {
      trace_->Span(xfer_track_, label + ".resync_stall", "reliable", stall_start, engine_->now(),
                   flow);
    }
  }
}

void ReliableDelivery::OnFence(std::uint64_t channel, std::uint32_t peer_epoch) {
  if (peer_epoch <= PeerEpoch(channel)) {
    return;  // Duplicate fence from an incarnation we already resynced with.
  }
  ++stats_.epoch_bumps;
  peer_epoch_[channel] = peer_epoch;
  adapter_->NotePeerEpoch(channel, peer_epoch);
  Instant("peer epoch bump ch " + std::to_string(channel) + " -> e" +
          std::to_string(peer_epoch));
  AbortChannel(channel);
  StartResync(channel);
}

void ReliableDelivery::AbortChannel(std::uint64_t channel) {
  // The map itself stays (owners and detached retransmits hold pointers into
  // it); each entry resolves and its owner retires it. Stalled admissions
  // wake when their predecessors retire and fail on the epoch check.
  auto win = windows_.find(channel);
  if (win != windows_.end()) {
    for (auto& [seq, entry] : win->second->inflight) {
      if (entry->result != WindowEntry::kPending) {
        continue;
      }
      timers_.Cancel(entry->timer);
      entry->result = WindowEntry::kCrashed;
      entry->done.Set();
    }
  }
}

void ReliableDelivery::StartResync(std::uint64_t channel) {
  auto& slot = resync_[channel];
  if (slot == nullptr) {
    slot = std::make_unique<ResyncBarrier>(*engine_);
  }
  ResyncBarrier& barrier = *slot;
  if (barrier.resyncing) {
    // An even newer incarnation fenced us mid-handshake: restart the retry
    // budget and send a fresh proposal.
    timers_.Cancel(barrier.timer);
  }
  barrier.resyncing = true;
  barrier.open.Reset();
  barrier.retries = 0;
  SendResyncAttempt(channel);
}

void ReliableDelivery::SendResyncAttempt(std::uint64_t channel) {
  if (crashed_ || !Resyncing(channel)) {
    return;
  }
  ResyncBarrier& barrier = *resync_[channel];
  ++stats_.resyncs;
  // Propose our sequence high water: the rebooted receiver fast-forwards its
  // dedup cursor past every seq this incarnation may retire, so pre-crash
  // sequence numbers can never be mistaken for fresh traffic.
  adapter_->SendResync(channel, next_seq_[channel]);
  barrier.timer = timers_.ScheduleAfter(WithJitter(options_.initial_timeout), [this, channel] {
    auto it = resync_.find(channel);
    if (it == resync_.end() || !it->second->resyncing) {
      return;
    }
    if (it->second->retries >= options_.max_retransmits) {
      // Retry budget exhausted (the peer is still down, or the control path
      // truly died). Open the barrier anyway: parked transfers proceed and
      // fail through the normal give-up path, so the simulation still goes
      // quiescent instead of wedging on the barrier forever.
      Instant("resync giveup ch " + std::to_string(channel));
      ReleaseResync(channel);
      return;
    }
    ++it->second->retries;
    SendResyncAttempt(channel);
  });
}

void ReliableDelivery::ReleaseResync(std::uint64_t channel) {
  auto it = resync_.find(channel);
  if (it == resync_.end() || !it->second->resyncing) {
    return;
  }
  it->second->resyncing = false;
  timers_.Cancel(it->second->timer);
  it->second->open.Set();
}

void ReliableDelivery::OnResyncAck(std::uint64_t channel, std::uint32_t peer_epoch) {
  if (peer_epoch > PeerEpoch(channel)) {
    peer_epoch_[channel] = peer_epoch;
    adapter_->NotePeerEpoch(channel, peer_epoch);
  }
  if (Resyncing(channel)) {
    Instant("resync complete ch " + std::to_string(channel) + " peer e" +
            std::to_string(peer_epoch));
    ReleaseResync(channel);
  }
}

void ReliableDelivery::Crash(std::uint32_t epoch) {
  GENIE_CHECK(!crashed_) << "Crash() on already-crashed reliable layer";
  GENIE_CHECK_GT(epoch, local_epoch_);
  crashed_ = true;
  local_epoch_ = epoch;
  // Every in-flight entry resolves as crashed; the owners observe the flag
  // when their zero-delay wake-ups run and report kPeerCrashed without
  // touching the wire again.
  for (auto& [channel, win] : windows_) {
    for (auto& [seq, entry] : win->inflight) {
      if (entry->result == WindowEntry::kPending) {
        timers_.Cancel(entry->timer);
        entry->result = WindowEntry::kCrashed;
      }
      entry->done.Set();
    }
    win->open.Set();  // Stalled admissions wake and observe crashed_.
  }
  // Open every resync barrier so parked transfers unwind. The barrier
  // objects themselves persist: parked coroutines hold references into them.
  for (auto& [channel, barrier] : resync_) {
    if (barrier->resyncing) {
      barrier->resyncing = false;
      timers_.Cancel(barrier->timer);
    }
    barrier->open.Set();
  }
  // What this incarnation knew about its peers dies with it; defaults (epoch
  // 1) are always <= the truth, so fencing only errs towards re-learning.
  peer_epoch_.clear();
  watched_.clear();  // Pending scan timers self-squelch on the empty set.
}

void ReliableDelivery::OnRestart() {
  GENIE_CHECK(crashed_) << "OnRestart() without a crash";
  crashed_ = false;
}

}  // namespace genie
