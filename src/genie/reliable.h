// Reliable delivery layer: per-channel ARQ over the adapter, transfer
// watchdogs, and bookkeeping for semantics degradation.
//
// The adapter (src/net) gives at-most-once datagram service: frames can be
// lost (link faults, no posted buffer), duplicated, reordered, or corrupted.
// ReliableDelivery turns an output into exactly-once delivery with one ARQ
// discipline, selective repeat: each frame carries a per-channel sequence
// number, and up to ReliableOptions::window sequenced frames are outstanding
// per channel (window 1 keeps one frame in flight per channel). Each
// in-flight frame has its own retransmit timer with exponential backoff plus
// deterministic jitter drawn from a seeded SplitMix64. The receiving adapter
// acknowledges with batched SACK cell trains (cumulative + bitmap,
// src/net/sack.h), so one control-cell train resolves every frame it covers;
// nacks (CRC failures, dropped frames) and re-acks of suppressed duplicates
// come back as per-sequence control cells. Frames are acked out of order and
// the send window slides over the acked prefix. A transfer that arrives
// while the window is full parks in an admission queue (traced as a
// `.window_stall` span). The receiver's dedup state absorbs the duplicates
// that retransmission inevitably creates, so the host-visible stream is
// exactly-once even though the wire is not. Both peers must be configured
// with the same window (Node::EnableReliableDelivery does this).
//
// The watchdog is a periodic scan over registered in-flight transfers. A
// transfer stuck past the deadline (delayed-completion fault, credit
// deadlock, lost frame with ARQ off) is handed to its cancel callback, which
// unwinds VM state (unwire, unreference, free sysbuf, restore hidden
// regions) and fails the operation with IoStatus::kCancelled. The scan timer
// is armed only while the watched set is non-empty so Engine::Run() still
// terminates when the simulation goes quiescent.
//
// Everything here is off by default: with ReliableOptions{} the layer adds
// no events, no RNG draws, and no trace records, keeping every existing
// deterministic golden (event digests, op-count gates, stress seeds)
// bit-for-bit identical.
#ifndef GENIE_SRC_GENIE_RELIABLE_H_
#define GENIE_SRC_GENIE_RELIABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/net/adapter.h"
#include "src/obs/metrics.h"
#include "src/sim/awaitable.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/timer.h"
#include "src/sim/trace.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace genie {

struct ReliableOptions {
  // ARQ: sequence outputs and retransmit until acked (or give up).
  bool arq = false;
  // Selective-repeat send window: sequenced frames in flight per channel,
  // each acknowledged by a SACK train. 1 sends one frame per channel at a
  // time; wider windows pipeline up to `window` frames.
  std::uint32_t window = 1;
  std::uint32_t max_retransmits = 8;   // give up after this many retries
  SimTime initial_timeout = 2 * kMillisecond;
  SimTime max_timeout = 32 * kMillisecond;  // backoff ceiling
  double backoff_factor = 2.0;
  // Each armed timeout is stretched by a uniform fraction in [0, jitter_frac)
  // so two channels that lose frames at the same instant do not retransmit in
  // lockstep forever. Drawn from the seeded RNG: deterministic per seed.
  double jitter_frac = 0.1;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  // Pause before a nack-triggered retransmit (lets the receiver finish
  // restoring the posted buffer that the corrupted frame consumed).
  SimTime nack_delay = 100 * kMicrosecond;

  // Watchdog: 0 = off. A watched transfer older than `watchdog_timeout` is
  // cancelled; the set is scanned every `watchdog_period` (0 = timeout / 4).
  SimTime watchdog_timeout = 0;
  SimTime watchdog_period = 0;
};

// One reliable endpoint per node, layered over that node's adapter.
class ReliableDelivery {
 public:
  enum class TxOutcome : std::uint8_t {
    kDelivered,    // acked by the peer adapter
    kGiveUp,       // max_retransmits exhausted
    kCancelled,    // watchdog (or caller) cancelled the transfer
    kPeerCrashed,  // aborted by a crash-stop (local node or peer epoch bump)
  };

  struct TxReport {
    TxOutcome outcome = TxOutcome::kDelivered;
    std::uint32_t attempts = 0;  // transmissions actually performed
  };

  // Shared between the transmitting coroutine and the watchdog's cancel
  // callback; lets the watchdog abort a transfer wherever it is parked
  // (window admission, credit wait, wire, ack wait, nack delay).
  struct CancelToken {
    bool cancelled = false;
    // Set the moment the transfer reaches a successful resolution (ack/SACK
    // arrival). A watchdog scan running in the same instant must observe it
    // and report kCompleted instead of cancelling — otherwise the race is
    // double-counted (a watchdog_cancel AND a completed transfer).
    bool resolved = false;
    std::shared_ptr<TxControl> ctl;  // current in-flight transmission
    SimEvent* wake = nullptr;        // pending ack wait to poke
  };

  enum class WatchVerdict : std::uint8_t {
    kCompleted,  // transfer finished on its own; just forget it
    kCancelled,  // cancellation initiated; unwind is under way
    kBusy,       // cannot be cancelled right now; re-arm the deadline
  };

  struct Stats {
    std::uint64_t sequenced_frames = 0;  // TransmitReliably calls
    std::uint64_t retransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t acks = 0;
    std::uint64_t nacks = 0;
    std::uint64_t giveups = 0;
    std::uint64_t cancelled_transmits = 0;
    std::uint64_t stale_acks = 0;  // ack/nack or SACK train resolving no entry
    std::uint64_t fallbacks = 0;   // semantics downgrades (endpoint-reported)
    std::uint64_t watchdog_scans = 0;
    std::uint64_t watchdog_cancels = 0;
    std::uint64_t epoch_bumps = 0;        // peer incarnation changes observed
    std::uint64_t resyncs = 0;            // resync handshake attempts sent
    std::uint64_t peer_crash_aborts = 0;  // transfers aborted by a crash-stop
    std::uint64_t delivered_frames = 0;   // transfers acked end-to-end
    std::uint64_t delivered_bytes = 0;    // payload bytes of those transfers
  };

  // `xfer_track` is the trace track transfer-level records go to
  // (conventionally "<node>.xfer", matching the endpoint's spans).
  ReliableDelivery(Engine& engine, Adapter& adapter, std::string xfer_track);

  void Configure(const ReliableOptions& options) { options_ = ConfiguredWith(options); }
  const ReliableOptions& options() const { return options_; }
  bool arq_enabled() const { return options_.arq; }
  bool watchdog_enabled() const { return options_.watchdog_timeout > 0; }

  // Transmits `iov` on `channel` with ARQ and co_returns once the frame is
  // acked, retries are exhausted, or `token` is cancelled. The caller keeps
  // `iov`'s backing pages alive (and unmutated) until this returns — the
  // retransmit re-reads them. `flow` (optional) stamps every trace record
  // this transmission produces with the transfer's causal flow id.
  // `peer_epoch` is the peer incarnation the output is addressed to
  // (PeerEpoch(channel) when the output began; 0 = the epoch at entry). If
  // the peer's epoch has moved on by the time the window admits the frame,
  // the output fails with kPeerCrashed without touching the wire: it was
  // addressed to an incarnation that no longer exists.
  Task<TxReport> TransmitReliably(std::uint64_t channel, IoVec iov, std::uint32_t header,
                                  std::uint32_t tag, std::string label,
                                  std::shared_ptr<CancelToken> token, std::uint64_t flow = 0,
                                  std::uint32_t peer_epoch = 0);

  // Registers an in-flight transfer with the watchdog. `on_expire` runs from
  // the scan when the transfer overstays watchdog_timeout; kBusy verdicts
  // push the deadline out by a full timeout. Returns an id for Unwatch()
  // (valid — and ignored — even when the watchdog is off). Unwatch is
  // idempotent: the cancel callback may already have retired the entry.
  std::uint64_t Watch(std::string label, std::function<WatchVerdict()> on_expire);
  void Unwatch(std::uint64_t id);

  // Endpoint-side accounting hook for a semantics downgrade.
  void RecordFallback(const std::string& label, std::string_view from, std::string_view to);

  const Stats& stats() const { return stats_; }
  std::size_t watched() const { return watched_.size(); }
  void set_trace(TraceLog* trace) { trace_ = trace; }

  // Optional metrics sink: records `reliable.ack_rtt_us` (wire end of the
  // delivered attempt to ack arrival) and `reliable.retransmit_delay_us`
  // (previous attempt end to retransmission) latency histograms. Recording
  // draws no randomness and schedules nothing, so it never perturbs the
  // event schedule.
  void set_metrics(MetricsRegistry* metrics);

  // Optional hook invoked when the watchdog cancels a transfer (after the
  // cancel callback has run). The flight recorder uses it to dump the trace
  // ring at the moment of failure.
  void set_cancel_hook(std::function<void(const std::string& label)> hook) {
    cancel_hook_ = std::move(hook);
  }

  // --- Crash-stop & epoch fencing ---
  //
  // Crash-stop of the owning node: every in-flight window entry and stalled
  // admission resolves as kPeerCrashed, watchdog registrations are wiped,
  // and open resync barriers release so parked transfers unwind through the
  // normal failure paths. `epoch` is the node's new incarnation (strictly
  // increasing). Sequence numbers are NOT reset — they are monotonic across
  // incarnations, so the peer's dedup state stays valid and the resync
  // handshake only has to advance its high water.
  void Crash(std::uint32_t epoch);
  // Clears the crashed flag once the node restarts; traffic may flow again.
  void OnRestart();
  std::uint32_t local_epoch() const { return local_epoch_; }
  bool crashed() const { return crashed_; }
  // Peer incarnation as last learned on `channel` (via fence or resync-ack
  // control cells); 1 until a bump is observed.
  std::uint32_t PeerEpoch(std::uint64_t channel) const;
  // True while a post-fence resync handshake gates new sequenced traffic.
  bool Resyncing(std::uint64_t channel) const;

 private:
  struct Watched {
    std::string label;
    std::function<WatchVerdict()> on_expire;
    SimTime deadline = 0;
  };

  // One in-flight sequenced frame of a channel's send window. Owned by
  // the channel's window map; the transmitting coroutine, the per-entry
  // retransmit coroutine, and the SACK handler all reach it through the
  // (channel, seq) key. The entry is only erased by the transmitting
  // coroutine, and only once `retransmitting` has drained, so the pointers
  // the detached retransmit coroutine holds across awaits stay valid.
  struct WindowEntry {
    explicit WindowEntry(Engine& engine) : done(engine) {}
    enum Result : std::uint8_t { kPending, kAcked, kGiveUp, kCancelled, kCrashed };
    IoVec iov;
    std::uint32_t header = 0;
    std::uint32_t tag = 0;
    std::string label;
    std::uint64_t flow = 0;
    std::uint32_t peer_epoch = 0;  // incarnation every attempt is addressed to
    std::shared_ptr<CancelToken> token;
    std::shared_ptr<TxControl> ctl;  // latest attempt on the wire
    std::uint32_t attempts = 0;      // transmissions actually performed
    SimTime timeout = 0;             // current (backed-off) retransmit timeout
    SimTime last_tx_end = 0;         // wire end of the latest attempt
    TimerSet::Handle timer = 0;
    Result result = kPending;
    bool retransmitting = false;  // a detached retransmit is in flight
    SimEvent done;                // set on resolution and on retransmit drain
  };

  // Per-channel selective-repeat send window.
  struct ChannelWindow {
    explicit ChannelWindow(Engine& engine) : open(engine) {}
    std::map<std::uint64_t, std::unique_ptr<WindowEntry>> inflight;  // by seq
    SimEvent open;  // set whenever the window slides; admission re-checks
  };

  // Per-channel barrier gating sequenced traffic while a post-fence resync
  // handshake is in flight. Never destroyed once created (parked coroutines
  // hold references into `open` across awaits).
  struct ResyncBarrier {
    explicit ResyncBarrier(Engine& engine) : open(engine) {}
    bool resyncing = false;
    std::uint32_t retries = 0;
    TimerSet::Handle timer = 0;
    SimEvent open;  // set when the handshake completes (or is abandoned)
  };

  ReliableOptions ConfiguredWith(ReliableOptions options) {
    rng_ = SplitMix64(options.seed);
    if (options.watchdog_timeout > 0 && options.watchdog_period == 0) {
      options.watchdog_period = options.watchdog_timeout / 4;
    }
    return options;
  }

  // Per-sequence control cell from the peer: a nack, or a re-ack of a
  // suppressed duplicate.
  void OnAck(std::uint64_t channel, std::uint64_t seq, bool ok);
  SimTime WithJitter(SimTime timeout);

  // --- Selective-repeat window machinery ---
  // Batched SACK train from the peer: resolves every covered in-flight entry.
  void OnSack(std::uint64_t channel, const std::vector<SackCell>& cells);
  WindowEntry* FindEntry(std::uint64_t channel, std::uint64_t seq);
  // Resolves a pending entry as acked; an ack also overrides a give-up
  // verdict its owner has not consumed yet.
  void ResolveAcked(WindowEntry& entry);
  // Timeout/nack escalation: emits the attempt's ack_wait span, then either
  // gives up (retries exhausted) or launches a detached retransmission.
  void RetransmitOrGiveUp(std::uint64_t channel, std::uint64_t seq, bool from_nack);
  Task<void> RetransmitEntry(std::uint64_t channel, std::uint64_t seq, bool from_nack);
  void ArmEntryTimer(std::uint64_t channel, std::uint64_t seq);
  void ArmScan();
  void RunScan();
  void Instant(const std::string& text, std::uint64_t flow = 0);

  // --- Epoch fencing machinery ---
  // Fence cell from the peer adapter: the peer rebooted into `peer_epoch`.
  void OnFence(std::uint64_t channel, std::uint32_t peer_epoch);
  void OnResyncAck(std::uint64_t channel, std::uint32_t peer_epoch);
  // Resolves every in-flight entry on `channel` as kCrashed.
  void AbortChannel(std::uint64_t channel);
  void StartResync(std::uint64_t channel);
  void SendResyncAttempt(std::uint64_t channel);
  void ReleaseResync(std::uint64_t channel);
  // Parks until any resync handshake on `channel` completes; returns false
  // if the transfer was cancelled while parked.
  Task<bool> AwaitResync(std::uint64_t channel, std::shared_ptr<CancelToken> token,
                         const std::string& label, std::uint64_t flow);

  Engine* engine_;
  Adapter* adapter_;
  std::string xfer_track_;
  TraceLog* trace_ = nullptr;
  LatencyHistogram* ack_rtt_ = nullptr;
  LatencyHistogram* retransmit_delay_ = nullptr;
  std::function<void(const std::string& label)> cancel_hook_;
  ReliableOptions options_;
  TimerSet timers_;
  SplitMix64 rng_;
  Stats stats_;

  std::map<std::uint64_t, std::uint64_t> next_seq_;  // channel -> last used
  std::map<std::uint64_t, std::unique_ptr<ChannelWindow>> windows_;

  std::uint32_t local_epoch_ = 1;  // this node's incarnation (bumped on crash)
  bool crashed_ = false;
  std::map<std::uint64_t, std::uint32_t> peer_epoch_;  // channel -> last learned
  std::map<std::uint64_t, std::unique_ptr<ResyncBarrier>> resync_;

  std::uint64_t next_watch_id_ = 1;
  std::map<std::uint64_t, Watched> watched_;
  bool scan_armed_ = false;
};

}  // namespace genie

#endif  // GENIE_SRC_GENIE_RELIABLE_H_
