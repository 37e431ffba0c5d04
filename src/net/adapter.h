// Simulated Credit Net ATM adapter (paper reference [14]).
//
// Transmit: gather DMA from physical frames, streamed onto the link one page
// at a time — each chunk's bytes are snapshotted from the frames at the
// simulated instant it is transmitted, so application stores racing with the
// DMA are observable at page granularity (the weak-integrity hazards of the
// taxonomy).
//
// Receive: three device input-buffering architectures (paper Section 6.2):
//   * early demultiplexed — per-channel lists of posted host buffers; data
//     DMA'd straight into them as it arrives (cut-through);
//   * pooled in-host     — overlay pages drawn from a private pool
//     (cut-through);
//   * outboard           — frames staged in adapter memory, handed to the
//     host after complete reception (store-and-forward).
#ifndef GENIE_SRC_NET_ADAPTER_H_
#define GENIE_SRC_NET_ADAPTER_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/cost/cost_model.h"
#include "src/mem/fault_plan.h"
#include "src/mem/phys_memory.h"
#include "src/net/aal5.h"
#include "src/net/buffer_pool.h"
#include "src/net/sack.h"
#include "src/sim/awaitable.h"
#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"
#include "src/vm/io_vec.h"

namespace genie {

class Adapter;
class SwitchLink;

// A resolved transmit route through the switched fabric: the destination
// adapter plus the ordered chain of arbitrated links (source uplink, an
// optional dumbbell trunk, destination egress) a frame must hold while it
// streams. Links are always acquired in array order and released in reverse;
// the global order uplink < trunk < egress makes the hold-while-waiting
// discipline deadlock-free. Owned by the Fabric's channel table — the
// pointer stays valid until the channel is closed.
struct TxPath {
  Adapter* dst = nullptr;
  std::array<SwitchLink*, 3> links{};
  int nlinks = 0;
};

enum class InputBuffering : std::uint8_t {
  kEarlyDemux,
  kPooled,
  kOutboard,
};

std::string_view InputBufferingName(InputBuffering b);

// Completion report for a posted receive. A pooled frame arrives in
// `overlay_pages` and an outboard frame under `outboard_handle`; the receiver
// owns them (it returns the pages to the pool and calls FreeOutboard).
struct RxCompletion {
  std::uint64_t channel = 0;
  std::uint64_t bytes = 0;     // frame bytes (early demux: delivered into the target)
  std::uint32_t header = 0;    // sender-supplied per-frame header word
  std::uint32_t tag = 0;       // sender-managed buffer tag (0 = receiver-posted)
  std::uint64_t seq = 0;       // ARQ sequence number (0 = unsequenced)
  std::uint64_t flow = 0;      // causal flow id stamped by the sender (0 = none)
  std::vector<FrameId> overlay_pages;  // pooled: drawn from the adapter's pool
  std::uint32_t outboard_handle = 0;   // outboard: staged-frame handle
  bool crc_ok = true;
  bool truncated = false;      // frame longer than the posted buffer
};

// Per-transmission control block for the reliable layer. Threads the ARQ
// sequence number through the wire protocol and lets a watchdog abort a
// transmission stuck waiting for flow-control credit.
struct TxControl {
  std::uint64_t seq = 0;     // 0 = unsequenced (legacy datagram)
  // Retransmissions reuse the receive buffer whose credit the lost original
  // already consumed, so they must not spend a second credit.
  bool skip_credit = false;
  // Set by AbortCreditWait(): the frame was never transmitted.
  bool aborted = false;
  // Incarnation epochs stamped on the frame (crash fencing). src_epoch is
  // the sender's epoch; dst_epoch the sender's belief of the receiver's.
  // 0 = unfenced (legacy traffic): every epoch check is skipped.
  std::uint32_t src_epoch = 0;
  std::uint32_t dst_epoch = 0;
};

class Adapter {
 public:
  struct Config {
    InputBuffering rx_buffering = InputBuffering::kEarlyDemux;
    std::size_t pool_pages = 64;        // pooled mode
    std::size_t chunk_bytes = 4096;     // streaming granularity (page)
    // Credit-based flow control (the Credit Net scheme, paper refs [2],
    // [14]): each posted receive returns one credit to the sender, in any
    // input-buffering mode; transmission blocks with no credit, so frames
    // are never dropped for lack of a posted buffer. Tagged (sender-managed)
    // frames bypass credits, as their buffers persist. Every caller that
    // enables it runs early-demultiplexed receivers.
    bool flow_control = false;
    SimTime credit_latency = 5 * kMicrosecond;  // control-cell return time
    // Outboard adapter memory capacity (Section 6.2.3 notes outboard
    // buffering "can add complexity and cost to the controller" — the cost
    // is finite staging RAM). Frames that would overflow it are dropped.
    std::size_t outboard_capacity_bytes = 256 * 1024;
    // A frame held back by an injected kLinkReorder fault is delivered when
    // the next frame goes out, or after this delay, whichever comes first
    // (rule arg overrides the delay per firing).
    SimTime reorder_flush_delay = 50 * kMicrosecond;
  };

  // Optional execution tracing: frame transmit spans land on the
  // "<name>.wire" track.
  void set_trace(TraceLog* trace) { trace_ = trace; }

  // Optional host-CPU driver work per transferred byte (descriptor and
  // buffer-chain processing that overlaps the wire transfer). Contributes to
  // CPU utilization but not to latency while the CPU is otherwise idle.
  void SetDriverWork(Resource* tx_cpu, Resource* rx_cpu, double driver_us_per_byte) {
    tx_cpu_ = tx_cpu;
    rx_cpu_ = rx_cpu;
    driver_us_per_byte_ = driver_us_per_byte;
  }

  Adapter(Engine& engine, PhysicalMemory& pm, const CostModel& cost, std::string name,
          Config config);

  const std::string& name() const { return name_; }
  InputBuffering rx_buffering() const { return config_.rx_buffering; }
  BufferPool* pool() { return pool_.get(); }

  // Wires this adapter's transmit side to `peer`'s receive side over `link`
  // (a Resource modelling the ATM virtual circuit in this direction).
  void ConnectTo(Adapter* peer, Resource* link);

  // --- Switched-fabric wiring (src/net/fabric.h) ---
  // `route` resolves the transmit path for a channel (nullptr = unrouted,
  // which aborts the transmit: frames on a fabric never guess their
  // destination); `control_peer` resolves the adapter that acks, SACKs and
  // credit cells for a channel return to (nullptr = no return path yet).
  // Fabric wiring replaces the point-to-point peer/link pair; a fabric-
  // attached adapter reaches a different destination per channel.
  using RouteFn = std::function<const TxPath*(std::uint64_t channel)>;
  using ControlPeerFn = std::function<Adapter*(std::uint64_t channel)>;
  void ConnectFabric(RouteFn route, ControlPeerFn control_peer);
  bool fabric_connected() const { return static_cast<bool>(route_fn_); }

  // Transmits one AAL5 frame gathering payload from `iov`. Completes when
  // the last byte has left the wire (transmit-complete interrupt time).
  // `header` is an opaque per-frame word (e.g. a transport checksum)
  // delivered with the receive completion. `ctl` (optional) carries the ARQ
  // sequence number and cancellation state for the reliable layer. `flow`
  // (optional) is the transfer's causal flow id: it is stamped into every
  // trace event the frame produces on both nodes and delivered with the
  // receive completion, linking sender, wire, and receiver into one graph.
  Task<void> TransmitFrame(std::uint64_t channel, IoVec iov, std::uint32_t header = 0,
                           std::uint32_t tag = 0, std::shared_ptr<TxControl> ctl = nullptr,
                           std::uint64_t flow = 0);

  // --- Posted receives (every input-buffering mode) ---
  // An input waiting for a frame. Early-demultiplexed devices take the
  // oldest posting when a frame begins and DMA into `target` as it arrives;
  // pooled and outboard devices ignore `target` and hand the oldest posting
  // the frame once it is complete (with no posting, they discard the frame
  // uncounted). `on_complete` receives the frame's RxCompletion.
  struct PostedReceive {
    IoVec target;
    std::function<void(RxCompletion)> on_complete;
    // Nonzero ids make the posting cancellable via CancelPostedReceive
    // (transfer watchdog unwinding a stuck input, endpoint teardown).
    std::uint64_t cancel_id = 0;
  };
  // Queues a posting on the channel's input list.
  void PostReceive(std::uint64_t channel, PostedReceive posted);
  std::size_t posted_receives(std::uint64_t channel) const;

  // Removes a still-queued posted receive. Returns false if the posting is
  // gone — already consumed by an arriving frame or mid-delivery — in which
  // case the caller must wait for its completion.
  // Under flow control the credit granted for the posting is deliberately
  // not revoked: the sender may still transmit into the vacated slot and the
  // frame is then dropped and nacked, which the ARQ layer absorbs.
  bool CancelPostedReceive(std::uint64_t channel, std::uint64_t cancel_id);

  // Sender-managed placement (paper Section 6.2.1, Hamlyn-style): registers
  // a persistent named buffer; frames transmitted with a matching tag DMA
  // straight into it, no per-datagram preposting. The completion callback
  // fires for every arrival; the registration survives until removed.
  void RegisterNamedBuffer(std::uint64_t channel, std::uint32_t tag, PostedReceive buffer);
  void UnregisterNamedBuffer(std::uint64_t channel, std::uint32_t tag);

  // --- Outboard receive ---
  // Reads out of / releases outboard memory (host-side DMA endpoints).
  std::span<const std::byte> OutboardData(std::uint32_t handle) const;
  void FreeOutboard(std::uint32_t handle);
  std::size_t outboard_frames_held() const { return outboard_.size(); }

  // --- Fault injection ---
  // Fault plan consulted by this adapter's *transmit* path for
  // kDeviceError (frame delivered with bad CRC), kDeviceShortTransfer
  // (truncated frame), kDeviceDelay (completion interrupt held off), and the
  // link sites kLinkDrop / kLinkDuplicate / kLinkReorder (frame lost on the
  // wire, delivered twice, or held back and delivered late). The faults
  // manifest at the receiving peer, as on a real wire. nullptr detaches.
  // Not owned.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  // --- Reliable layer (ARQ) hooks ---
  // Invoked on *this* (sending) adapter when the peer nacks a sequenced
  // frame (CRC failure, no buffer) or re-acks (ok) a suppressed duplicate,
  // one control-cell latency after the peer's decision. Accepted frames are
  // acknowledged by SACK trains instead (set_sack_handler).
  void set_ack_handler(std::function<void(std::uint64_t, std::uint64_t, bool)> handler) {
    ack_handler_ = std::move(handler);
  }

  // Configures the receive side for a selective-repeat sender window of `w`
  // frames (default 1). Acknowledgement is cumulative+bitmap (SACK) at every
  // window: accepted frames advance a per-channel cumulative mark,
  // out-of-order accepts are tracked above it, and one batched SACK cell
  // train per control-cell latency acknowledges everything at once. The
  // window sets the dead-hole horizon (2w below the newest accept). Both
  // peers of a reliable channel must be configured with the same window.
  void set_arq_window(std::uint32_t w) { arq_window_ = w == 0 ? 1 : w; }
  std::uint32_t arq_window() const { return arq_window_; }

  // Invoked on *this* (sending) adapter when the peer flushes a batched
  // SACK train for `channel`.
  void set_sack_handler(std::function<void(std::uint64_t, std::vector<SackCell>)> handler) {
    sack_handler_ = std::move(handler);
  }

  // Aborts a transmission blocked in AcquireCredit (credit-deadlock
  // watchdog). Returns true if the waiter was found; `ctl->aborted` is set
  // and TransmitFrame returns without transmitting.
  bool AbortCreditWait(std::uint64_t channel, const std::shared_ptr<TxControl>& ctl);

  // --- Crash-stop & epoch fencing ---
  // The owning node's incarnation epoch (starts at 1, bumped on every
  // crash). Sequenced frames stamped with a lower dst_epoch are addressed
  // to a dead incarnation of this node and are fenced instead of delivered;
  // a lower src_epoch marks a duplicate from a dead sender incarnation.
  std::uint32_t self_epoch() const { return self_epoch_; }
  bool crashed() const { return crashed_; }

  // Crash-stop: raises the crashed flag, installs the bumped epoch, and
  // discards every piece of in-flight device state — the frame mid-
  // reception, posted and named receive buffers, outboard staging RAM,
  // held (reordered) frames, dedup windows, armed SACK flushes, transmit
  // credits, and blocked credit waiters (resumed with ctl->aborted set).
  // While crashed, arriving frames and control cells are dropped silently.
  void Crash(std::uint32_t new_epoch);
  // Clears the crashed flag; receive resumes with empty device state.
  void Restart();

  // Installed on the *sending* adapter: invoked when the peer fences a
  // frame addressed to a dead incarnation (args: channel, peer epoch).
  void set_fence_handler(std::function<void(std::uint64_t, std::uint32_t)> handler) {
    fence_handler_ = std::move(handler);
  }
  // Installed on the *sending* adapter: invoked when the peer acknowledges
  // a sequence resync (args: channel, peer epoch).
  void set_resync_ack_handler(std::function<void(std::uint64_t, std::uint32_t)> handler) {
    resync_ack_handler_ = std::move(handler);
  }
  // Sender-side resync: proposes `seq_hw` as the channel's sequence high-
  // water mark. The (restarted) receiver reinitializes its dedup window at
  // seq_hw — everything at or below it counts as belonging to the dead
  // epoch — and replies with a resync-ack.
  void SendResync(std::uint64_t channel, std::uint64_t seq_hw);

  // Records the peer's learned incarnation epoch for `channel`; ack/SACK
  // cells stamped with an older epoch are dropped (a dead incarnation must
  // not ack its successor's sequence space).
  void NotePeerEpoch(std::uint64_t channel, std::uint32_t epoch);

  // --- Flow control ---
  std::uint32_t tx_credits(std::uint64_t channel) const {
    auto it = tx_credits_.find(channel);
    return it == tx_credits_.end() ? 0 : it->second;
  }
  std::size_t credit_waiters(std::uint64_t channel) const {
    auto it = credit_waiters_.find(channel);
    return it == credit_waiters_.end() ? 0 : it->second.size();
  }

  // --- Statistics ---
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t frames_dropped_no_buffer() const { return frames_dropped_no_buffer_; }
  // Drop breakdown by cause (sums to frames_dropped_no_buffer):
  std::uint64_t drops_no_posted_buffer() const { return drops_no_posted_buffer_; }
  std::uint64_t drops_pool_exhausted() const { return drops_pool_exhausted_; }
  std::uint64_t drops_outboard_overflow() const { return drops_outboard_overflow_; }
  // Delivered frames whose CRC check failed (line errors, injected or real).
  std::uint64_t rx_crc_errors() const { return rx_crc_errors_; }
  // Delivered frames longer than their posted buffer (short-transfer events:
  // the tail was cut at the receiving device).
  std::uint64_t rx_truncated_frames() const { return rx_truncated_frames_; }
  // Sequenced frames suppressed by receive-side duplicate detection.
  std::uint64_t rx_duplicate_frames() const { return rx_duplicate_frames_; }
  // Ack cells: SACK cells plus duplicate re-acks.
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t nacks_sent() const { return nacks_sent_; }
  // Batched SACK trains flushed / total cells they carried.
  std::uint64_t sack_flushes() const { return sack_flushes_; }
  std::uint64_t sack_cells_sent() const { return sack_cells_sent_; }
  // Injected link faults observed on this adapter's transmit side.
  std::uint64_t link_frames_dropped() const { return link_frames_dropped_; }
  std::uint64_t link_frames_duplicated() const { return link_frames_duplicated_; }
  std::uint64_t link_frames_reordered() const { return link_frames_reordered_; }
  // Crash/partition robustness counters.
  std::uint64_t crash_frame_drops() const { return crash_frame_drops_; }
  std::uint64_t crash_cell_drops() const { return crash_cell_drops_; }
  std::uint64_t stale_epoch_frame_drops() const { return stale_epoch_frame_drops_; }
  std::uint64_t stale_epoch_cell_drops() const { return stale_epoch_cell_drops_; }
  std::uint64_t stale_epoch_drops() const {
    return stale_epoch_frame_drops_ + stale_epoch_cell_drops_;
  }
  std::uint64_t fences_sent() const { return fences_sent_; }
  std::uint64_t resyncs_sent() const { return resyncs_sent_; }
  // Frames dropped by this transmit side because a path link was down
  // (never acquired, queued on a dying link, or carrier lost mid-stream).
  std::uint64_t link_down_drops() const { return link_down_drops_; }

 private:
  struct RxState {
    std::uint64_t channel = 0;
    std::uint64_t bytes = 0;
    std::uint32_t header = 0;
    std::uint32_t tag = 0;
    std::uint64_t seq = 0;
    std::uint64_t flow = 0;
    std::uint32_t src_epoch = 0;
    std::uint32_t dst_epoch = 0;
    bool crc_failed = false;
    // Taken at BeginRxFrame (early demux) or EndRxFrame (pooled, outboard).
    std::optional<PostedReceive> posted;
    bool named = false;  // posted came from the named-buffer registry
    bool truncated = false;
    bool dropped = false;
    bool duplicate = false;  // suppressed by the ARQ dedup window
    bool silent_drop = false;  // crashed node or dead-epoch sender: no cell back
    bool fenced = false;       // addressed to a dead incarnation: fence cell back
    // Pooled:
    std::vector<FrameId> overlay_pages;
    std::uint32_t in_page = 0;  // fill level of last overlay page
    // Outboard:
    std::vector<std::byte> outboard;
  };

  // A frame captured byte-for-byte at its original DMA instants, awaiting a
  // deferred (reordered) or repeated (duplicated) delivery. `dst`/`path`
  // record the route resolved at capture time: a late delivery must reach
  // the same destination over the same links (point-to-point frames carry
  // path == nullptr and fall back to the peer/tx-link pair).
  struct HeldFrame {
    std::uint64_t channel = 0;
    std::uint32_t header = 0;
    std::uint32_t tag = 0;
    std::uint64_t seq = 0;
    std::uint64_t flow = 0;
    std::uint32_t src_epoch = 0;
    std::uint32_t dst_epoch = 0;
    bool crc_ok = true;
    Adapter* dst = nullptr;
    const TxPath* path = nullptr;
    std::vector<std::byte> bytes;
  };

  // ARQ receive-side duplicate suppression state, one per channel. `cum`
  // (every seq <= cum accepted or abandoned) recognizes old duplicates no
  // matter how far the window has advanced; `seen` only holds out-of-order
  // accepts above it, at most a window's worth.
  struct RxDedup {
    std::uint64_t max_seq = 0;
    std::uint64_t cum = 0;  // highest contiguously-accepted seq
    std::set<std::uint64_t> seen;  // accepted out of order, all > cum
    // Highest sender incarnation epoch seen on this channel (0 = none yet).
    // Sequence numbers are monotonic across sender incarnations, so a frame
    // from a lower epoch is always a stale duplicate.
    std::uint32_t src_epoch = 0;
  };

  // Peer-side delivery, called by the transmitting adapter.
  void BeginRxFrame(std::uint64_t channel, std::uint32_t header, std::uint32_t tag,
                    std::uint64_t seq, std::uint64_t flow, std::uint32_t src_epoch,
                    std::uint32_t dst_epoch);
  void DeliverChunk(std::span<const std::byte> data, bool is_last);
  void EndRxFrame(bool crc_ok);

  void DeliverChunkEarlyDemux(RxState& rx, std::span<const std::byte> data);
  void DeliverChunkPooled(RxState& rx, std::span<const std::byte> data);

  // Drop accounting: bumps the total and per-cause counters and emits a
  // trace instant so drops are visible in GENIE_TRACE output.
  void NoteDrop(const char* cause, std::uint64_t channel, std::uint64_t* cause_counter);

  // Replays a held frame into its destination (zero additional wire time:
  // the bytes were already clocked out once). Caller must hold the frame's
  // transmit path.
  void DeliverSnapshot(const HeldFrame& frame);
  // Delivers every held frame bound for `dst` (whose path the caller holds),
  // oldest first; frames for other destinations wait for their timer flush.
  void DeliverHeldFramesLocked(Adapter* dst);
  Task<void> FlushHeldFrames();

  // Fabric path acquisition: holds `path`'s links in array order (the
  // deadlock-free global order), releases in reverse. `channel`/`bytes`
  // feed the per-channel DRR arbiter at each hop. Returns false — with
  // every partially-acquired link released — when a link on the path went
  // (or was) down: the frame is dropped, no wire time elapses.
  Task<bool> AcquirePath(const TxPath& path, std::uint64_t channel, std::uint64_t bytes);
  void ReleasePath(const TxPath& path);
  // True when any link on the path is down (partition in effect).
  static bool PathDown(const TxPath& path);

  // The adapter acks / SACK trains / credit cells for `channel` return to.
  // Point-to-point wiring: the single peer. Fabric wiring: the channel's
  // routed source, resolved through the fabric's table.
  Adapter* ControlPeer(std::uint64_t channel) const {
    return control_peer_fn_ ? control_peer_fn_(channel) : peer_;
  }

  // Schedules a per-sequence control cell back to the sending peer: a nack,
  // or a re-ack (ok) of a suppressed duplicate. Cells are stamped with the
  // acking node's epoch.
  void SendAck(std::uint64_t channel, std::uint64_t seq, bool ok, std::uint64_t flow);
  void OnAckCell(std::uint64_t channel, std::uint64_t seq, bool ok, std::uint32_t acker_epoch);

  // Epoch-fence control cell: tells the sender of a stale-epoch frame what
  // this node's live incarnation epoch is.
  void SendEpochFence(std::uint64_t channel, std::uint64_t flow);
  void OnFenceCell(std::uint64_t channel, std::uint32_t peer_epoch);
  void OnResyncCell(std::uint64_t channel, std::uint32_t peer_epoch, std::uint64_t seq_hw);
  void OnResyncAckCell(std::uint64_t channel, std::uint32_t peer_epoch);
  // True when `cell_epoch` is from a dead incarnation of the channel peer.
  bool StaleCellEpoch(std::uint64_t channel, std::uint32_t cell_epoch) const;

  // Arms (at most one per channel) a batched SACK flush one control-cell
  // latency out; the flush snapshots the dedup state then and delivers one
  // cell train covering every frame accepted meanwhile.
  void ScheduleSackFlush(std::uint64_t channel);
  void FlushSack(std::uint64_t channel);
  void OnSackCells(std::uint64_t channel, std::vector<SackCell> cells,
                   std::uint32_t acker_epoch);

  struct CreditWaiter {
    std::coroutine_handle<> handle;
    std::shared_ptr<TxControl> ctl;
  };

  // Flow control: blocks the transmitting task until a credit is available.
  auto AcquireCredit(std::uint64_t channel, std::shared_ptr<TxControl> ctl) {
    struct Awaiter {
      Adapter& adapter;
      std::uint64_t channel;
      std::shared_ptr<TxControl> ctl;
      bool await_ready() {
        std::uint32_t& credits = adapter.tx_credits_[channel];
        if (credits > 0) {
          --credits;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        adapter.credit_waiters_[channel].push_back({h, std::move(ctl)});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, channel, std::move(ctl)};
  }
  // Called (after the credit latency) when the peer posts a receive buffer.
  void GrantCredit(std::uint64_t channel);

  Engine& engine_;
  PhysicalMemory& pm_;
  TraceLog* trace_ = nullptr;
  std::string name_;
  Config config_;
  double link_us_per_byte_;

  Adapter* peer_ = nullptr;
  Resource* tx_link_ = nullptr;
  RouteFn route_fn_;
  ControlPeerFn control_peer_fn_;
  Resource* tx_cpu_ = nullptr;
  Resource* rx_cpu_ = nullptr;
  double driver_us_per_byte_ = 0.0;

  std::map<std::uint64_t, std::deque<PostedReceive>> posted_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, PostedReceive> named_;
  std::unique_ptr<BufferPool> pool_;
  std::map<std::uint32_t, std::vector<std::byte>> outboard_;
  std::size_t outboard_bytes_held_ = 0;  // stored frames + in-progress rx
  std::uint32_t next_outboard_handle_ = 1;

  std::optional<RxState> rx_;  // in-progress frame (one at a time per link)
  std::map<std::uint64_t, std::uint32_t> tx_credits_;
  std::map<std::uint64_t, std::deque<CreditWaiter>> credit_waiters_;
  FaultPlan* fault_plan_ = nullptr;

  std::map<std::uint64_t, RxDedup> rx_dedup_;
  std::deque<HeldFrame> held_;  // reordered frames awaiting late delivery
  std::function<void(std::uint64_t, std::uint64_t, bool)> ack_handler_;
  std::function<void(std::uint64_t, std::vector<SackCell>)> sack_handler_;
  std::function<void(std::uint64_t, std::uint32_t)> fence_handler_;
  std::function<void(std::uint64_t, std::uint32_t)> resync_ack_handler_;
  std::uint32_t arq_window_ = 1;
  std::map<std::uint64_t, bool> sack_flush_pending_;
  std::uint32_t self_epoch_ = 1;
  bool crashed_ = false;
  bool rx_discarded_inflight_ = false;  // crash ate the frame mid-reception
  // Learned peer incarnation epoch per channel (cell staleness floor).
  std::map<std::uint64_t, std::uint32_t> peer_epoch_floor_;

  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t frames_dropped_no_buffer_ = 0;
  std::uint64_t drops_no_posted_buffer_ = 0;
  std::uint64_t drops_pool_exhausted_ = 0;
  std::uint64_t drops_outboard_overflow_ = 0;
  std::uint64_t rx_crc_errors_ = 0;
  std::uint64_t rx_truncated_frames_ = 0;
  std::uint64_t rx_duplicate_frames_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t sack_flushes_ = 0;
  std::uint64_t sack_cells_sent_ = 0;
  std::uint64_t link_frames_dropped_ = 0;
  std::uint64_t link_frames_duplicated_ = 0;
  std::uint64_t link_frames_reordered_ = 0;
  std::uint64_t crash_frame_drops_ = 0;
  std::uint64_t crash_cell_drops_ = 0;
  std::uint64_t stale_epoch_frame_drops_ = 0;
  std::uint64_t stale_epoch_cell_drops_ = 0;
  std::uint64_t fences_sent_ = 0;
  std::uint64_t resyncs_sent_ = 0;
  std::uint64_t link_down_drops_ = 0;
};

}  // namespace genie

#endif  // GENIE_SRC_NET_ADAPTER_H_
