// A Genie communication endpoint: the application-facing I/O interface that
// implements every data-passing semantics of the taxonomy over one network
// channel (paper Section 6).
//
// Output follows Table 2 (prepare at the output call, dispose at
// transmit-complete, overlapping the network and the receiver). Input is
// preposted and follows Table 3 for early-demultiplexed and outboard devices
// (with the Section 6.2.3 emulated-copy special case) and Table 4 for pooled
// devices. Short outputs are transparently converted to copy semantics under
// the Section 6 thresholds.
//
// Each step follows from the taxonomy's dimensions (semantics.h), not from a
// semantics by name: strong integrity is kept by TCOW (application-allocated)
// or invalidation (system-allocated), the basic semantics wire what they pass
// in place, the system-allocated ones move regions out and back in, and an
// emulated semantics falls back to the basic one it optimizes.
#ifndef GENIE_SRC_GENIE_ENDPOINT_H_
#define GENIE_SRC_GENIE_ENDPOINT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/genie/node.h"
#include "src/genie/options.h"
#include "src/genie/semantics.h"
#include "src/genie/sys_buffer.h"
#include "src/sim/awaitable.h"
#include "src/sim/task.h"
#include "src/util/check.h"
#include "src/vm/io_ref.h"

namespace genie {

// Why an operation failed. Application misuse (bad buffer bounds, taxonomy
// misuse) still aborts — these cover failures the kernel recovers from.
enum class IoStatus : std::uint8_t {
  kOk = 0,
  kNoMemory,   // frame allocation failed and pageout could not make room
  kIoError,    // device error, failed page-in, or buffer yanked mid-transfer
  kCancelled,  // transfer watchdog cancelled a stuck operation
  kPeerCrashed,  // aborted by a crash-stop (local node or peer epoch bump)
};

struct InputResult {
  bool ok = false;         // data delivered with the semantics' guarantees
  bool crc_ok = true;      // network CRC status
  bool checksum_ok = true;  // transport checksum status (ChecksumMode != kNone)
  IoStatus status = IoStatus::kOk;  // failure cause when !ok
  Vaddr addr = 0;        // where the data is (application buffer, or the
                         // moved-in region for system-allocated semantics)
  std::uint64_t bytes = 0;
  SimTime completed_at = 0;
};

class Endpoint {
 public:
  // Per-operation instrumentation hook: (op, bytes, charged simulated time).
  using OpProbe = std::function<void(OpKind, std::uint64_t, SimTime)>;

  // --- Batched submission/completion rings (io_uring-style) ---
  // Callers enqueue operations with Submit()/SubmitBatch(), then Drain()
  // pushes the whole batch through the kernel in one pass: outputs run their
  // prepare under a single CPU acquisition (one "kernel entry" for N
  // sends, the amortization the windowed ARQ turns into wire pipelining)
  // and their transmit+dispose proceed detached; inputs launch their normal
  // self-contained coroutines. Each entry produces exactly one Completion
  // (tagged with the caller's user_data) in the completion ring, harvested
  // non-blocking with Harvest() or awaited with WaitCompletions(). Flow ids,
  // trace spans, watchdogs, semantics fallback and the crashed-node refusal
  // thread through the batched path exactly as through Output()/Input()
  // (a refused entry completes with kPeerCrashed). An input's semantics says
  // who allocates its buffer: a system-allocated one ignores `va` and
  // completes with the moved-in region's address, as InputSystemAllocated().
  struct SubmitEntry {
    enum class Op : std::uint8_t { kOutput, kInput };
    Op op = Op::kOutput;
    AddressSpace* app = nullptr;
    Vaddr va = 0;            // ignored for system-allocated inputs
    std::uint64_t len = 0;
    Semantics sem = Semantics::kCopy;
    std::uint32_t tag = 0;   // outputs: sender-managed destination (0 = posted)
    std::uint64_t user_data = 0;    // opaque; echoed in the Completion
  };

  struct Completion {
    std::uint64_t user_data = 0;
    SubmitEntry::Op op = SubmitEntry::Op::kOutput;
    IoStatus status = IoStatus::kOk;
    std::uint64_t bytes = 0;
    Vaddr addr = 0;          // inputs: where the data landed
    SimTime completed_at = 0;
  };

  struct Stats {
    std::uint64_t outputs = 0;
    std::uint64_t inputs = 0;
    std::uint64_t outputs_converted_to_copy = 0;
    std::uint64_t pages_swapped = 0;
    std::uint64_t reverse_copyouts = 0;
    std::uint64_t bytes_swapped = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t crc_failures = 0;
    std::uint64_t region_cache_hits = 0;
    std::uint64_t region_cache_misses = 0;
    std::uint64_t regions_remapped_at_dispose = 0;
    // Fault-recovery accounting: operations that hit a recoverable failure
    // (injected or real) and were fully unwound instead of aborting.
    std::uint64_t failed_outputs = 0;
    std::uint64_t failed_inputs = 0;
    std::uint64_t recovered_transfers = 0;
    // Reliability layer: semantics downgrades taken instead of failing
    // (options.enable_semantics_fallback) and watchdog-cancelled operations.
    std::uint64_t semantics_fallbacks = 0;
    std::uint64_t watchdog_cancels = 0;
    // Ring API traffic: entries accepted, drain passes, completions posted.
    std::uint64_t ring_submits = 0;
    std::uint64_t ring_drains = 0;
    std::uint64_t ring_completions = 0;
  };

  Endpoint(Node& node, std::uint64_t channel, GenieOptions options = GenieOptions{});
  // Releases any still-registered named buffers (drops their pinned pages)
  // and revokes the postings and watchdog entries of inputs still waiting
  // for a frame, giving back what their prepare took.
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  Node& node() { return *node_; }
  std::uint64_t channel() const { return channel_; }
  const GenieOptions& options() const { return options_; }
  const Stats& stats() const { return stats_; }
  void set_op_probe(OpProbe probe) { op_probe_ = std::move(probe); }

  // Per-completed-input latency hook (microseconds). Fires in addition to
  // the registry histogram, and is the only latency sink when the endpoint
  // runs with options.register_metrics = false (bulk workload harnesses
  // roll latencies up per tenant class instead of per channel).
  void set_input_latency_probe(std::function<void(double)> probe) {
    input_latency_probe_ = std::move(probe);
  }

  // Deterministic per-operation accounting: how many times each primitive
  // ran on this endpoint and over how many bytes. Bit-stable across runs —
  // the bench-regression gate exact-matches these through the node's
  // MetricsRegistry (gauges "ep<channel>.op.<name>.count" / ".bytes").
  std::uint64_t op_count(OpKind op) const {
    return op_counts_[static_cast<std::size_t>(op)];
  }
  std::uint64_t op_bytes(OpKind op) const {
    return op_bytes_[static_cast<std::size_t>(op)];
  }

  // Sends [va, va+len) with the given semantics. The task completes when the
  // application regains control (prepare done); transmission and dispose
  // continue asynchronously. For system-allocated semantics the buffer must
  // lie in a moved-in region, which is deallocated (moved out) by the send.
  Task<void> Output(AddressSpace& app, Vaddr va, std::uint64_t len, Semantics sem);

  // Application-allocated input: preposts a receive into [va, va+len) and
  // completes when the datagram has been delivered (dispose done).
  Task<InputResult> Input(AddressSpace& app, Vaddr va, std::uint64_t len, Semantics sem);

  // System-allocated input: the system chooses the location; the result's
  // `addr` points at the moved-in region.
  Task<InputResult> InputSystemAllocated(AddressSpace& app, std::uint64_t len, Semantics sem);

  // Explicit I/O buffer management for the system-allocated API (paper
  // Section 2.1): allocates a moved-in region usable as an output buffer.
  Vaddr AllocateIoBuffer(AddressSpace& app, std::uint64_t len);
  void FreeIoBuffer(AddressSpace& app, Vaddr start);

  // The preferred alignment of application input buffers (application input
  // alignment, Section 5.2) — page offset the first byte should have.
  std::uint32_t PreferredInputAlignment() const { return options_.preferred_input_offset; }

  // --- Sender-managed buffer placement (Section 6.2.1, refs [5],[20]) ---
  // The receiver registers a persistent in-place buffer under a tag; senders
  // direct datagrams at it with OutputTagged, with no per-datagram
  // preposting and the cheapest possible receive path (interrupt + notify).
  // Weak integrity: the buffer stays mapped and device-writable, like
  // Hamlyn's sender-managed areas; its pages are pinned by long-lived input
  // references (which input-disabled pageout honors — the "non-pageable
  // buffer area" of Section 9's OS-bypass discussion).
  std::uint32_t RegisterNamedBuffer(AddressSpace& app, Vaddr va, std::uint64_t len);
  void UnregisterNamedBuffer(std::uint32_t tag);
  // Awaits the next datagram arrival into the named buffer.
  Task<InputResult> ReceiveNamed(std::uint32_t tag);
  // Sends [va, va+len) to the receiver's named buffer `tag`.
  Task<void> OutputTagged(AddressSpace& app, Vaddr va, std::uint64_t len, Semantics sem,
                          std::uint32_t tag);

  // --- Ring API (see the SubmitEntry comment above) ---
  // Enqueues one entry; false when the submit ring is at options().ring_depth.
  bool Submit(const SubmitEntry& entry);
  // Enqueues entries until the ring fills; returns how many were accepted.
  std::size_t SubmitBatch(const std::vector<SubmitEntry>& entries);
  // Drains every currently-enqueued entry through the kernel in one pass and
  // co_returns the number launched (completions arrive asynchronously).
  Task<std::size_t> Drain();
  // Pops up to `max` completions into `out`; returns how many were popped.
  std::size_t Harvest(std::vector<Completion>* out,
                      std::size_t max = std::numeric_limits<std::size_t>::max());
  // Suspends until at least `n` completions are harvestable; returns the
  // number available. `n` counts ring occupancy, not cumulative completions.
  Task<std::size_t> WaitCompletions(std::size_t n);
  std::size_t submit_ring_size() const { return submit_ring_.size(); }
  std::size_t completion_ring_size() const { return completion_ring_.size(); }

  // Operations (outputs awaiting dispose, inputs awaiting data) in flight.
  std::size_t pending_operations() const { return pending_; }

  // True if at least one input has completed its prepare and is waiting for
  // data (posted to the device).
  bool HasPreparedInput() const { return node_->adapter().posted_receives(channel_) > 0; }

  // Test hook: the next output's transport checksum is corrupted in flight.
  void CorruptNextChecksum() { corrupt_next_checksum_ = true; }

  // Crash-stop unwind (called by Node::Crash after the adapter wiped its
  // posted-receive and queue state): every waiting input that has not begun
  // its dispose is unwound and failed with IoStatus::kPeerCrashed. Outputs
  // need no handling here — in-flight transmits are woken by the reliable
  // layer's crash resolution and run their normal sender-side dispose.
  void CrashAbort();

 private:
  // The ops one prepare or dispose phase records for its coroutine to charge,
  // kept inline (no allocation). No phase records more than ten: a failed
  // semantics attempt records at most one op, and the longest dispose (a
  // pooled emulated move) records nine plus the checksum.
  class Charges {
   public:
    using Item = std::pair<OpKind, std::uint64_t>;
    void Add(OpKind op, std::uint64_t bytes) {
      GENIE_CHECK_LT(size_, items_.size()) << "too many charges in one phase";
      items_[size_++] = Item{op, bytes};
    }
    const Item* begin() const { return items_.data(); }
    const Item* end() const { return items_.data() + size_; }

   private:
    std::array<Item, 16> items_;
    std::size_t size_ = 0;
  };

  struct OutputState {
    AddressSpace* app = nullptr;
    Vaddr va = 0;
    std::uint64_t len = 0;
    std::uint32_t tag = 0;  // sender-managed destination (0 = receiver-posted)
    // A system-allocated request gives its region up even when fallback
    // demotes it to copy: the dispose settles the region either way.
    Semantics requested = Semantics::kCopy;
    Semantics effective = Semantics::kCopy;
    IoReference ref;
    SysBuffer sysbuf;  // copy
    IoVec wire;
    std::uint32_t header = 0;       // transport checksum (ChecksumMode != kNone)
    bool has_fused_header = false;  // checksum already computed during copyin
    std::uint16_t fused_header = 0;
    bool wired = false;        // ref's pages wired at prepare
    Vaddr region_start = 0;    // system-allocated
    std::string xfer;          // trace key: "out#<id>[<semantics>]"
    std::uint64_t flow = 0;    // causal flow id stamping this transfer's events
    SimTime started_at = 0;
    // Peer incarnation this output is addressed to, as the reliable layer
    // knew it when the output began. An output addressed to an incarnation
    // that dies before the window admits it fails with kPeerCrashed.
    std::uint32_t peer_epoch = 0;
    // Ring-submitted outputs: invoked exactly once with the final status —
    // at prepare failure, or after dispose (kOk, or kCancelled/kIoError when
    // delivery failed). Null for the plain Output() path.
    std::function<void(IoStatus)> on_complete;
  };

  struct PendingInput : std::enable_shared_from_this<PendingInput> {
    explicit PendingInput(Engine& engine) : done(engine) {}
    AddressSpace* app = nullptr;
    Vaddr va = 0;
    std::uint64_t len = 0;
    Semantics sem = Semantics::kCopy;
    InputBuffering mode = InputBuffering::kEarlyDemux;
    SysBuffer sysbuf;
    bool has_sysbuf = false;
    IoReference ref;
    bool wired = false;
    std::vector<FrameId> wired_frames;  // survives Unreference() for unwiring
    Vaddr region_start = 0;
    std::shared_ptr<MemoryObject> region_object;  // set while a prepared region is held
    IoVec target;  // DMA target (posted buffer or outboard destination)
    // Displaced frames whose retirement to the device pool must wait until
    // their I/O references and wiring drop (see DisposeAligned).
    std::vector<FrameId> deferred_retire;
    InputResult result;
    SimEvent done;
    std::string xfer;  // trace key: "in#<id>[<semantics>]"
    // Causal flow id of the frame that landed in this input (stamped at
    // dispose; the prepare happens before any sender exists, so its span is
    // joined into the flow's graph by label instead).
    std::uint64_t flow = 0;
    SimTime started_at = 0;
    // Nonzero once posted; the same id is stamped on the adapter-side
    // posting so the watchdog and teardown can revoke it atomically.
    std::uint64_t cancel_id = 0;
    // The transfer watchdog's id for this input (0 = not watched).
    std::uint64_t watch_id = 0;
    // A dispose coroutine has claimed this input: the frame landed and data
    // movement is running. A node crash lets such inputs finish (the device
    // has handed their frames over) instead of unwinding under a running
    // dispose.
    bool dispose_started = false;
  };

  Task<InputResult> InputCommon(AddressSpace& app, Vaddr va, std::uint64_t len, Semantics sem);

  // Transport checksum verification (Section 9 extension) over the first
  // `n` bytes of `frame`, read where the device left them: the posted
  // buffer, the `overlay` pages or adapter memory. Records the pass to
  // charge. A separate-pass mismatch fails the input before any data
  // reaches the application buffer (strong); an integrated one is only
  // detected once the data is there (weak).
  struct ChecksumVerdict {
    bool verified_ok = true;
    bool integrated = false;
  };
  ChecksumVerdict VerifyChecksum(PendingInput& pi, const RxCompletion& frame,
                                 const SysBuffer& overlay, std::uint64_t n, Charges& ch);
  // True when the dispose copies the input's bytes out of a system or
  // overlay buffer into the application buffer (Tables 3 and 4) rather than
  // swapping pages or finding the data in place. A checksum integrates only
  // with such a copy; outboard inputs integrate with their DMA instead.
  bool CopiesOut(const PendingInput& pi) const;

  // Functional halves (bookkeeping + data movement), recording the costs to
  // charge; the coroutines charge them while holding the CPU.
  // Prepare may fail recoverably (allocation exhaustion, injected faults);
  // on failure everything it did is unwound and the operation is not started.
  IoStatus PrepareOutput(OutputState& st, Charges& ch);
  void DisposeOutput(OutputState& st, Charges& ch);
  IoStatus PrepareInput(PendingInput& pi, Charges& ch);
  // Prepare wrapped in the semantics degradation loop: on a recoverable
  // prepare failure with options.enable_semantics_fallback, walks the chain
  // emulated -> basic -> floor (resetting the half-prepared state between
  // attempts) until an attempt sticks or the chain bottoms out.
  IoStatus PrepareOutputWithFallback(OutputState& st, Charges& ch);
  IoStatus PrepareInputWithFallback(PendingInput& pi, Charges& ch);
  void RecordSemanticsFallback(const std::string& xfer, std::string_view from,
                               std::string_view to);
  // Table 3 dispose (early demultiplexed and outboard DMA targets, and the
  // Section 6.2.3 outboard emulated copy) and Table 4 dispose (pooled
  // overlay buffers, wrapped as an offset-0 source). Each returns whether
  // the application buffer stayed usable.
  bool DisposeInputTable3(PendingInput& pi, std::uint64_t n, Charges& ch);
  bool DisposeInputTable4(PendingInput& pi, SysBuffer& overlay, std::uint64_t n, Charges& ch);
  // Basic move's dispose: a new moved-in region holding the first `n`
  // bytes' pages of `src` (donated, their slots invalidated) with the tail
  // of the last page zeroed, mapped. `fill_op` is the fill's charge.
  Vaddr MoveIntoNewRegion(AddressSpace& app, SysBuffer& src, std::uint64_t n, OpKind fill_op,
                          Charges& ch);
  // Shared unwind core (free sysbuf, unwire, unreference, restore hidden
  // regions) used by the failed dispose and AbortWaitingInput.
  void UnwindInputResources(PendingInput& pi, Charges& ch);
  // Marks the input failed with `status` and counts it as recovered.
  void FailInput(PendingInput& pi, IoStatus status);
  // Watchdog callback for a stuck input: kCompleted if it finished on its
  // own, kBusy if a frame is mid-delivery, else revokes the posting,
  // unwinds, fails the input with IoStatus::kCancelled.
  ReliableDelivery::WatchVerdict TryCancelStuckInput(const std::shared_ptr<PendingInput>& pi);
  // Fails an input still waiting for its frame (watchdog cancel, crash):
  // unwinds its prepare, traces `why` and completes it with `status`.
  void AbortWaitingInput(PendingInput& pi, IoStatus status, const char* why,
                         const char* category);

  // Output prepare phase (trace span, kernel-fixed charge, semantics
  // fallback, checksum, cost charges). Caller holds the CPU. On success the
  // caller detaches TransmitAndDispose; on failure everything was unwound.
  Task<IoStatus> RunOutputPrepare(std::shared_ptr<OutputState> st);
  // Builds the OutputState for [va, va+len) (copy-conversion thresholds,
  // effective semantics, flow id) — the half of OutputTagged and Drain
  // before the prepare. Null when the node is crashed: the output is
  // refused and counted failed.
  std::shared_ptr<OutputState> MakeOutputState(AddressSpace& app, Vaddr va, std::uint64_t len,
                                               Semantics sem, std::uint32_t tag);
  // Ring input wrapper: runs the normal input path, then posts a Completion.
  Task<void> RunRingInput(SubmitEntry entry);
  void PushCompletion(Completion completion);

  Task<void> TransmitAndDispose(std::shared_ptr<OutputState> st);
  // The input dispose for every buffering architecture: verify, then the
  // Table 3 or Table 4 dispose, or the failure unwind. Pooled frames first
  // pay Table 4's ready-time ops; outboard frames are checksummed in
  // adapter memory and DMAed to the host before the dispose, and freed
  // after it.
  Task<void> RunDispose(std::shared_ptr<PendingInput> pi, RxCompletion frame);
  // RunDispose's steps that never suspend, kept out of its coroutine frame
  // (every input allocates one). Wraps pooled overlay pages holding `bytes`
  // as an offset-0 source buffer.
  SysBuffer OverlayBuffer(std::vector<FrameId> pages, std::uint64_t bytes) const;
  // Section 6.2.3: references the application buffer as the outboard DMA
  // target of an emulated copy; on failure fails the input.
  bool ReferenceOutboardTarget(PendingInput& pi, std::uint64_t n);
  // Moves the first `n` bytes of the staged outboard frame into the DMA
  // target (the bus transfer's data movement; the caller charges it).
  void DmaOutboardFrame(PendingInput& pi, const RxCompletion& frame, std::uint64_t n);

  struct NamedBuffer {
    explicit NamedBuffer(Engine& engine) : ready(engine) {}
    AddressSpace* app = nullptr;
    Vaddr va = 0;
    std::uint64_t len = 0;
    IoReference ref;  // Long-lived: pins the pages for the device.
    std::deque<InputResult> arrivals;
    SimEvent ready;
  };
  Task<void> RunNamedArrival(std::shared_ptr<NamedBuffer> nb, RxCompletion completion);

  // Swap-or-copy of `n` bytes from aligned source pages into the buffer at
  // `va`, charging per the plan; overlay sources retire displaced frames to
  // the device pool.
  DisposePlan DisposeAligned(PendingInput& pi, Vaddr va, std::uint64_t n, SysBuffer& src,
                             bool to_pool, Charges& ch);

  // Charges `op` over `bytes` as held-CPU time (use only while holding cpu).
  Delay Charge(OpKind op, std::uint64_t bytes);

  void WireRefFrames(PendingInput& pi);
  void UnwireFrames(PendingInput& pi);
  void MapRegionPages(AddressSpace& app, Region& region);
  Region* CheckOrRemapRegion(PendingInput& pi, Charges& ch);
  void FinishOperation();

  // Registers this endpoint's stats and op-count gauges ("ep<channel>.*")
  // with the node's MetricsRegistry; the destructor unregisters them.
  void RegisterMetrics();
  // "out#7[emulated copy]" — the per-transfer trace/watchdog key. Empty when
  // the transfer starts with no trace attached and the watchdog off, so an
  // untraced transfer builds no label (the id is consumed either way).
  std::string XferLabel(const char* direction, Semantics sem);
  // The one exit of a posted input: stamps completed_at, drops it from the
  // live (cancellable) set, records its latency, ends the operation and
  // wakes the waiting Input() call.
  void CompleteInput(PendingInput& pi);

  Node* node_;
  std::uint64_t channel_;
  GenieOptions options_;
  Stats stats_;
  std::array<std::uint64_t, kOpKindCount> op_counts_{};
  std::array<std::uint64_t, kOpKindCount> op_bytes_{};
  std::string metric_prefix_;  // "ep<channel>."
  std::string xfer_track_;    // "<node>.xfer": every per-transfer span's track
  // Looked up once: the registry's histograms are stable and outlive us.
  LatencyHistogram* input_latency_us_ = nullptr;  // null without register_metrics
  LatencyHistogram* output_latency_us_ = nullptr;
  std::uint64_t next_transfer_id_ = 1;
  OpProbe op_probe_;
  std::function<void(double)> input_latency_probe_;
  bool corrupt_next_checksum_ = false;
  std::size_t pending_ = 0;
  std::map<std::uint32_t, std::shared_ptr<NamedBuffer>> named_buffers_;
  std::uint32_t next_tag_ = 1;
  std::uint64_t next_cancel_id_ = 1;
  // Every live input keyed by cancel id, from post to completion record —
  // the crash unwind's and teardown's worklist. Their postings live
  // adapter-side.
  std::map<std::uint64_t, std::shared_ptr<PendingInput>> live_inputs_;
  // Ring API state. The deques are the rings (bounded by options_.ring_depth
  // on the submit side); cq_ready_ is set on every completion push so
  // WaitCompletions wakes exactly when occupancy grows.
  std::deque<SubmitEntry> submit_ring_;
  std::deque<Completion> completion_ring_;
  SimEvent cq_ready_;
};

}  // namespace genie

#endif  // GENIE_SRC_GENIE_ENDPOINT_H_
