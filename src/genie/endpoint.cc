#include "src/genie/endpoint.h"

#include <algorithm>
#include <cstring>

#include "src/genie/host_path.h"
#include "src/net/checksum.h"
#include "src/net/iovec_io.h"
#include "src/obs/trace_scope.h"
#include "src/util/check.h"

namespace genie {

namespace {

std::uint64_t CeilPages(std::uint64_t len, std::uint32_t page_size) {
  return (len + page_size - 1) / page_size;
}

// Semantics degradation (options.enable_semantics_fallback): the semantics
// to try after `s` failed to prepare. An emulated semantics falls back to the
// basic one it optimizes, a basic one to `floor`, and nothing goes below the
// floor (returns `s` itself). The floor is copy, which only needs a system
// buffer and a copyin/copyout, the weakest resource demand of the taxonomy;
// a system-allocated input must still deliver a moved-in region, so its
// floor is basic move, which builds its region from a plain system buffer at
// dispose and has no prepare-time region or wiring demands.
Semantics FallbackOf(Semantics s, Semantics floor) {
  if (s == floor) {
    return s;
  }
  return IsEmulated(s) ? BasicOf(s) : floor;
}

// Whether `s` wires the pages it passes in place. The basic semantics do;
// the emulated ones rely on input-disabled pageout instead (Section 3.2) and
// wire only in its ablation.
bool Wires(Semantics s, const GenieOptions& options) {
  return !IsEmulated(s) || !options.enable_input_disabled_pageout;
}

// Whether a system-allocated `s` caches the regions it moves out, for its
// inputs to reuse, instead of removing them: weak integrity leaves the
// region mapped, and the emulated semantics hide it (region hiding, Section
// 4) unless that is switched off.
bool CachesRegions(Semantics s, const GenieOptions& options) {
  return IsWeakIntegrity(s) || (IsEmulated(s) && options.enable_region_hiding);
}

// The state a cached region of `s` waits in.
RegionState CachedRegionState(Semantics s) {
  return IsStrongIntegrity(s) ? RegionState::kMovedOut : RegionState::kWeaklyMovedOut;
}

}  // namespace

Endpoint::Endpoint(Node& node, std::uint64_t channel, GenieOptions options)
    : node_(&node),
      channel_(channel),
      options_(options),
      metric_prefix_("ep" + std::to_string(channel) + "."),
      xfer_track_(node.name() + ".xfer"),
      output_latency_us_(&node.metrics().Histogram(metric_prefix_ + "output_latency_us")),
      cq_ready_(node.engine()) {
  if (options_.register_metrics) {
    RegisterMetrics();
    input_latency_us_ = &node_->metrics().Histogram(metric_prefix_ + "input_latency_us");
  }
  node_->RegisterEndpoint(this);
}

Endpoint::~Endpoint() {
  node_->UnregisterEndpoint(this);
  while (!named_buffers_.empty()) {
    UnregisterNamedBuffer(named_buffers_.begin()->first);
  }
  // The node outlives the endpoint, but input postings, watchdog entries and
  // gauges capture `this` — drop every registration so a frame arriving
  // later, a watchdog scan or a metrics snapshot cannot call into freed
  // memory, and so creating and destroying endpoints in bulk leaves the
  // node's tables empty. A revoked input gives back what its prepare took.
  for (const auto& [cancel_id, pi] : live_inputs_) {
    if (pi->watch_id != 0) {
      node_->reliable().Unwatch(pi->watch_id);
    }
    if (node_->adapter().CancelPostedReceive(channel_, cancel_id)) {
      Charges discarded;
      UnwindInputResources(*pi, discarded);
    }
  }
  if (options_.register_metrics) {
    node_->metrics().UnregisterByPrefix(metric_prefix_);
  }
}

void Endpoint::RegisterMetrics() {
  MetricsRegistry& m = node_->metrics();
  m.RegisterGauge(metric_prefix_ + "outputs", [this] { return stats_.outputs; });
  m.RegisterGauge(metric_prefix_ + "inputs", [this] { return stats_.inputs; });
  m.RegisterGauge(metric_prefix_ + "outputs_converted_to_copy",
                  [this] { return stats_.outputs_converted_to_copy; });
  m.RegisterGauge(metric_prefix_ + "pages_swapped", [this] { return stats_.pages_swapped; });
  m.RegisterGauge(metric_prefix_ + "reverse_copyouts",
                  [this] { return stats_.reverse_copyouts; });
  m.RegisterGauge(metric_prefix_ + "bytes_swapped", [this] { return stats_.bytes_swapped; });
  m.RegisterGauge(metric_prefix_ + "bytes_copied", [this] { return stats_.bytes_copied; });
  m.RegisterGauge(metric_prefix_ + "crc_failures", [this] { return stats_.crc_failures; });
  m.RegisterGauge(metric_prefix_ + "region_cache_hits",
                  [this] { return stats_.region_cache_hits; });
  m.RegisterGauge(metric_prefix_ + "region_cache_misses",
                  [this] { return stats_.region_cache_misses; });
  m.RegisterGauge(metric_prefix_ + "regions_remapped_at_dispose",
                  [this] { return stats_.regions_remapped_at_dispose; });
  m.RegisterGauge(metric_prefix_ + "failed_outputs", [this] { return stats_.failed_outputs; });
  m.RegisterGauge(metric_prefix_ + "failed_inputs", [this] { return stats_.failed_inputs; });
  m.RegisterGauge(metric_prefix_ + "recovered_transfers",
                  [this] { return stats_.recovered_transfers; });
  m.RegisterGauge(metric_prefix_ + "semantics_fallbacks",
                  [this] { return stats_.semantics_fallbacks; });
  m.RegisterGauge(metric_prefix_ + "watchdog_cancels",
                  [this] { return stats_.watchdog_cancels; });
  m.RegisterGauge(metric_prefix_ + "ring_submits", [this] { return stats_.ring_submits; });
  m.RegisterGauge(metric_prefix_ + "ring_drains", [this] { return stats_.ring_drains; });
  m.RegisterGauge(metric_prefix_ + "ring_completions",
                  [this] { return stats_.ring_completions; });
  for (std::size_t i = 0; i < kOpKindCount; ++i) {
    const std::string op_prefix =
        metric_prefix_ + "op." + std::string(OpKindName(static_cast<OpKind>(i))) + ".";
    m.RegisterGauge(op_prefix + "count", [this, i] { return op_counts_[i]; });
    m.RegisterGauge(op_prefix + "bytes", [this, i] { return op_bytes_[i]; });
  }
}

std::string Endpoint::XferLabel(const char* direction, Semantics sem) {
  const std::uint64_t id = next_transfer_id_++;
  if (node_->trace() == nullptr && !node_->reliable().watchdog_enabled()) {
    return {};  // Nothing will read it: only traces and the watchdog do.
  }
  return std::string(direction) + "#" + std::to_string(id) + "[" +
         std::string(SemanticsName(sem)) + "]";
}

void Endpoint::CompleteInput(PendingInput& pi) {
  pi.result.completed_at = node_->engine().now();
  if (pi.cancel_id != 0) {
    live_inputs_.erase(pi.cancel_id);
  }
  const double us = SimTimeToMicros(node_->engine().now() - pi.started_at);
  if (input_latency_us_ != nullptr) {
    input_latency_us_->Add(us);
  }
  if (input_latency_probe_) {
    input_latency_probe_(us);
  }
  FinishOperation();
  pi.done.Set();
}

Delay Endpoint::Charge(OpKind op, std::uint64_t bytes) {
  const SimTime cost = node_->Cost(op, bytes);
  ++op_counts_[static_cast<std::size_t>(op)];
  op_bytes_[static_cast<std::size_t>(op)] += bytes;
  if (op_probe_) {
    op_probe_(op, bytes, cost);
  }
  if (TraceLog* trace = node_->trace(); trace != nullptr && cost > 0) {
    const SimTime now = node_->engine().now();
    trace->Span(node_->name() + ".cpu", std::string(OpKindName(op)), "genie", now, now + cost);
  }
  return Delay(node_->engine(), cost);
}

void Endpoint::FinishOperation() {
  GENIE_CHECK_GT(pending_, 0u);
  --pending_;
}

// ---------------------------------------------------------------------------
// Output (Table 2)
// ---------------------------------------------------------------------------

Task<void> Endpoint::Output(AddressSpace& app, Vaddr va, std::uint64_t len, Semantics sem) {
  return OutputTagged(app, va, len, sem, /*tag=*/0);
}

std::shared_ptr<Endpoint::OutputState> Endpoint::MakeOutputState(AddressSpace& app, Vaddr va,
                                                                 std::uint64_t len,
                                                                 Semantics sem,
                                                                 std::uint32_t tag) {
  if (node_->crashed()) {
    // Kernel I/O state is gone; fail fast without touching the VM.
    ++stats_.failed_outputs;
    return nullptr;
  }
  GENIE_CHECK_GT(len, 0u);
  GENIE_CHECK_LE(len, kMaxAal5Payload);
  auto st = std::make_shared<OutputState>();
  st->app = &app;
  st->va = va;
  st->len = len;
  st->tag = tag;
  st->requested = sem;

  // Short-output conversion to copy semantics (Section 6 / Figure 5).
  Semantics effective = sem;
  if (options_.enable_copy_conversion) {
    if (sem == Semantics::kEmulatedCopy && len < options_.emulated_copy_output_threshold) {
      effective = Semantics::kCopy;
    } else if (sem == Semantics::kEmulatedShare &&
               len < options_.emulated_share_output_threshold) {
      effective = Semantics::kCopy;
    }
    if (effective != sem) {
      ++stats_.outputs_converted_to_copy;
    }
  }
  // Ablation: without TCOW there is no safe write-protection scheme for
  // in-place strong-integrity output; emulated copy degenerates to copy.
  if (!options_.enable_tcow && effective == Semantics::kEmulatedCopy) {
    effective = Semantics::kCopy;
  }
  st->effective = effective;
  st->xfer = XferLabel("out", effective);
  // Minted here, at the origin of the causal chain: every span and instant
  // this transfer produces — on either node — carries the same flow id.
  st->flow = node_->engine().NextFlowId();
  st->started_at = node_->engine().now();
  st->peer_epoch = node_->reliable().PeerEpoch(channel_);

  ++stats_.outputs;
  ++pending_;
  return st;
}

Task<IoStatus> Endpoint::RunOutputPrepare(std::shared_ptr<OutputState> st) {
  TraceScope prepare_span(node_->trace(), xfer_track_, st->xfer, ".prepare", st->flow);
  co_await Charge(OpKind::kSenderKernelFixed, 0);
  Charges charges;
  IoStatus prep;
  {
    // Synchronous phase: VM events it triggers (faults, page-ins) are keyed
    // to this transfer.
    ScopedTraceContext trace_ctx(node_->trace(), st->xfer);
    prep = PrepareOutputWithFallback(*st, charges);
  }
  if (prep != IoStatus::kOk) {
    // The output never started; everything prepared so far was unwound. The
    // kernel time spent on the attempt is still charged.
    ++stats_.failed_outputs;
    ++stats_.recovered_transfers;
    for (const auto& [op, bytes] : charges) {
      co_await Charge(op, bytes);
    }
    prepare_span.End();
    if (st->on_complete) {
      st->on_complete(prep);
    }
    co_return prep;
  }
  if (options_.checksum_mode != ChecksumMode::kNone) {
    // Compute the transport checksum over the outgoing data. For copy
    // semantics it can be integrated with the copyin (reference [7]); for
    // in-place output it is a separate read-only pass.
    st->header = st->has_fused_header
                     ? st->fused_header
                     : ChecksumOfIoVec(st->app->vm().pm(), st->wire, st->len);
    if (corrupt_next_checksum_) {
      corrupt_next_checksum_ = false;
      st->header ^= 0xFFFF;
    }
    charges.Add(options_.checksum_mode == ChecksumMode::kIntegrated &&
                        st->effective == Semantics::kCopy
                    ? OpKind::kChecksumIntegrated
                    : OpKind::kChecksumRead,
                st->len);
  }
  for (const auto& [op, bytes] : charges) {
    co_await Charge(op, bytes);
  }
  prepare_span.End();
  co_return IoStatus::kOk;
}

Task<void> Endpoint::OutputTagged(AddressSpace& app, Vaddr va, std::uint64_t len,
                                  Semantics sem, std::uint32_t tag) {
  auto st = MakeOutputState(app, va, len, sem, tag);
  if (st == nullptr) {
    co_return;
  }
  co_await node_->cpu().Acquire();
  const IoStatus prep = co_await RunOutputPrepare(st);
  node_->cpu().Release();
  if (prep != IoStatus::kOk) {
    FinishOperation();
    co_return;
  }
  // Transmission and dispose proceed asynchronously; the application
  // regains control now (the output call returns).
  std::move(TransmitAndDispose(st)).Detach();
  co_return;
}

// ---------------------------------------------------------------------------
// Batched submission/completion rings
// ---------------------------------------------------------------------------

bool Endpoint::Submit(const SubmitEntry& entry) {
  GENIE_CHECK(entry.app != nullptr);
  if (submit_ring_.size() >= options_.ring_depth) {
    return false;
  }
  submit_ring_.push_back(entry);
  ++stats_.ring_submits;
  return true;
}

std::size_t Endpoint::SubmitBatch(const std::vector<SubmitEntry>& entries) {
  std::size_t accepted = 0;
  for (const SubmitEntry& entry : entries) {
    if (!Submit(entry)) {
      break;
    }
    ++accepted;
  }
  return accepted;
}

void Endpoint::PushCompletion(Completion completion) {
  completion.completed_at = node_->engine().now();
  completion_ring_.push_back(completion);
  ++stats_.ring_completions;
  cq_ready_.Set();
}

std::size_t Endpoint::Harvest(std::vector<Completion>* out, std::size_t max) {
  std::size_t popped = 0;
  while (!completion_ring_.empty() && popped < max) {
    out->push_back(completion_ring_.front());
    completion_ring_.pop_front();
    ++popped;
  }
  return popped;
}

Task<std::size_t> Endpoint::WaitCompletions(std::size_t n) {
  while (completion_ring_.size() < n) {
    co_await cq_ready_.Wait();
    cq_ready_.Reset();
  }
  co_return completion_ring_.size();
}

Task<void> Endpoint::RunRingInput(SubmitEntry entry) {
  const InputResult r = co_await InputCommon(*entry.app, entry.va, entry.len, entry.sem);
  Completion c;
  c.user_data = entry.user_data;
  c.op = SubmitEntry::Op::kInput;
  // A delivery whose payload failed its integrity checks (CRC/checksum) is
  // reported kIoError: the entry is complete but the data is not usable.
  c.status = (!r.ok && r.status == IoStatus::kOk) ? IoStatus::kIoError : r.status;
  c.bytes = r.bytes;
  c.addr = r.addr;
  PushCompletion(c);
}

Task<std::size_t> Endpoint::Drain() {
  if (submit_ring_.empty()) {
    co_return 0;
  }
  ++stats_.ring_drains;
  // Take the current batch; entries submitted while this drain runs wait
  // for the next pass.
  std::deque<SubmitEntry> batch;
  batch.swap(submit_ring_);
  const std::size_t launched = batch.size();
  // One kernel entry for the whole batch: the CPU is acquired once, and
  // every output prepare runs under that single hold. Inputs launch their
  // normal self-contained coroutines, which queue FIFO for the CPU behind
  // this drain's hold, preserving submission order.
  co_await node_->cpu().Acquire();
  for (SubmitEntry& entry : batch) {
    if (entry.op == SubmitEntry::Op::kInput) {
      std::move(RunRingInput(entry)).Detach();
      continue;
    }
    auto st = MakeOutputState(*entry.app, entry.va, entry.len, entry.sem, entry.tag);
    const std::uint64_t user_data = entry.user_data;
    const std::uint64_t len = entry.len;
    auto complete = [this, user_data, len](IoStatus status) {
      Completion c;
      c.user_data = user_data;
      c.op = SubmitEntry::Op::kOutput;
      c.status = status;
      c.bytes = status == IoStatus::kOk ? len : 0;
      PushCompletion(c);
    };
    if (st == nullptr) {
      complete(IoStatus::kPeerCrashed);  // Refused: the node is crashed.
      continue;
    }
    st->on_complete = complete;
    const IoStatus prep = co_await RunOutputPrepare(st);
    if (prep != IoStatus::kOk) {
      FinishOperation();
      continue;
    }
    std::move(TransmitAndDispose(st)).Detach();
  }
  node_->cpu().Release();
  co_return launched;
}

IoStatus Endpoint::PrepareOutput(OutputState& st, Charges& ch) {
  AddressSpace& app = *st.app;
  PhysicalMemory& pm = app.vm().pm();
  const Semantics s = st.effective;
  const Vaddr va = st.va;
  const std::uint64_t len = st.len;
  Region* region = app.FindRegion(va);
  GENIE_CHECK(region != nullptr && va + len <= region->end()) << "bad output buffer";
  if (IsSystemAllocated(s)) {
    // Output with system-allocated semantics is allowed only on moved-in
    // regions (Section 2.1): deallocating an unmovable region (heap/stack)
    // would open inconsistent gaps.
    GENIE_CHECK(region->state == RegionState::kMovedIn)
        << "system-allocated output requires a moved-in region";
    st.region_start = region->start;
  }

  if (s == Semantics::kCopy) {
    // Allocate system buffer; copyin output data. Under memory pressure
    // the pageout daemon makes room first.
    if (!node_->TryEnsureFreeFrames(CeilPages(len, pm.page_size())) ||
        !TryAllocateSysBuffer(pm, 0, len, &st.sysbuf)) {
      return IoStatus::kNoMemory;
    }
    // Single-pass copyin, with the transport checksum folded in when one
    // is wanted (reference [7]): the data is read exactly once.
    InternetChecksum sum;
    const bool fuse = options_.checksum_mode != ChecksumMode::kNone;
    const AccessResult res = CopyinToIoVec(app, va, len, st.sysbuf.iov, fuse ? &sum : nullptr);
    if (res != AccessResult::kOk) {
      // A source page could not be faulted in (injected allocation or
      // backing failure); release the system buffer and fail the output.
      FreeSysBuffer(pm, st.sysbuf);
      return IoStatus::kIoError;
    }
    if (fuse) {
      st.fused_header = sum.value();
      st.has_fused_header = true;
    }
    for (const FrameId f : st.sysbuf.frames) {
      pm.AddOutputRef(f);
    }
    ch.Add(OpKind::kOverlayAllocate, 0);  // System buffer allocation.
    ch.Add(OpKind::kCopyin, len);
    st.wire = st.sysbuf.iov;
    return IoStatus::kOk;
  }

  // Every other semantics outputs the application pages in place.
  // ReferenceRange unwinds itself on a mid-run page-in failure.
  if (ReferenceRange(app, va, len, IoDirection::kOutput, &st.ref) != AccessResult::kOk) {
    return IoStatus::kIoError;
  }
  ch.Add(OpKind::kReference, len);
  // A basic semantics wires before it marks or invalidates the region; the
  // ablation's wire of an emulated one stays the phase's last step.
  const bool wires = Wires(s, options_);
  auto wire = [&] {
    for (const FrameId f : st.ref.frames) {
      pm.Wire(f);
    }
    st.wired = true;
    ch.Add(OpKind::kWire, len);
  };
  if (IsStrongIntegrity(s) && IsApplicationAllocated(s)) {
    // TCOW arm: read-only application pages (Section 5.1).
    app.RemoveWrite(va, len);
    ch.Add(OpKind::kReadOnly, len);
  }
  if (wires && !IsEmulated(s)) {
    wire();
  }
  if (IsSystemAllocated(s)) {
    region->state = RegionState::kMovingOut;
    ch.Add(OpKind::kRegionMarkOut, 0);
  }
  if (IsStrongIntegrity(s) && IsSystemAllocated(s)) {
    // Strong move semantics: invalidate application pages so the data
    // cannot be observed or corrupted during output.
    app.RemoveAll(region->start, region->length);
    ch.Add(OpKind::kInvalidate, len);
  }
  if (wires && IsEmulated(s)) {
    wire();
  }
  st.wire = st.ref.iovec;
  return IoStatus::kOk;
}

void Endpoint::RecordSemanticsFallback(const std::string& xfer, std::string_view from,
                                       std::string_view to) {
  ++stats_.semantics_fallbacks;
  node_->reliable().RecordFallback(xfer, from, to);
}

IoStatus Endpoint::PrepareOutputWithFallback(OutputState& st, Charges& ch) {
  IoStatus prep = PrepareOutput(st, ch);
  while (prep != IoStatus::kOk && options_.enable_semantics_fallback) {
    const Semantics next = FallbackOf(st.effective, Semantics::kCopy);
    if (next == st.effective) {
      break;
    }
    RecordSemanticsFallback(st.xfer, SemanticsName(st.effective), SemanticsName(next));
    // The failed attempt unwound its own resources; drop the stale handles
    // before retrying with the demoted semantics.
    st.ref = IoReference{};
    st.sysbuf = SysBuffer{};
    st.has_fused_header = false;
    st.wire = IoVec{};
    st.effective = next;
    prep = PrepareOutput(st, ch);
  }
  if (prep == IoStatus::kOk && IsSystemAllocated(st.requested) &&
      !IsSystemAllocated(st.effective)) {
    // The demotion left the system-allocated family (move to copy): mark the
    // region moving-out now, so the application cannot start another
    // transfer from it, and settle it at dispose, honoring the move contract
    // despite the demotion.
    if (Region* region = st.app->RegionAt(st.region_start); region != nullptr) {
      region->state = RegionState::kMovingOut;
    }
    ch.Add(OpKind::kRegionMarkOut, 0);
  }
  return prep;
}

Task<void> Endpoint::TransmitAndDispose(std::shared_ptr<OutputState> st) {
  // Device setup, bus and network fixed latencies, then the wire transfer.
  // The transmit span covers DMA through the adapter completion.
  ReliableDelivery& reliable = node_->reliable();
  TraceScope transmit_span(node_->trace(), xfer_track_, st->xfer, ".transmit", st->flow);
  co_await Delay(node_->engine(), node_->Cost(OpKind::kHardwareFixed, 0));
  bool delivery_failed = false;
  bool watchdog_cancelled = false;
  bool peer_crashed = false;
  if (reliable.arq_enabled()) {
    auto token = std::make_shared<ReliableDelivery::CancelToken>();
    std::uint64_t watch_id = 0;
    bool watching = false;
    if (reliable.watchdog_enabled()) {
      watching = true;
      watch_id = reliable.Watch(st->xfer, [this, token] {
        if (token->resolved) {
          // The transfer already succeeded at this instant (ack and watchdog
          // scan landing together): report completion, not a cancel, so the
          // giveup/completed counters cannot both tick for one transfer.
          return ReliableDelivery::WatchVerdict::kCompleted;
        }
        if (token->cancelled) {
          return ReliableDelivery::WatchVerdict::kBusy;  // Unwind under way.
        }
        token->cancelled = true;
        // Kick the transfer out of whichever wait it is parked in: a credit
        // wait is aborted outright, an ack wait is woken to observe the
        // cancellation.
        if (token->ctl != nullptr) {
          node_->adapter().AbortCreditWait(channel_, token->ctl);
        }
        if (token->wake != nullptr) {
          token->wake->Set();
        }
        return ReliableDelivery::WatchVerdict::kCancelled;
      });
    }
    const ReliableDelivery::TxReport report = co_await reliable.TransmitReliably(
        channel_, st->wire, st->header, st->tag, st->xfer, token, st->flow, st->peer_epoch);
    if (watching) {
      reliable.Unwatch(watch_id);
    }
    delivery_failed = report.outcome != ReliableDelivery::TxOutcome::kDelivered;
    watchdog_cancelled = report.outcome == ReliableDelivery::TxOutcome::kCancelled;
    peer_crashed = report.outcome == ReliableDelivery::TxOutcome::kPeerCrashed;
  } else if (reliable.watchdog_enabled()) {
    // Unreliable transmit, but watched: a credit deadlock (flow control with
    // the peer never posting a receive) is broken by aborting the wait.
    auto ctl = std::make_shared<TxControl>();
    const std::uint64_t watch_id = reliable.Watch(st->xfer, [this, ctl] {
      return node_->adapter().AbortCreditWait(channel_, ctl)
                 ? ReliableDelivery::WatchVerdict::kCancelled
                 : ReliableDelivery::WatchVerdict::kBusy;
    });
    co_await node_->adapter().TransmitFrame(channel_, st->wire, st->header, st->tag, ctl,
                                            st->flow);
    reliable.Unwatch(watch_id);
    delivery_failed = ctl->aborted;
    watchdog_cancelled = ctl->aborted;
  } else {
    co_await node_->adapter().TransmitFrame(channel_, st->wire, st->header, st->tag,
                                            /*ctl=*/nullptr, st->flow);
  }
  transmit_span.End();
  if (delivery_failed) {
    // The data never reached the peer (retries exhausted or watchdog
    // cancelled); the send still disposes below — the sender-side unwind is
    // identical — but is accounted as failed-and-recovered.
    ++stats_.failed_outputs;
    ++stats_.recovered_transfers;
    if (watchdog_cancelled) {
      ++stats_.watchdog_cancels;
    }
  }

  // Transmit-complete: dispose on the sender CPU (overlapping the network
  // and receiver-side processing).
  co_await node_->cpu().Acquire();
  TraceScope dispose_span(node_->trace(), xfer_track_, st->xfer, ".dispose", st->flow);
  Charges charges;
  {
    ScopedTraceContext trace_ctx(node_->trace(), st->xfer);
    DisposeOutput(*st, charges);
  }
  for (const auto& [op, bytes] : charges) {
    co_await Charge(op, bytes);
  }
  dispose_span.End();
  output_latency_us_->Add(SimTimeToMicros(node_->engine().now() - st->started_at));
  node_->cpu().Release();
  FinishOperation();
  if (st->on_complete) {
    IoStatus status = IoStatus::kOk;
    if (delivery_failed) {
      status = peer_crashed      ? IoStatus::kPeerCrashed
               : watchdog_cancelled ? IoStatus::kCancelled
                                    : IoStatus::kIoError;
    }
    st->on_complete(status);
  }
}

void Endpoint::DisposeOutput(OutputState& st, Charges& ch) {
  AddressSpace& app = *st.app;
  PhysicalMemory& pm = app.vm().pm();
  const std::uint64_t len = st.len;

  if (st.wired) {
    for (const FrameId f : st.ref.frames) {
      pm.Unwire(f);
    }
    ch.Add(OpKind::kUnwire, len);
  }
  if (st.effective == Semantics::kCopy) {
    for (const FrameId f : st.sysbuf.frames) {
      pm.DropOutputRef(f);
    }
    FreeSysBuffer(pm, st.sysbuf);
  } else {
    Unreference(app.vm(), st.ref);
  }
  ch.Add(OpKind::kUnreference, len);
  if (IsSystemAllocated(st.requested)) {
    // The application gave the region up at the output call (a copy
    // fallback included). It was kept until now so its virtual addresses
    // are not reassigned during I/O; it is cached for a later input, or
    // removed.
    Region* region = app.RegionAt(st.region_start);
    if (CachesRegions(st.effective, options_)) {
      if (region != nullptr) {
        region->state = CachedRegionState(st.effective);
        app.EnqueueCachedRegion(region->start);
      }
      ch.Add(OpKind::kRegionMarkOut, 0);
    } else {
      if (region != nullptr) {
        app.RemoveRegion(st.region_start);
      }
      ch.Add(OpKind::kRegionRemove, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Input (Tables 3, 4 and Section 6.2.3)
// ---------------------------------------------------------------------------

Task<InputResult> Endpoint::Input(AddressSpace& app, Vaddr va, std::uint64_t len,
                                  Semantics sem) {
  GENIE_CHECK(IsApplicationAllocated(sem))
      << "Input() takes application-allocated semantics; use InputSystemAllocated";
  return InputCommon(app, va, len, sem);
}

Task<InputResult> Endpoint::InputSystemAllocated(AddressSpace& app, std::uint64_t len,
                                                 Semantics sem) {
  GENIE_CHECK(IsSystemAllocated(sem));
  return InputCommon(app, 0, len, sem);
}

Task<InputResult> Endpoint::InputCommon(AddressSpace& app, Vaddr va, std::uint64_t len,
                                        Semantics sem) {
  GENIE_CHECK_GT(len, 0u);
  GENIE_CHECK_LE(len, kMaxAal5Payload);
  if (node_->crashed()) {
    // Kernel I/O state is gone; fail fast without touching the VM.
    ++stats_.failed_inputs;
    InputResult result;
    result.ok = false;
    result.status = IoStatus::kPeerCrashed;
    result.completed_at = node_->engine().now();
    co_return result;
  }
  auto pi = std::make_shared<PendingInput>(node_->engine());
  pi->app = &app;
  pi->va = va;
  pi->len = len;
  pi->sem = sem;
  pi->mode = node_->adapter().rx_buffering();
  pi->xfer = XferLabel("in", sem);
  pi->started_at = node_->engine().now();

  ++stats_.inputs;
  ++pending_;

  co_await node_->cpu().Acquire();
  TraceScope prepare_span(node_->trace(), xfer_track_, pi->xfer, ".prepare");
  Charges charges;
  IoStatus prep;
  {
    ScopedTraceContext trace_ctx(node_->trace(), pi->xfer);
    prep = PrepareInputWithFallback(*pi, charges);
  }
  for (const auto& [op, bytes] : charges) {
    co_await Charge(op, bytes);
  }
  prepare_span.End();
  node_->cpu().Release();

  if (prep == IoStatus::kOk && node_->crashed()) {
    // The crash landed while prepare held the CPU (the crash unwind cannot
    // see an input that is not yet posted). Undo the prepare and fail, as
    // the crash unwind would have; PostReceive on a crashed adapter aborts.
    Charges discarded;
    UnwindInputResources(*pi, discarded);
    prep = IoStatus::kPeerCrashed;
  }
  if (prep != IoStatus::kOk) {
    // The input was never posted and holds nothing. The failure is reported
    // to the caller instead of aborting the kernel.
    FailInput(*pi, prep);
    pi->result.completed_at = node_->engine().now();
    FinishOperation();
    co_return pi->result;
  }

  pi->cancel_id = next_cancel_id_++;
  live_inputs_[pi->cancel_id] = pi;
  Adapter::PostedReceive posted;
  if (pi->mode == InputBuffering::kEarlyDemux) {
    posted.target = pi->target;  // Pooled and outboard devices never read it.
  }
  posted.cancel_id = pi->cancel_id;
  // Two plain pointers fit std::function's inline buffer. The input outlives
  // its posting: every path that ends a waiting input revokes it first.
  posted.on_complete = [this, input = pi.get()](RxCompletion c) {
    input->dispose_started = true;
    std::move(RunDispose(input->shared_from_this(), std::move(c))).Detach();
  };
  node_->adapter().PostReceive(channel_, std::move(posted));

  if (node_->reliable().watchdog_enabled()) {
    pi->watch_id =
        node_->reliable().Watch(pi->xfer, [this, pi] { return TryCancelStuckInput(pi); });
  }
  co_await pi->done.Wait();
  if (pi->watch_id != 0) {
    node_->reliable().Unwatch(pi->watch_id);
  }
  co_return pi->result;
}

IoStatus Endpoint::PrepareInputWithFallback(PendingInput& pi, Charges& ch) {
  IoStatus prep = PrepareInput(pi, ch);
  // The allocation family stays fixed: an application-allocated input must
  // deliver into the caller's buffer, a system-allocated one a moved-in
  // region.
  const Semantics floor = IsSystemAllocated(pi.sem) ? Semantics::kMove : Semantics::kCopy;
  while (prep != IoStatus::kOk && options_.enable_semantics_fallback) {
    const Semantics next = FallbackOf(pi.sem, floor);
    if (next == pi.sem) {
      break;
    }
    RecordSemanticsFallback(pi.xfer, SemanticsName(pi.sem), SemanticsName(next));
    // The failed attempt unwound its own resources (including resetting
    // pi.va for system-allocated regions); drop the stale handles and retry
    // demoted. Dispose follows pi.sem, so the downgrade carries through the
    // whole transfer automatically.
    pi.sysbuf = SysBuffer{};
    pi.has_sysbuf = false;
    pi.ref = IoReference{};
    pi.wired = false;
    pi.wired_frames.clear();
    pi.region_start = 0;
    pi.region_object.reset();
    pi.target = IoVec{};
    pi.sem = next;
    prep = PrepareInput(pi, ch);
  }
  return prep;
}

IoStatus Endpoint::PrepareInput(PendingInput& pi, Charges& ch) {
  AddressSpace& app = *pi.app;
  PhysicalMemory& pm = app.vm().pm();
  const std::uint32_t psz = pm.page_size();
  const std::uint64_t len = pi.len;

  switch (pi.sem) {
    case Semantics::kCopy:
    case Semantics::kMove: {
      // Ready-time system buffer (charged here: preposted input overlaps
      // ready-time work with the sender and the network). Basic move makes
      // its region from it at dispose time. Pooled devices need none: the
      // frame lands in overlay pages.
      if (pi.mode != InputBuffering::kPooled) {
        if (!node_->TryEnsureFreeFrames(CeilPages(len, psz)) ||
            !TryAllocateSysBuffer(pm, 0, len, &pi.sysbuf)) {
          return IoStatus::kNoMemory;
        }
        pi.has_sysbuf = true;
        pi.target = pi.sysbuf.iov;
        ch.Add(OpKind::kOverlayAllocate, 0);
      }
      break;
    }
    case Semantics::kEmulatedCopy: {
      // System input alignment (Section 5.2): the aligned buffer has the
      // same page offset and length as the application buffer. With
      // outboard devices no buffer is needed (Section 6.2.3).
      if (pi.mode == InputBuffering::kEarlyDemux) {
        const std::uint32_t offset =
            options_.enable_input_alignment ? static_cast<std::uint32_t>(pi.va % psz) : 0;
        if (options_.enable_semantics_fallback) {
          // Alignment degradation: when the aligned pool is exhausted, an
          // offset-0 buffer (one page smaller) may still fit; the dispose
          // then copies out instead of swapping, staying emulated copy.
          bool degraded = false;
          if (!TryAllocateSysBufferDegraded(
                  pm, offset, len, &pi.sysbuf, &degraded,
                  [this](std::uint64_t pages) {
                    return node_->TryEnsureFreeFrames(static_cast<std::size_t>(pages));
                  })) {
            return IoStatus::kNoMemory;
          }
          if (degraded) {
            RecordSemanticsFallback(pi.xfer, "aligned", "unaligned");
          }
        } else if (!node_->TryEnsureFreeFrames(
                       CeilPages(static_cast<std::uint64_t>(offset) + len, psz)) ||
                   !TryAllocateSysBuffer(pm, offset, len, &pi.sysbuf)) {
          return IoStatus::kNoMemory;
        }
        pi.has_sysbuf = true;
        pi.target = pi.sysbuf.iov;
        ch.Add(OpKind::kOverlayAllocate, 0);
      }
      break;
    }
    case Semantics::kShare:
    case Semantics::kEmulatedShare:
    case Semantics::kEmulatedMove:
    case Semantics::kWeakMove:
    case Semantics::kEmulatedWeakMove: {
      // In-place input: the device writes the pages the application gets,
      // its own buffer's or those of a region that stays moving-in until the
      // dispose. A system-allocated input first dequeues a cached region
      // (region caching / hiding) or creates one.
      Region* region = nullptr;
      bool from_cache = false;
      if (IsSystemAllocated(pi.sem)) {
        const std::uint64_t rlen = CeilPages(len, psz) * psz;
        if (CachesRegions(pi.sem, options_)) {
          region = app.DequeueCachedRegion(rlen, CachedRegionState(pi.sem));
          from_cache = region != nullptr;
        }
        if (from_cache) {
          ++stats_.region_cache_hits;
          ch.Add(OpKind::kRegionDequeue, 0);
        } else {
          ++stats_.region_cache_misses;
          const Vaddr addr = app.FindFreeRange(rlen);
          region = app.CreateRegion(addr, rlen, RegionState::kMovingIn);
          ch.Add(OpKind::kRegionCreate, 0);
        }
        region->state = RegionState::kMovingIn;
        pi.region_start = region->start;
        pi.region_object = region->object;
        pi.va = region->start;
      }
      if (ReferenceRange(app, pi.va, len, IoDirection::kInput, &pi.ref) != AccessResult::kOk) {
        if (region != nullptr) {
          // Unwind the prepared region: back to its cache if it came from
          // one (any pages it already holds stay with its object for reuse),
          // otherwise remove the fresh region entirely.
          if (from_cache) {
            region->state = CachedRegionState(pi.sem);
            app.EnqueueCachedRegion(region->start);
          } else {
            app.RemoveRegion(region->start);
          }
          pi.region_start = 0;
          pi.region_object.reset();
          pi.va = 0;
        }
        return IoStatus::kIoError;
      }
      ch.Add(OpKind::kReference, len);
      if (Wires(pi.sem, options_)) {
        WireRefFrames(pi);
        ch.Add(OpKind::kWire, len);
      }
      pi.target = pi.ref.iovec;
      break;
    }
  }
  return IoStatus::kOk;
}

void Endpoint::WireRefFrames(PendingInput& pi) {
  PhysicalMemory& pm = pi.app->vm().pm();
  for (const FrameId f : pi.ref.frames) {
    pm.Wire(f);
  }
  pi.wired_frames = pi.ref.frames;
  pi.wired = true;
}

void Endpoint::MapRegionPages(AddressSpace& app, Region& region) {
  const std::uint32_t psz = app.page_size();
  for (const auto& [index, frame] : region.object->pages()) {
    app.MapPage(region.start + index * psz, frame, Prot::kReadWrite);
  }
}

Region* Endpoint::CheckOrRemapRegion(PendingInput& pi, Charges& ch) {
  AddressSpace& app = *pi.app;
  Region* region = app.RegionAt(pi.region_start);
  if (region != nullptr && region->object == pi.region_object) {
    return region;
  }
  // The application (advertently or not) removed the prepared region during
  // input. The object survived via the I/O reference; map it into a fresh
  // region so the location information returned is correct (Section 6.2.1).
  ++stats_.regions_remapped_at_dispose;
  const std::uint64_t rlen = pi.region_object->num_pages() * app.page_size();
  const Vaddr addr = app.FindFreeRange(rlen);
  region = app.CreateRegionWithObject(addr, rlen, pi.region_object, RegionState::kMovingIn);
  pi.region_start = addr;
  ch.Add(OpKind::kRegionCreate, 0);
  return region;
}

// --- Early demultiplexed / outboard dispose (Table 3) ---

bool Endpoint::DisposeInputTable3(PendingInput& pi, std::uint64_t n, Charges& ch) {
  AddressSpace& app = *pi.app;
  PhysicalMemory& pm = app.vm().pm();
  InputResult& result = pi.result;
  bool ok = true;

  switch (pi.sem) {
    case Semantics::kCopy:
    case Semantics::kEmulatedCopy: {
      if (CopiesOut(pi)) {
        const DisposePlan plan = DisposeCopyOutIntoApp(app, pi.va, n, pi.sysbuf.iov);
        stats_.bytes_copied += plan.copied_bytes;
        ch.Add(OpKind::kCopyout, n);
        ok = plan.ok;
      } else if (pi.has_sysbuf) {
        const DisposePlan plan = DisposeAligned(pi, pi.va, n, pi.sysbuf, /*to_pool=*/false, ch);
        ok = plan.ok;
      } else {
        // Outboard (Section 6.2.3): no aligned buffer, no swap. The data was
        // DMAed straight into the referenced application pages.
        Unreference(app.vm(), pi.ref);
        ch.Add(OpKind::kUnreference, n);
      }
      FreeSysBuffer(pm, pi.sysbuf);
      result.addr = pi.va;
      break;
    }
    case Semantics::kShare:
    case Semantics::kEmulatedShare: {
      // Data arrived in place.
      if (pi.wired) {
        UnwireFrames(pi);
        ch.Add(OpKind::kUnwire, n);
      }
      Unreference(app.vm(), pi.ref);
      ch.Add(OpKind::kUnreference, n);
      result.addr = pi.va;
      break;
    }
    case Semantics::kMove: {
      result.addr = MoveIntoNewRegion(app, pi.sysbuf, n, OpKind::kRegionFill, ch);
      FreeSysBuffer(pm, pi.sysbuf);  // Frames beyond the region's, if any.
      break;
    }
    case Semantics::kEmulatedMove:
    case Semantics::kEmulatedWeakMove: {
      Region* region = CheckOrRemapRegion(pi, ch);
      Unreference(app.vm(), pi.ref);
      MapRegionPages(app, *region);  // Reinstate page accesses.
      region->state = RegionState::kMovedIn;
      // One combined op; hidden (strong) regions also pay the reinstate.
      ch.Add(IsStrongIntegrity(pi.sem) ? OpKind::kRegionCheckUnrefReinstateMarkIn
                                       : OpKind::kRegionCheckUnrefMarkIn,
             n);
      result.addr = region->start;
      break;
    }
    case Semantics::kWeakMove: {
      Region* region = CheckOrRemapRegion(pi, ch);
      ch.Add(OpKind::kRegionCheck, 0);
      UnwireFrames(pi);
      ch.Add(OpKind::kUnwire, n);
      Unreference(app.vm(), pi.ref);
      ch.Add(OpKind::kUnreference, n);
      MapRegionPages(app, *region);
      region->state = RegionState::kMovedIn;
      ch.Add(OpKind::kRegionMarkIn, 0);
      result.addr = region->start;
      break;
    }
  }
  if (pi.wired) {
    // Ablation wiring of emulated semantics (input-disabled pageout off).
    UnwireFrames(pi);
    ch.Add(OpKind::kUnwire, n);
  }
  return ok;
}

Vaddr Endpoint::MoveIntoNewRegion(AddressSpace& app, SysBuffer& src, std::uint64_t n,
                                  OpKind fill_op, Charges& ch) {
  PhysicalMemory& pm = app.vm().pm();
  const std::uint32_t psz = pm.page_size();
  const std::uint64_t pages = CeilPages(n, psz);
  const std::uint64_t rlen = pages * psz;
  const Vaddr addr = app.FindFreeRange(rlen);
  Region* region = app.CreateRegion(addr, rlen, RegionState::kMovedIn);
  ch.Add(OpKind::kRegionCreate, 0);
  // Zero the tail of the last page (protection: frames may carry other
  // processes' residue).
  if (n < rlen) {
    auto data = pm.Data(src.frames[pages - 1]);
    std::memset(data.data() + (n - (pages - 1) * psz), 0, static_cast<std::size_t>(rlen - n));
  }
  ch.Add(OpKind::kZeroFill, rlen - n);
  for (std::uint64_t i = 0; i < pages; ++i) {
    region->object->InsertPage(i, src.frames[i]);
    src.frames[i] = kInvalidFrame;  // Donated to the region.
  }
  ch.Add(fill_op, n);
  MapRegionPages(app, *region);
  ch.Add(OpKind::kRegionMap, n);
  return addr;
}

void Endpoint::UnwireFrames(PendingInput& pi) {
  PhysicalMemory& pm = pi.app->vm().pm();
  for (const FrameId f : pi.wired_frames) {
    pm.Unwire(f);
  }
  pi.wired_frames.clear();
  pi.wired = false;
}

// --- Pooled dispose (Table 4) ---

bool Endpoint::DisposeInputTable4(PendingInput& pi, SysBuffer& overlay, std::uint64_t n,
                                  Charges& ch) {
  AddressSpace& app = *pi.app;
  PhysicalMemory& pm = app.vm().pm();
  BufferPool& pool = *node_->adapter().pool();
  const std::uint32_t psz = pm.page_size();
  InputResult& result = pi.result;
  bool ok = true;

  auto release_overlay_to_pool = [&] {
    for (FrameId& f : overlay.frames) {
      if (f != kInvalidFrame) {
        pool.Free(f);
        f = kInvalidFrame;
      }
    }
  };

  switch (pi.sem) {
    case Semantics::kCopy:
    case Semantics::kEmulatedCopy:
    case Semantics::kShare:
    case Semantics::kEmulatedShare: {
      if (CopiesOut(pi)) {
        const DisposePlan plan = DisposeCopyOutIntoApp(app, pi.va, n, overlay.iov);
        stats_.bytes_copied += plan.copied_bytes;
        ch.Add(OpKind::kCopyout, n);
        ok = plan.ok;
      } else {
        ok = DisposeAligned(pi, pi.va, n, overlay, /*to_pool=*/true, ch).ok;
      }
      release_overlay_to_pool();
      ch.Add(OpKind::kOverlayDeallocate, n);
      if (pi.sem == Semantics::kShare || pi.sem == Semantics::kEmulatedShare) {
        if (pi.wired) {
          // The in-place frames referenced at prepare may have been swapped
          // out of the object; unwire the originally wired frames.
          UnwireFrames(pi);
          ch.Add(OpKind::kUnwire, n);
        }
        Unreference(app.vm(), pi.ref);
        ch.Add(OpKind::kUnreference, n);
      }
      result.addr = pi.va;
      break;
    }
    case Semantics::kMove: {
      result.addr = MoveIntoNewRegion(app, overlay, n, OpKind::kRegionFillOverlayRefill, ch);
      pool.Refill(CeilPages(n, psz));  // In place of the donated pages.
      release_overlay_to_pool();       // Pages beyond the region's, if any.
      ch.Add(OpKind::kOverlayDeallocate, n);
      break;
    }
    case Semantics::kEmulatedMove:
    case Semantics::kWeakMove:
    case Semantics::kEmulatedWeakMove: {
      Region* region = CheckOrRemapRegion(pi, ch);
      ch.Add(OpKind::kRegionCheck, 0);
      if (pi.wired) {
        UnwireFrames(pi);
        ch.Add(OpKind::kUnwire, n);
      }
      Unreference(app.vm(), pi.ref);
      ch.Add(OpKind::kUnreference, n);
      // Swap overlay pages into the region; displaced region pages refill
      // the pool.
      ok = DisposeAligned(pi, region->start, n, overlay, /*to_pool=*/true, ch).ok;
      release_overlay_to_pool();
      MapRegionPages(app, *region);
      region->state = RegionState::kMovedIn;
      ch.Add(OpKind::kRegionMarkIn, 0);
      ch.Add(OpKind::kOverlayDeallocate, n);
      result.addr = region->start;
      break;
    }
  }
  if (!pi.deferred_retire.empty()) {
    // Displaced frames that still carried I/O references or wiring at swap
    // time (the share-family input reference is dropped only after the
    // swap). Those are released now, so the frames can go back to physical
    // memory — deferred if a straggler (e.g. a delayed output completion)
    // still references them — and the pool is replenished in their stead.
    for (const FrameId f : pi.deferred_retire) {
      pm.Free(f);
    }
    pool.Refill(pi.deferred_retire.size());
    pi.deferred_retire.clear();
  }
  return ok;
}

DisposePlan Endpoint::DisposeAligned(PendingInput& pi, Vaddr va, std::uint64_t n,
                                     SysBuffer& src, bool to_pool, Charges& ch) {
  AddressSpace& app = *pi.app;
  PhysicalMemory& pm = app.vm().pm();
  std::function<void(FrameId)> retire;
  if (to_pool) {
    BufferPool* pool = node_->adapter().pool();
    retire = [&pi, &pm, pool](FrameId f) {
      // A displaced frame may still carry I/O references or wiring (a share
      // input's own reference is dropped only after the swap; a concurrent
      // delayed output may still source from it). Handing such a frame to
      // the device pool would let a new arrival DMA into memory another
      // party still reads — defer its retirement instead.
      if (pm.HasIoRefs(f) || pm.info(f).wire_count > 0) {
        pi.deferred_retire.push_back(f);
      } else {
        pool->Free(f);
      }
    };
  }
  const DisposePlan plan =
      DisposeAlignedIntoApp(app, va, n, src, options_.reverse_copyout_threshold, retire);
  if (to_pool && plan.swaps_without_displaced > 0) {
    // Swaps into untouched pages displaced no frame to give back to the
    // pool; replenish it with fresh frames to avoid depletion.
    node_->adapter().pool()->Refill(plan.swaps_without_displaced);
  }
  stats_.pages_swapped += plan.pages_swapped;
  stats_.reverse_copyouts += plan.reverse_copyouts;
  stats_.bytes_swapped += plan.swapped_bytes;
  stats_.bytes_copied += plan.copied_bytes;
  if (plan.swapped_bytes > 0) {
    ch.Add(OpKind::kSwap, plan.swapped_bytes);
  }
  if (plan.copied_bytes > 0) {
    ch.Add(OpKind::kCopyout, plan.copied_bytes);
  }
  return plan;
}

void Endpoint::UnwindInputResources(PendingInput& pi, Charges& ch) {
  AddressSpace& app = *pi.app;
  PhysicalMemory& pm = app.vm().pm();
  if (pi.has_sysbuf) {
    // Strong semantics: the application buffer was never touched; simply
    // discard the system buffer.
    FreeSysBuffer(pm, pi.sysbuf);
    pi.has_sysbuf = false;
  }
  if (pi.wired) {
    UnwireFrames(pi);
    ch.Add(OpKind::kUnwire, 0);
  }
  if (pi.ref.active) {
    Unreference(app.vm(), pi.ref);
    ch.Add(OpKind::kUnreference, 0);
  }
  if (pi.region_object != nullptr) {
    // Return the prepared region to its cache; the application never saw it.
    if (Region* region = app.RegionAt(pi.region_start);
        region != nullptr && region->object == pi.region_object) {
      region->state = CachedRegionState(pi.sem);
      app.EnqueueCachedRegion(region->start);
    }
  }
}

void Endpoint::FailInput(PendingInput& pi, IoStatus status) {
  pi.result.ok = false;
  pi.result.status = status;
  ++stats_.failed_inputs;
  ++stats_.recovered_transfers;
}

ReliableDelivery::WatchVerdict Endpoint::TryCancelStuckInput(
    const std::shared_ptr<PendingInput>& pi) {
  if (pi->result.completed_at != 0 || pi->done.is_set()) {
    return ReliableDelivery::WatchVerdict::kCompleted;  // Raced its completion.
  }
  if (!node_->adapter().CancelPostedReceive(channel_, pi->cancel_id)) {
    // The posting was consumed: a frame is mid-delivery into it. The
    // completion handler owns the input now; extend the deadline.
    return ReliableDelivery::WatchVerdict::kBusy;
  }
  ++stats_.watchdog_cancels;
  AbortWaitingInput(*pi, IoStatus::kCancelled, " watchdog cancelled", "reliable");
  return ReliableDelivery::WatchVerdict::kCancelled;
}

void Endpoint::AbortWaitingInput(PendingInput& pi, IoStatus status, const char* why,
                                 const char* category) {
  // Runs outside the CPU resource and charges nothing: aborting is
  // control-plane work off the measured data path.
  Charges discarded;
  UnwindInputResources(pi, discarded);
  FailInput(pi, status);
  if (TraceLog* trace = node_->trace(); trace != nullptr) {
    trace->Instant(xfer_track_, pi.xfer + why, category, node_->engine().now());
  }
  CompleteInput(pi);
}

void Endpoint::CrashAbort() {
  // Inputs whose dispose already claimed them run to completion (the device
  // has handed their frames over); everything else waiting for data is
  // unwound. Collect first — failing an input erases it from live_inputs_.
  std::vector<std::shared_ptr<PendingInput>> victims;
  for (const auto& [id, pi] : live_inputs_) {
    if (!pi->dispose_started) {
      victims.push_back(pi);
    }
  }
  for (const auto& pi : victims) {
    AbortWaitingInput(*pi, IoStatus::kPeerCrashed, " crash aborted", "crash");
  }
}

Endpoint::ChecksumVerdict Endpoint::VerifyChecksum(PendingInput& pi, const RxCompletion& frame,
                                                   const SysBuffer& overlay, std::uint64_t n,
                                                   Charges& ch) {
  ChecksumVerdict verdict;
  if (options_.checksum_mode == ChecksumMode::kNone || n == 0) {
    return verdict;
  }
  std::uint16_t computed = 0;
  bool integrable = false;
  if (pi.mode == InputBuffering::kOutboard) {
    // The frame is still in adapter memory; the host DMA that moves it out
    // can carry the checksum whatever the semantics.
    computed = ChecksumOf(node_->adapter()
                              .OutboardData(frame.outboard_handle)
                              .subspan(0, static_cast<std::size_t>(n)));
    integrable = true;
  } else {
    const IoVec& landed = pi.mode == InputBuffering::kPooled ? overlay.iov : pi.target;
    computed = ChecksumOfIoVec(pi.app->vm().pm(), landed, n);
    // Integration with the final copy is only possible on copy-out dispose
    // paths; swap and in-place paths always use a separate read pass (paper
    // Section 9: with a system buffer involved, passing by VM manipulation
    // and then reading the data costs less than a one-step
    // checksum-and-copy).
    integrable = CopiesOut(pi);
  }
  verdict.verified_ok = computed == static_cast<std::uint16_t>(frame.header);
  verdict.integrated = options_.checksum_mode == ChecksumMode::kIntegrated && integrable;
  ch.Add(verdict.integrated ? OpKind::kChecksumIntegrated : OpKind::kChecksumRead, n);
  return verdict;
}

bool Endpoint::CopiesOut(const PendingInput& pi) const {
  const std::uint32_t offset = pi.va % pi.app->vm().page_size();
  const bool pooled = pi.mode == InputBuffering::kPooled;
  switch (pi.sem) {
    case Semantics::kCopy:
      return true;
    case Semantics::kEmulatedCopy:
      return pooled ? offset != 0 : pi.has_sysbuf && pi.sysbuf.page_offset != offset;
    case Semantics::kShare:
    case Semantics::kEmulatedShare:
      return pooled && offset != 0;
    default:
      return false;
  }
}

// --- Input dispose, every buffering architecture ---

SysBuffer Endpoint::OverlayBuffer(std::vector<FrameId> pages, std::uint64_t bytes) const {
  SysBuffer overlay;
  overlay.frames = std::move(pages);
  overlay.length = bytes;
  overlay.iov.segments.reserve(overlay.frames.size());
  std::uint64_t remaining = bytes;
  for (const FrameId f : overlay.frames) {
    const std::uint32_t seg = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(node_->vm().page_size(), remaining));
    overlay.iov.segments.push_back(IoSegment{f, 0, seg});
    remaining -= seg;
  }
  return overlay;
}

bool Endpoint::ReferenceOutboardTarget(PendingInput& pi, std::uint64_t n) {
  // Referencing may fault the application buffer in (page-in/zero-fill).
  ScopedTraceContext trace_ctx(node_->trace(), pi.xfer);
  if (ReferenceRange(*pi.app, pi.va, n, IoDirection::kInput, &pi.ref) == AccessResult::kOk) {
    return true;
  }
  // The application buffer could not be pinned (page-in or allocation
  // failed): the staged data never leaves adapter memory.
  FailInput(pi, IoStatus::kIoError);
  return false;
}

void Endpoint::DmaOutboardFrame(PendingInput& pi, const RxCompletion& frame, std::uint64_t n) {
  const IoVec& target = pi.sem == Semantics::kEmulatedCopy ? pi.ref.iovec : pi.target;
  WriteToIoVec(pi.app->vm().pm(), target, 0,
               node_->adapter().OutboardData(frame.outboard_handle)
                   .subspan(0, static_cast<std::size_t>(n)));
}

Task<void> Endpoint::RunDispose(std::shared_ptr<PendingInput> pi, RxCompletion frame) {
  const std::uint64_t n = std::min<std::uint64_t>(frame.bytes, pi->len);
  pi->flow = frame.flow;
  co_await node_->cpu().Acquire();
  TraceScope dispose_span(node_->trace(), xfer_track_, pi->xfer, ".dispose", pi->flow);
  co_await Charge(OpKind::kReceiverKernelFixed, 0);
  pi->result.crc_ok = frame.crc_ok;
  SysBuffer overlay;
  if (pi->mode == InputBuffering::kPooled) {
    // Ready-time operations (Table 4): overlay allocation happened at
    // arrival in the device; the kernel-side costs land here, on the
    // critical path. The overlay pages become an offset-0 source buffer.
    co_await Charge(OpKind::kOverlayAllocate, 0);
    co_await Charge(OpKind::kOverlay, 0);
    overlay = OverlayBuffer(std::move(frame.overlay_pages), frame.bytes);
  }
  Charges charges;
  ChecksumVerdict verdict;
  if (frame.crc_ok) {
    verdict = VerifyChecksum(*pi, frame, overlay, n, charges);
    pi->result.checksum_ok = verdict.verified_ok;
  }
  // A separate-pass mismatch fails the input like a CRC error, before any
  // data reaches the application buffer (strong semantics intact). An
  // integrated mismatch surfaces only after the data got there: the dispose
  // runs and the input is not ok (weak behavior, the Section 9 implication).
  const bool failed = !frame.crc_ok || (!verdict.verified_ok && !verdict.integrated);
  bool disposes = !failed;
  if (pi->mode == InputBuffering::kOutboard) {
    // The frame is still in adapter memory, where the checksum pass ran:
    // charge it before the unwind or the DMA. (Early demux and pooled verify
    // and dispose at one instant and charge both afterwards.)
    for (const auto& [op, bytes] : charges) {
      co_await Charge(op, bytes);
    }
    charges = Charges{};
    if (disposes && pi->sem == Semantics::kEmulatedCopy) {
      // Section 6.2.3: the DMA target is the application buffer itself.
      disposes = ReferenceOutboardTarget(*pi, n);
      if (disposes) {
        co_await Charge(OpKind::kReference, n);
      }
    }
    if (disposes) {
      node_->cpu().Release();
      co_await Delay(node_->engine(), node_->Cost(OpKind::kBusTransfer, n));
      DmaOutboardFrame(*pi, frame, n);
      co_await node_->cpu().Acquire();
    }
  }
  {
    ScopedTraceContext trace_ctx(node_->trace(), pi->xfer);
    if (failed) {
      for (const FrameId f : overlay.frames) {  // Pooled only: back to the pool.
        node_->adapter().pool()->Free(f);
      }
      ++stats_.crc_failures;
      UnwindInputResources(*pi, charges);
      FailInput(*pi, IoStatus::kIoError);
    } else if (disposes) {
      const bool usable = pi->mode == InputBuffering::kPooled
                              ? DisposeInputTable4(*pi, overlay, n, charges)
                              : DisposeInputTable3(*pi, n, charges);
      pi->result.ok = usable && verdict.verified_ok;
      pi->result.bytes = n;
      if (!usable) {
        FailInput(*pi, IoStatus::kIoError);
      }
    }
  }
  for (const auto& [op, bytes] : charges) {
    co_await Charge(op, bytes);
  }
  if (pi->mode == InputBuffering::kOutboard) {
    node_->adapter().FreeOutboard(frame.outboard_handle);
  }
  dispose_span.End();
  node_->cpu().Release();
  CompleteInput(*pi);
}

// ---------------------------------------------------------------------------
// Sender-managed buffer placement (Section 6.2.1)
// ---------------------------------------------------------------------------

std::uint32_t Endpoint::RegisterNamedBuffer(AddressSpace& app, Vaddr va, std::uint64_t len) {
  GENIE_CHECK(node_->adapter().rx_buffering() == InputBuffering::kEarlyDemux)
      << "sender-managed placement requires early demultiplexing";
  auto nb = std::make_shared<NamedBuffer>(node_->engine());
  nb->app = &app;
  nb->va = va;
  nb->len = len;
  // Pin the buffer with a long-lived input reference: the device may write
  // it at any time, and input-disabled pageout keeps it resident — the
  // moral equivalent of a non-pageable buffer area (Section 9).
  const AccessResult res = ReferenceRange(app, va, len, IoDirection::kInput, &nb->ref);
  GENIE_CHECK(res == AccessResult::kOk) << "bad named buffer";
  const std::uint32_t tag = next_tag_++;
  Adapter::PostedReceive posted;
  posted.target = nb->ref.iovec;
  posted.on_complete = [this, nb](const RxCompletion& c) {
    std::move(RunNamedArrival(nb, c)).Detach();
  };
  node_->adapter().RegisterNamedBuffer(channel_, tag, std::move(posted));
  named_buffers_[tag] = std::move(nb);
  return tag;
}

void Endpoint::UnregisterNamedBuffer(std::uint32_t tag) {
  auto it = named_buffers_.find(tag);
  GENIE_CHECK(it != named_buffers_.end()) << "unknown named buffer tag " << tag;
  node_->adapter().UnregisterNamedBuffer(channel_, tag);
  Unreference(it->second->app->vm(), it->second->ref);
  it->second->ready.Set();  // Release any stranded waiter (sees no arrival).
  named_buffers_.erase(it);
}

Task<InputResult> Endpoint::ReceiveNamed(std::uint32_t tag) {
  auto it = named_buffers_.find(tag);
  GENIE_CHECK(it != named_buffers_.end()) << "unknown named buffer tag " << tag;
  std::shared_ptr<NamedBuffer> nb = it->second;
  while (nb->arrivals.empty()) {
    nb->ready.Reset();
    co_await nb->ready.Wait();
    if (!nb->ref.active) {
      co_return InputResult{};  // Unregistered while waiting.
    }
  }
  const InputResult result = nb->arrivals.front();
  nb->arrivals.pop_front();
  co_return result;
}

Task<void> Endpoint::RunNamedArrival(std::shared_ptr<NamedBuffer> nb,
                                     RxCompletion completion) {
  // The cheapest possible receive path: interrupt processing and a
  // notification. No per-datagram buffer management at all.
  co_await node_->cpu().Acquire();
  co_await Charge(OpKind::kReceiverKernelFixed, 0);
  InputResult result;
  result.crc_ok = completion.crc_ok;
  result.bytes = std::min<std::uint64_t>(completion.bytes, nb->len);
  result.addr = nb->va;
  result.ok = completion.crc_ok;
  if (options_.checksum_mode != ChecksumMode::kNone && completion.crc_ok &&
      result.bytes > 0) {
    const std::uint16_t computed =
        ChecksumOfIoVec(nb->app->vm().pm(), nb->ref.iovec, result.bytes);
    result.checksum_ok = computed == static_cast<std::uint16_t>(completion.header);
    co_await Charge(OpKind::kChecksumRead, result.bytes);
    // The data is already in place (weak integrity by construction); a
    // mismatch can only be reported, not undone.
    result.ok = result.ok && result.checksum_ok;
  }
  result.completed_at = node_->engine().now();
  node_->cpu().Release();
  nb->arrivals.push_back(result);
  nb->ready.Set();
}

// ---------------------------------------------------------------------------
// System-allocated buffer API (Section 2.1)
// ---------------------------------------------------------------------------

Vaddr Endpoint::AllocateIoBuffer(AddressSpace& app, std::uint64_t len) {
  const std::uint32_t psz = app.page_size();
  const std::uint64_t rlen = CeilPages(len, psz) * psz;
  const Vaddr addr = app.FindFreeRange(rlen);
  app.CreateRegion(addr, rlen, RegionState::kMovedIn);
  return addr;
}

void Endpoint::FreeIoBuffer(AddressSpace& app, Vaddr start) {
  Region* region = app.RegionAt(start);
  GENIE_CHECK(region != nullptr) << "freeing unknown I/O buffer";
  GENIE_CHECK(region->state == RegionState::kMovedIn ||
              region->state == RegionState::kMovedOut ||
              region->state == RegionState::kWeaklyMovedOut)
      << "freeing I/O buffer with pending I/O";
  app.RemoveRegion(start);
}

}  // namespace genie
