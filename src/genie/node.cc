#include "src/genie/node.h"

#include <algorithm>

#include "src/genie/endpoint.h"
#include "src/vm/invariants.h"

namespace genie {

namespace {

Adapter::Config AdapterConfig(const Node::Config& config) {
  Adapter::Config ac;
  ac.rx_buffering = config.rx_buffering;
  ac.pool_pages = config.pool_pages;
  ac.chunk_bytes = config.profile.page_size;
  ac.flow_control = config.flow_control;
  return ac;
}

}  // namespace

Node::Node(Engine& engine, std::string name, Config config)
    : engine_(&engine),
      name_(std::move(name)),
      cost_(config.profile),
      vm_(config.mem_frames, config.profile.page_size),
      cpu_(engine, name_ + ".cpu"),
      adapter_(engine, vm_.pm(), cost_, name_ + ".nic", AdapterConfig(config)),
      reliable_(std::make_unique<ReliableDelivery>(engine, adapter_, name_ + ".xfer")),
      pageout_(vm_) {
  vm_.set_low_memory_reclaimer([this](std::size_t want) { pageout_.EvictUntilFree(want); });
  if (config.model_driver_work) {
    adapter_.SetDriverWork(&cpu_, &cpu_,
                           cost_.Line(OpKind::kDriverPerByte).slope_us_per_byte);
  }
  reliable_->set_metrics(&metrics_);
  RegisterComponentGauges();
}

void Node::RegisterComponentGauges() {
  const PhysicalMemory& pm = vm_.pm();
  metrics_.RegisterGauge("mem.free_frames", [&pm] { return std::uint64_t{pm.free_frames()}; });
  metrics_.RegisterGauge("mem.allocated_frames",
                         [&pm] { return std::uint64_t{pm.allocated_frames()}; });
  metrics_.RegisterGauge("mem.zombie_frames",
                         [&pm] { return std::uint64_t{pm.zombie_frames()}; });
  metrics_.RegisterGauge("mem.total_allocations", [&pm] { return pm.total_allocations(); });
  metrics_.RegisterGauge("mem.deferred_frees", [&pm] { return pm.deferred_frees(); });
  metrics_.RegisterGauge("mem.completed_deferred_frees",
                         [&pm] { return pm.completed_deferred_frees(); });

  const BackingStore& backing = vm_.backing();
  metrics_.RegisterGauge("backing.stored_pages",
                         [&backing] { return std::uint64_t{backing.stored_pages()}; });
  metrics_.RegisterGauge("backing.total_pageouts",
                         [&backing] { return backing.total_pageouts(); });
  metrics_.RegisterGauge("backing.total_pageins",
                         [&backing] { return backing.total_pageins(); });
  metrics_.RegisterGauge("backing.failed_saves", [&backing] { return backing.failed_saves(); });
  metrics_.RegisterGauge("backing.failed_restores",
                         [&backing] { return backing.failed_restores(); });

  // Pageout pressure: evictions performed and pages the daemon had to skip.
  const PageoutDaemon& pd = pageout_;
  metrics_.RegisterGauge("pageout.total_evictions", [&pd] { return pd.total_evictions(); });
  metrics_.RegisterGauge("pageout.skipped_input_referenced",
                         [&pd] { return pd.skipped_input_referenced(); });
  metrics_.RegisterGauge("pageout.skipped_wired", [&pd] { return pd.skipped_wired(); });
  metrics_.RegisterGauge("pageout.failed_pageout_writes",
                         [&pd] { return pd.failed_pageout_writes(); });

  const Adapter& nic = adapter_;
  metrics_.RegisterGauge("nic.frames_sent", [&nic] { return nic.frames_sent(); });
  metrics_.RegisterGauge("nic.frames_received", [&nic] { return nic.frames_received(); });
  metrics_.RegisterGauge("nic.frames_dropped_no_buffer",
                         [&nic] { return nic.frames_dropped_no_buffer(); });
  metrics_.RegisterGauge("nic.rx_crc_errors", [&nic] { return nic.rx_crc_errors(); });
  metrics_.RegisterGauge("nic.rx_truncated_frames",
                         [&nic] { return nic.rx_truncated_frames(); });
  // Drop causes, split out so "frames_dropped_no_buffer went up" is
  // diagnosable from a metrics snapshot alone.
  metrics_.RegisterGauge("nic.drops_no_posted_buffer",
                         [&nic] { return nic.drops_no_posted_buffer(); });
  metrics_.RegisterGauge("nic.drops_pool_exhausted",
                         [&nic] { return nic.drops_pool_exhausted(); });
  metrics_.RegisterGauge("nic.drops_outboard_overflow",
                         [&nic] { return nic.drops_outboard_overflow(); });
  metrics_.RegisterGauge("nic.rx_duplicate_frames",
                         [&nic] { return nic.rx_duplicate_frames(); });
  metrics_.RegisterGauge("nic.acks_sent", [&nic] { return nic.acks_sent(); });
  metrics_.RegisterGauge("nic.nacks_sent", [&nic] { return nic.nacks_sent(); });
  metrics_.RegisterGauge("nic.link_frames_dropped", [&nic] { return nic.link_frames_dropped(); });
  metrics_.RegisterGauge("nic.link_frames_duplicated",
                         [&nic] { return nic.link_frames_duplicated(); });
  metrics_.RegisterGauge("nic.link_frames_reordered",
                         [&nic] { return nic.link_frames_reordered(); });

  const ReliableDelivery& rel = *reliable_;
  metrics_.RegisterGauge("reliable.sequenced_frames",
                         [&rel] { return rel.stats().sequenced_frames; });
  metrics_.RegisterGauge("reliable.retransmits", [&rel] { return rel.stats().retransmits; });
  metrics_.RegisterGauge("reliable.timeouts", [&rel] { return rel.stats().timeouts; });
  metrics_.RegisterGauge("reliable.acks", [&rel] { return rel.stats().acks; });
  metrics_.RegisterGauge("reliable.nacks", [&rel] { return rel.stats().nacks; });
  metrics_.RegisterGauge("reliable.giveups", [&rel] { return rel.stats().giveups; });
  metrics_.RegisterGauge("reliable.fallbacks", [&rel] { return rel.stats().fallbacks; });
  metrics_.RegisterGauge("reliable.watchdog_cancels",
                         [&rel] { return rel.stats().watchdog_cancels; });
  metrics_.RegisterGauge("reliable.watchdog_scans",
                         [&rel] { return rel.stats().watchdog_scans; });

  // Crash-stop recovery observability. All of these read zero on a healthy
  // run, so snapshots (zero-omitting JSON) are unchanged unless crashes,
  // fencing, or link flaps actually happened.
  metrics_.RegisterGauge("node.crashes", [this] { return crashes_; });
  metrics_.RegisterGauge("reliable.epoch_bumps", [&rel] { return rel.stats().epoch_bumps; });
  metrics_.RegisterGauge("reliable.resyncs", [&rel] { return rel.stats().resyncs; });
  metrics_.RegisterGauge("reliable.peer_crash_aborts",
                         [&rel] { return rel.stats().peer_crash_aborts; });
  metrics_.RegisterGauge("reliable.stale_epoch_drops",
                         [&nic] { return nic.stale_epoch_drops(); });
  metrics_.RegisterGauge("nic.crash_frame_drops", [&nic] { return nic.crash_frame_drops(); });
  metrics_.RegisterGauge("nic.crash_cell_drops", [&nic] { return nic.crash_cell_drops(); });
  metrics_.RegisterGauge("nic.fences_sent", [&nic] { return nic.fences_sent(); });
  metrics_.RegisterGauge("nic.resyncs_sent", [&nic] { return nic.resyncs_sent(); });
  metrics_.RegisterGauge("nic.link_down_drops", [&nic] { return nic.link_down_drops(); });

  // Telemetry rate sources and occupancy gauges. Pool occupancy reads the
  // receive pool directly (exact between events); on a node without an
  // outboard pool both read 0 and the zero-omitting snapshot is unchanged.
  metrics_.RegisterGauge("reliable.delivered_frames",
                         [&rel] { return rel.stats().delivered_frames; });
  metrics_.RegisterGauge("reliable.delivered_bytes",
                         [&rel] { return rel.stats().delivered_bytes; });
  metrics_.RegisterGauge("nic.pool_free_pages", [this] {
    BufferPool* pool = adapter_.pool();
    return pool == nullptr ? 0 : static_cast<std::uint64_t>(pool->available());
  });
  metrics_.RegisterGauge("nic.pool_capacity", [this] {
    BufferPool* pool = adapter_.pool();
    return pool == nullptr ? 0 : static_cast<std::uint64_t>(pool->capacity());
  });
  // Trace-ring overflow: nonzero means a telemetry/trace series was
  // truncated — exported so truncation can never pass silently.
  metrics_.RegisterGauge("trace.dropped_events",
                         [this] { return trace_ == nullptr ? 0 : trace_->dropped_events(); });
}

void Node::Crash() {
  GENIE_CHECK(!crashed_) << name_ << ": Crash() on an already-crashed node";
  if (trace_ != nullptr) {
    trace_->Instant(name_ + ".xfer", "crash -> e" + std::to_string(epoch_ + 1), "crash",
                    engine_->now());
  }
  // The observer fires BEFORE any state is discarded so a flight recorder
  // can dump the victim's trace ring with its final pre-crash events intact.
  if (crash_observer_) {
    crash_observer_(epoch_ + 1);
  }
  crashed_ = true;
  ++epoch_;
  ++crashes_;
  // Wipe order matters: the adapter first (so endpoint/reliable unwinds
  // cannot accidentally transmit or re-post against live NIC state), then
  // endpoint-level waiting operations, then the reliable layer's in-flight
  // transfer bookkeeping.
  adapter_.Crash(epoch_);
  for (Endpoint* ep : endpoints_) {
    ep->CrashAbort();
  }
  reliable_->Crash(epoch_);
  // A crash discards I/O state, not correctness of what survives: every
  // unwound input must have returned its references, wirings, and
  // system-allocated regions to a consistent VM state.
  std::vector<AddressSpace*> spaces;
  spaces.reserve(processes_.size());
  for (const auto& p : processes_) {
    spaces.push_back(p.get());
  }
  InvariantReport report =
      VmInvariants::CheckAll(vm_, spaces, /*expect_quiescent=*/false);
  GENIE_CHECK(report.violations.empty())
      << name_ << ": VM invariants violated by crash unwind: "
      << report.violations.front();
}

void Node::Restart() {
  GENIE_CHECK(crashed_) << name_ << ": Restart() on a node that is not crashed";
  crashed_ = false;
  adapter_.Restart();
  reliable_->OnRestart();
  if (trace_ != nullptr) {
    trace_->Instant(name_ + ".xfer", "restart e" + std::to_string(epoch_), "crash",
                    engine_->now());
  }
  if (restart_observer_) {
    restart_observer_(epoch_);
  }
}

void Node::ArmCrashInjection(FaultPlan* plan, SimTime period, SimTime horizon,
                             SimTime restart_delay) {
  GENIE_CHECK(plan != nullptr);
  GENIE_CHECK(period > 0);
  ScheduleCrashTick(plan, period, horizon, restart_delay);
}

void Node::ScheduleCrashTick(FaultPlan* plan, SimTime period, SimTime horizon,
                             SimTime restart_delay) {
  if (engine_->now() + period > horizon) {
    return;  // past the injection window; let the run go quiescent
  }
  engine_->ScheduleAfter(period, [this, plan, period, horizon, restart_delay] {
    // A crashed node consults no rules until its restart lands; the op
    // counter therefore advances only over live instants, which keeps
    // nth-style rules meaningful across incarnations.
    if (!crashed_) {
      std::uint64_t arg = 0;
      if (plan->ShouldFail(FaultSite::kNodeCrash, &arg)) {
        Crash();
        const SimTime delay = arg != 0 ? static_cast<SimTime>(arg) : restart_delay;
        engine_->ScheduleAfter(delay, [this] { Restart(); });
      }
    }
    ScheduleCrashTick(plan, period, horizon, restart_delay);
  });
}

void Node::RegisterEndpoint(Endpoint* endpoint) { endpoints_.push_back(endpoint); }

void Node::UnregisterEndpoint(Endpoint* endpoint) {
  endpoints_.erase(std::remove(endpoints_.begin(), endpoints_.end(), endpoint),
                   endpoints_.end());
}

AddressSpace& Node::CreateProcess(const std::string& proc_name) {
  processes_.push_back(std::make_unique<AddressSpace>(vm_, name_ + "." + proc_name));
  AddressSpace& as = *processes_.back();
  // Fault and translation counters of this process, keyed by its (node-
  // local) name. The address space lives exactly as long as the node, so the
  // captured reference cannot dangle.
  const std::string prefix = "vm." + proc_name + ".";
  const AddressSpace::Counters& c = as.counters();
  metrics_.RegisterGauge(prefix + "faults", [&c] { return c.faults; });
  metrics_.RegisterGauge(prefix + "unrecoverable_faults", [&c] { return c.unrecoverable_faults; });
  metrics_.RegisterGauge(prefix + "tcow_copies", [&c] { return c.tcow_copies; });
  metrics_.RegisterGauge(prefix + "tcow_reenables", [&c] { return c.tcow_reenables; });
  metrics_.RegisterGauge(prefix + "cow_copies", [&c] { return c.cow_copies; });
  metrics_.RegisterGauge(prefix + "pageins", [&c] { return c.pageins; });
  metrics_.RegisterGauge(prefix + "zero_fills", [&c] { return c.zero_fills; });
  metrics_.RegisterGauge(prefix + "tlb_hits", [&c] { return c.tlb_hits; });
  metrics_.RegisterGauge(prefix + "tlb_misses", [&c] { return c.tlb_misses; });
  metrics_.RegisterGauge(prefix + "tlb_invalidations", [&c] { return c.tlb_invalidations; });
  metrics_.RegisterGauge(prefix + "coalesced_runs", [&c] { return c.coalesced_runs; });
  metrics_.RegisterGauge(prefix + "coalesced_pages", [&c] { return c.coalesced_pages; });
  metrics_.RegisterGauge(prefix + "io_errors", [&c] { return c.io_errors; });
  return as;
}

Network::Network(Engine& engine, Node& a, Node& b)
    : link_ab_(engine, a.name() + "->" + b.name()), link_ba_(engine, b.name() + "->" + a.name()) {
  a.adapter().ConnectTo(&b.adapter(), &link_ab_);
  b.adapter().ConnectTo(&a.adapter(), &link_ba_);
}

}  // namespace genie
