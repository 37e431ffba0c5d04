#include "src/harness/workload.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "src/obs/run_report.h"
#include "src/util/check.h"

namespace genie {

namespace {

// Per-node virtual arena for tenant buffers, far above the example/test
// ranges, with a guard page between allocations so an overrun faults.
constexpr Vaddr kArenaBase = 0x4000'0000;

std::uint64_t CeilPages(std::uint64_t len, std::uint32_t page) {
  return (len + page - 1) / page;
}

}  // namespace

Workload::Workload(Engine& engine, WorkloadConfig config)
    : engine_(&engine), config_(std::move(config)) {
  GENIE_CHECK_GE(config_.nodes, 2u) << "a fabric workload needs at least two nodes";
  GENIE_CHECK(!config_.classes.empty()) << "no tenant classes configured";
  GENIE_CHECK(config_.fixed_dst_node < static_cast<int>(config_.nodes));
  for (const TenantClassConfig& cls : config_.classes) {
    GENIE_CHECK_GT(cls.tenants, 0u);
    GENIE_CHECK_GT(cls.min_bytes, 0u);
    GENIE_CHECK_LE(cls.min_bytes, cls.max_bytes);
    GENIE_CHECK_LE(cls.max_bytes, kMaxAal5Payload);
    GENIE_CHECK(!cls.semantics_mix.empty());
    GENIE_CHECK(config_.deadline > 0 || (!cls.open_loop && cls.transfers_per_tenant > 0))
        << "class " << cls.name << " never terminates without a deadline";
  }

  fabric_ = std::make_unique<Fabric>(engine, config_.fabric);
  std::vector<Vaddr> cursor(config_.nodes, kArenaBase);
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(
        std::make_unique<Node>(engine, "n" + std::to_string(i), config_.node));
    Node& n = *nodes_.back();
    const int side = config_.fabric.topology == Fabric::Topology::kDumbbell
                         ? static_cast<int>(i % 2)
                         : 0;
    fabric_->Attach(n.adapter(), side);
    apps_.push_back(&n.CreateProcess("wl"));
    if (config_.reliable.has_value()) {
      ReliableOptions opts = *config_.reliable;
      // Independent retransmit-jitter streams per node, one seed upstream.
      opts.seed = opts.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
      n.EnableReliableDelivery(opts);
    }
  }

  GenieOptions ep_options = config_.endpoint_options;
  ep_options.register_metrics = false;  // thousands of endpoints; see header

  std::size_t tenant_index = 0;
  for (std::size_t ci = 0; ci < config_.classes.size(); ++ci) {
    class_latency_.push_back(std::make_unique<LatencyHistogram>());
    const TenantClassConfig& cls = config_.classes[ci];
    for (std::size_t k = 0; k < cls.tenants; ++k, ++tenant_index) {
      auto tenant = std::make_unique<Tenant>();
      Tenant& t = *tenant;
      t.index = tenant_index;
      t.class_index = ci;
      t.cls = &cls;
      t.channel = config_.first_channel + tenant_index;
      // Placement: incast pins every receiver to one node and spreads
      // senders over the rest; otherwise senders round-robin over all nodes
      // and each receiver is a deterministic *other* node.
      std::size_t tx = 0;
      std::size_t rx = 0;
      if (config_.fixed_dst_node >= 0) {
        rx = static_cast<std::size_t>(config_.fixed_dst_node);
        tx = tenant_index % (config_.nodes - 1);
        if (tx >= rx) {
          ++tx;
        }
      } else {
        tx = tenant_index % config_.nodes;
        rx = (tx + 1 + (tenant_index / config_.nodes) % (config_.nodes - 1)) % config_.nodes;
      }
      t.tx_node = nodes_[tx].get();
      t.rx_node = nodes_[rx].get();
      t.tx_app = apps_[tx];
      t.rx_app = apps_[rx];
      t.tx_ep = std::make_unique<Endpoint>(*t.tx_node, t.channel, ep_options);
      t.rx_ep = std::make_unique<Endpoint>(*t.rx_node, t.channel, ep_options);
      fabric_->OpenChannel(t.channel, t.tx_node->adapter(), t.rx_node->adapter());

      // Persistent buffers: open-loop tenants get one src/dst slot per
      // in-flight transfer (weak-integrity outputs read in place, so a slot
      // must not be rewritten while its transfer is live); closed-loop
      // tenants have one transfer at a time and need one slot.
      const std::size_t slots = cls.open_loop ? std::max<std::size_t>(1, cls.max_in_flight) : 1;
      const std::uint32_t page = t.tx_node->page_size();
      const std::uint64_t slot_bytes = CeilPages(cls.max_bytes, page) * page;
      t.src_base = cursor[tx];
      cursor[tx] += slots * slot_bytes + page;  // + guard page
      t.tx_app->CreateRegion(t.src_base, slots * slot_bytes);
      t.dst_base = cursor[rx];
      cursor[rx] += slots * slot_bytes + page;
      t.rx_app->CreateRegion(t.dst_base, slots * slot_bytes);
      for (std::size_t s = 0; s < slots; ++s) {
        t.free_slots.push_back(s);
      }
      t.slot_freed = std::make_unique<SimEvent>(engine);
      // Every tenant draws from its own stream, derived from the one
      // workload seed: reordering tenant start-up cannot perturb another
      // tenant's choices.
      t.rng = SplitMix64(config_.seed ^ (0xd1b54a32d192ed03ULL * (tenant_index + 1)));

      TenantStats stats;
      stats.class_index = ci;
      stats.tx_node = tx;
      stats.rx_node = rx;
      stats.channel = t.channel;
      tenant_stats_.push_back(stats);
      tenants_.push_back(std::move(tenant));
    }
  }

  // Per-class roll-up gauges (satellite of the telemetry plane): the same
  // aggregates Rollups() computes, visible to snapshots and the sampler.
  // Quantiles round to whole microseconds so gauge integers stay exact.
  for (std::size_t ci = 0; ci < config_.classes.size(); ++ci) {
    const std::string prefix = "wl." + config_.classes[ci].name + ".";
    auto sum_stat = [this, ci](std::uint64_t TenantStats::* member) {
      std::uint64_t total = 0;
      for (const TenantStats& s : tenant_stats_) {
        if (s.class_index == ci) {
          total += s.*member;
        }
      }
      return total;
    };
    metrics_.RegisterGauge(prefix + "completed",
                           [sum_stat] { return sum_stat(&TenantStats::completed); });
    metrics_.RegisterGauge(prefix + "completed_bytes",
                           [sum_stat] { return sum_stat(&TenantStats::completed_bytes); });
    metrics_.RegisterGauge(prefix + "failed",
                           [sum_stat] { return sum_stat(&TenantStats::failed); });
    metrics_.RegisterGauge(prefix + "retries",
                           [sum_stat] { return sum_stat(&TenantStats::retries); });
    metrics_.RegisterGauge(prefix + "backpressure",
                           [sum_stat] { return sum_stat(&TenantStats::backpressure_stalls); });
    metrics_.RegisterGauge(prefix + "p50_us", [this, ci] {
      return static_cast<std::uint64_t>(std::llround(class_latency_[ci]->Quantile(50)));
    });
    metrics_.RegisterGauge(prefix + "p99_us", [this, ci] {
      return static_cast<std::uint64_t>(std::llround(class_latency_[ci]->Quantile(99)));
    });
  }
}

Workload::~Workload() = default;

bool Workload::DeadlinePassed() const {
  return config_.deadline > 0 && engine_->now() >= config_.deadline;
}

std::byte Workload::PatternByte(std::uint64_t channel, std::uint64_t salt,
                                std::uint64_t offset) {
  return static_cast<std::byte>((channel * 131 + salt * 31 + offset * 7) & 0xFF);
}

Task<InputResult> Workload::TransferOnce(Tenant& t, std::uint64_t salt, std::uint64_t len,
                                         Semantics sem, std::size_t slot) {
  const TenantClassConfig& cls = *t.cls;
  const std::uint32_t page = t.tx_node->page_size();
  const std::uint64_t slot_bytes = CeilPages(cls.max_bytes, page) * page;

  // Fill the source with this transfer's pattern.
  std::vector<std::byte> payload(static_cast<std::size_t>(len));
  for (std::uint64_t i = 0; i < len; ++i) {
    payload[i] = PatternByte(t.channel, salt, i);
  }
  Vaddr src = 0;
  if (IsSystemAllocated(sem)) {
    // The output deallocates the moved-in buffer; allocate a fresh one.
    src = t.tx_ep->AllocateIoBuffer(*t.tx_app, len);
  } else {
    src = t.src_base + slot * slot_bytes;
  }
  GENIE_CHECK(t.tx_app->Write(src, payload) == AccessResult::kOk);

  // Prepost the receive, then issue the output. Open-loop tenants post
  // max_bytes (ARQ reordering can land any in-flight frame in any posted
  // buffer of this channel, so every buffer must fit every frame);
  // closed-loop tenants have one frame in flight and post exactly len.
  const std::uint64_t post_len = cls.open_loop ? cls.max_bytes : len;
  InputResult result;
  SimEvent done(*engine_);
  auto input_driver = [](Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t n,
                         Semantics s, InputResult* out, SimEvent* ev) -> Task<void> {
    if (IsSystemAllocated(s)) {
      *out = co_await ep.InputSystemAllocated(app, n, s);
    } else {
      *out = co_await ep.Input(app, va, n, s);
    }
    ev->Set();
  };
  std::move(input_driver(*t.rx_ep, *t.rx_app, t.dst_base + slot * slot_bytes, post_len, sem,
                         &result, &done))
      .Detach();
  std::move(t.tx_ep->Output(*t.tx_app, src, len, sem)).Detach();
  co_await done.Wait();
  co_return result;
}

void Workload::VerifyPayload(Tenant& t, std::uint64_t salt, std::uint64_t len, Semantics sem,
                             const InputResult& result) {
  if (!config_.verify_payloads) {
    if (IsSystemAllocated(sem)) {
      t.rx_ep->FreeIoBuffer(*t.rx_app, result.addr);
    }
    return;
  }
  std::vector<std::byte> got(static_cast<std::size_t>(result.bytes));
  if (t.rx_app->Read(result.addr, got) != AccessResult::kOk) {
    violations_.push_back("tenant " + std::to_string(t.index) + ": readback failed at " +
                          std::to_string(result.addr));
  } else if (result.bytes != len) {
    violations_.push_back("tenant " + std::to_string(t.index) + ": got " +
                          std::to_string(result.bytes) + " bytes, expected " +
                          std::to_string(len));
  } else {
    for (std::uint64_t i = 0; i < result.bytes; ++i) {
      if (got[i] != PatternByte(t.channel, salt, i)) {
        violations_.push_back("tenant " + std::to_string(t.index) + ": byte " +
                              std::to_string(i) + " of " + std::to_string(result.bytes) +
                              " corrupt (salt " + std::to_string(salt) + ")");
        break;
      }
    }
  }
  if (IsSystemAllocated(sem)) {
    t.rx_ep->FreeIoBuffer(*t.rx_app, result.addr);
  }
}

void Workload::RecordLatency(Tenant& t, SimTime started_at, SimTime completed_at) {
  class_latency_[t.class_index]->Add(
      SimTimeToMicros(completed_at > started_at ? completed_at - started_at : 0));
}

Task<void> Workload::RunClosedLoop(Tenant& t) {
  const TenantClassConfig& cls = *t.cls;
  TenantStats& stats = tenant_stats_[t.index];
  for (std::uint64_t id = 0; cls.transfers_per_tenant == 0 || id < cls.transfers_per_tenant;
       ++id) {
    if (DeadlinePassed()) {
      break;
    }
    const std::uint64_t len = t.rng.Range(cls.min_bytes, cls.max_bytes);
    const Semantics sem = cls.semantics_mix[t.rng.Below(cls.semantics_mix.size())];
    const std::uint64_t salt = id * 1315423911ULL + len;
    bool ok = false;
    for (std::size_t attempt = 0; attempt <= cls.max_retries; ++attempt) {
      const SimTime started = engine_->now();
      const InputResult result = co_await TransferOnce(t, salt, len, sem, /*slot=*/0);
      if (result.ok) {
        VerifyPayload(t, salt, len, sem, result);
        RecordLatency(t, started, result.completed_at);
        ++stats.completed;
        stats.completed_bytes += len;
        ok = true;
        break;
      }
      if (attempt == cls.max_retries || DeadlinePassed()) {
        break;
      }
      ++stats.retries;
      if (result.status == IoStatus::kPeerCrashed) {
        ++stats.crash_retries;
      }
      // Jittered backoff: deterministic per tenant stream.
      co_await Delay(*engine_,
                     cls.retry_backoff * (attempt + 1) + t.rng.Below(cls.retry_backoff / 4 + 1));
    }
    if (!ok) {
      ++stats.failed;
    }
    if (cls.think_time > 0) {
      co_await Delay(*engine_, cls.think_time);
    }
  }
  t.done = true;
}

Task<void> Workload::RunOneOpenTransfer(Tenant& t) {
  const TenantClassConfig& cls = *t.cls;
  TenantStats& stats = tenant_stats_[t.index];
  GENIE_CHECK(!t.free_slots.empty());  // in_flight cap == slot count
  const std::size_t slot = t.free_slots.front();
  t.free_slots.pop_front();

  const std::uint64_t len = t.rng.Range(cls.min_bytes, cls.max_bytes);
  const Semantics sem = cls.semantics_mix[t.rng.Below(cls.semantics_mix.size())];
  // Open-loop payloads are keyed by length alone: reordering among a
  // tenant's in-flight frames can land any of them in any posted buffer, so
  // content must be reconstructible from what the completion reports.
  const std::uint64_t salt = len;
  bool ok = false;
  for (std::size_t attempt = 0; attempt <= cls.max_retries; ++attempt) {
    const SimTime started = engine_->now();
    const InputResult result = co_await TransferOnce(t, salt, len, sem, slot);
    if (result.ok) {
      VerifyPayload(t, result.bytes, result.bytes, sem, result);
      RecordLatency(t, started, result.completed_at);
      ++stats.completed;
      stats.completed_bytes += result.bytes;
      ok = true;
      break;
    }
    // Open loop does not retry ordinary failures (the next arrival is due) —
    // but with tenant_restart, a transfer that died because a peer
    // crash-stopped is re-issued after backoff so the tenant survives the
    // crash instead of bleeding its in-flight window.
    if (!cls.tenant_restart || result.status != IoStatus::kPeerCrashed ||
        attempt == cls.max_retries || DeadlinePassed()) {
      break;
    }
    ++stats.crash_retries;
    co_await Delay(*engine_,
                   cls.retry_backoff * (attempt + 1) + t.rng.Below(cls.retry_backoff / 4 + 1));
  }
  if (!ok) {
    ++stats.failed;
  }
  t.free_slots.push_back(slot);
  --t.in_flight;
  t.slot_freed->Set();
}

Task<void> Workload::RunOpenLoop(Tenant& t) {
  const TenantClassConfig& cls = *t.cls;
  TenantStats& stats = tenant_stats_[t.index];
  for (std::uint64_t id = 0; cls.transfers_per_tenant == 0 || id < cls.transfers_per_tenant;
       ++id) {
    // Interarrival: uniform in [mean/2, 3*mean/2] from the tenant's stream.
    co_await Delay(*engine_, cls.mean_interarrival / 2 + t.rng.Below(cls.mean_interarrival + 1));
    if (DeadlinePassed()) {
      break;
    }
    while (t.in_flight >= cls.max_in_flight) {
      // The offered load exceeds what the fabric absorbs: the arrival
      // stalls until a completion frees a slot (backpressure, observable).
      ++stats.backpressure_stalls;
      t.slot_freed->Reset();
      co_await t.slot_freed->Wait();
      if (DeadlinePassed()) {
        break;
      }
    }
    if (DeadlinePassed()) {
      break;
    }
    ++t.in_flight;
    std::move(RunOneOpenTransfer(t)).Detach();
  }
  t.done = true;
}

void Workload::Run() {
  GENIE_CHECK(!ran_) << "Workload::Run is one-shot";
  ran_ = true;
  for (auto& tenant : tenants_) {
    if (tenant->cls->open_loop) {
      std::move(RunOpenLoop(*tenant)).Detach();
    } else {
      std::move(RunClosedLoop(*tenant)).Detach();
    }
  }
  engine_->Run();
  if (sampler_ != nullptr) {
    sampler_->Finish();
  }
  for (const auto& tenant : tenants_) {
    if (!tenant->done) {
      violations_.push_back("tenant " + std::to_string(tenant->index) +
                            " stuck: arrival loop never finished");
    }
    if (tenant->in_flight != 0) {
      violations_.push_back("tenant " + std::to_string(tenant->index) + " stuck: " +
                            std::to_string(tenant->in_flight) + " transfers in flight");
    }
  }
}

void Workload::EnableTelemetry(const TelemetryOptions& options) {
  GENIE_CHECK(!ran_) << "EnableTelemetry must precede Run";
  GENIE_CHECK(sampler_ == nullptr) << "telemetry already enabled";

  TelemetrySampler::Config cfg = options.sampler;
  if (cfg.seed == 0) {
    cfg.seed = config_.seed;
  }
  if (options.default_tracks) {
    auto add = [](std::vector<std::string>& v, const std::string& s) {
      if (std::find(v.begin(), v.end(), s) == v.end()) {
        v.push_back(s);
      }
    };
    add(cfg.rate_counters, "reliable.delivered_bytes");
    add(cfg.rate_counters, "reliable.retransmits");
    add(cfg.rate_counters, "nic.frames_sent");
    for (const TenantClassConfig& cls : config_.classes) {
      add(cfg.rate_counters, "wl." + cls.name + ".completed_bytes");
      add(cfg.counter_tracks, "wl/wl." + cls.name + ".completed_bytes.rate_per_s");
    }
    add(cfg.counter_tracks, "fabric/fabric.backlog_frames");
    add(cfg.counter_tracks, "fabric/fabric.down_links");
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::string n = nodes_[i]->name() + "/";
      add(cfg.counter_tracks, n + "nic.pool_free_pages");
      add(cfg.counter_tracks, n + "reliable.retransmits.rate_per_s");
      add(cfg.counter_tracks, n + "backing.stored_pages");
      add(cfg.counter_tracks, n + "node.crashes");
      add(cfg.counter_tracks, n + "reliable.epoch_bumps");
    }
  }

  sampler_ = std::make_unique<TelemetrySampler>(engine_, std::move(cfg));
  for (const auto& node : nodes_) {
    sampler_->AddSource(node->name(), &node->metrics());
  }
  sampler_->AddSource("fabric", &fabric_->metrics());
  sampler_->AddSource("wl", &metrics_);
  sampler_->set_trace(options.trace);

  bool any_slo = false;
  for (const TenantClassConfig& cls : config_.classes) {
    any_slo = any_slo || cls.slo_p99_us > 0 || cls.slo_goodput_floor_bps > 0 ||
              cls.slo_giveups_zero;
  }
  if (!any_slo) {
    return;
  }
  slo_ = std::make_unique<SloTracker>(sampler_.get());
  slo_->set_trace(options.trace);
  slo_->set_metrics(&metrics_);
  if (options.flight != nullptr) {
    // The dump count rides the wl series, so the report shows when (and how
    // often) alerts fired the recorder.
    options.flight->RegisterGauges(metrics_);
    FlightRecorder* flight = options.flight;
    slo_->set_alert_hook([flight](const SloAlert& a) {
      std::ostringstream os;
      os << "slo_alert " << a.objective << " window [" << a.window_start << ", "
         << a.window_end << ")ns: " << a.reason;
      flight->DumpToFile(os.str());
    });
  }
  for (std::size_t ci = 0; ci < config_.classes.size(); ++ci) {
    const TenantClassConfig& cls = config_.classes[ci];
    const auto windows = [&cls](SloObjective& o) {
      o.short_windows = cls.slo_short_windows;
      o.long_windows = cls.slo_long_windows;
      o.long_burn_threshold = cls.slo_long_burn_threshold;
    };
    const auto class_active = [this, ci] {
      for (const auto& tenant : tenants_) {
        if (tenant->class_index == ci && !tenant->done) {
          return true;
        }
      }
      return false;
    };
    if (cls.slo_p99_us > 0) {
      SloObjective o;
      o.name = cls.name;
      o.p99_limit_us = cls.slo_p99_us;
      windows(o);
      SloInputs in;
      in.latency = class_latency_[ci].get();
      in.completed_bytes = [this, ci] {
        std::uint64_t total = 0;
        for (const TenantStats& s : tenant_stats_) {
          if (s.class_index == ci) {
            total += s.completed_bytes;
          }
        }
        return total;
      };
      in.active = class_active;
      slo_->AddObjective(std::move(o), std::move(in));
    }
    if (cls.slo_goodput_floor_bps > 0 || cls.slo_giveups_zero) {
      for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
        if (tenants_[ti]->class_index != ci) {
          continue;
        }
        SloObjective o;
        o.name = cls.name + ".t" + std::to_string(ti);
        o.goodput_floor_bytes_per_s = cls.slo_goodput_floor_bps;
        o.giveups_zero = cls.slo_giveups_zero;
        windows(o);
        SloInputs in;
        const TenantStats* stats = &tenant_stats_[ti];
        in.completed_bytes = [stats] { return stats->completed_bytes; };
        in.giveups = [stats] { return stats->failed; };
        const Tenant* tenant = tenants_[ti].get();
        in.active = [tenant] { return !tenant->done; };
        slo_->AddObjective(std::move(o), std::move(in));
      }
    }
  }
}

void Workload::WriteRunReport(std::ostream& os, const TraceLog* trace) const {
  GENIE_CHECK(sampler_ != nullptr) << "WriteRunReport requires EnableTelemetry";
  RunReport report(sampler_.get(), slo_.get());
  report.set_critical_path(trace);
  report.WriteJson(os);
}

std::vector<ClassRollup> Workload::Rollups() const {
  std::vector<ClassRollup> out(config_.classes.size());
  for (std::size_t ci = 0; ci < config_.classes.size(); ++ci) {
    out[ci].name = config_.classes[ci].name;
    out[ci].tenants = config_.classes[ci].tenants;
    const LatencyHistogram& h = *class_latency_[ci];
    out[ci].p50_us = h.Quantile(50);
    out[ci].p99_us = h.Quantile(99);
    out[ci].max_us = h.max();
  }
  for (const TenantStats& stats : tenant_stats_) {
    ClassRollup& r = out[stats.class_index];
    r.completed += stats.completed;
    r.failed += stats.failed;
    r.retries += stats.retries;
    r.crash_retries += stats.crash_retries;
    r.completed_bytes += stats.completed_bytes;
  }
  return out;
}

InvariantReport Workload::CheckInvariants(bool expect_quiescent) {
  InvariantReport report;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    InvariantReport r = VmInvariants::CheckAll(nodes_[i]->vm(), *apps_[i], expect_quiescent);
    report.checks += r.checks;
    report.violations.insert(report.violations.end(), r.violations.begin(),
                             r.violations.end());
  }
  return report;
}

void Workload::WriteReport(std::ostream& os) const {
  os << std::left << std::setw(16) << "class" << std::right << std::setw(8) << "tenants"
     << std::setw(10) << "done" << std::setw(8) << "fail" << std::setw(8) << "retry"
     << std::setw(8) << "crash" << std::setw(12) << "MB" << std::setw(10) << "p50_us"
     << std::setw(10) << "p99_us" << std::setw(10) << "max_us" << "\n";
  for (const ClassRollup& r : Rollups()) {
    os << std::left << std::setw(16) << r.name << std::right << std::setw(8) << r.tenants
       << std::setw(10) << r.completed << std::setw(8) << r.failed << std::setw(8) << r.retries
       << std::setw(8) << r.crash_retries << std::setw(12) << std::fixed << std::setprecision(2)
       << static_cast<double>(r.completed_bytes) / (1024.0 * 1024.0) << std::setw(10)
       << std::setprecision(1) << r.p50_us << std::setw(10) << r.p99_us << std::setw(10)
       << r.max_us << "\n";
    os.unsetf(std::ios::fixed);
  }
}

}  // namespace genie
