// Multi-tenant load generator over a switched fabric.
//
// Builds N nodes attached to a Fabric, populates them with synthetic tenant
// classes (each tenant = one channel = one tx/rx endpoint pair), and drives
// thousands of concurrent transfers from one seeded deterministic RNG:
// closed-loop tenants issue, await, verify, think, repeat; open-loop tenants
// fire transfers on sampled interarrivals up to an in-flight cap. Per-class
// latency roll-ups (p50/p99 via LatencyHistogram) and per-tenant completed
// byte counts feed the fairness and soak properties in tests/.
//
// Everything observable — tenant placement, arrival times, sizes, semantics
// choices, retry backoffs — derives from WorkloadConfig::seed, so one seed
// replays one schedule bit-for-bit (the GENIE_FABRIC_SEED debugging hook).
//
// Endpoints are created with GenieOptions::register_metrics = false: a
// thousand-tenant population would otherwise register ~40k gauges; the
// roll-ups here replace them.
#ifndef GENIE_SRC_HARNESS_WORKLOAD_H_
#define GENIE_SRC_HARNESS_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/genie/endpoint.h"
#include "src/genie/node.h"
#include "src/net/fabric.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/sim/awaitable.h"
#include "src/sim/engine.h"
#include "src/util/rng.h"
#include "src/vm/invariants.h"

namespace genie {

// One synthetic tenant population sharing arrival law, size mixture, and
// semantics mix. Tenants of a class are identical in configuration and
// differ only in placement and RNG stream.
struct TenantClassConfig {
  std::string name = "tenants";
  std::size_t tenants = 1;

  // Closed loop (default): issue, await completion, verify, think, repeat,
  // `transfers_per_tenant` times (0 = until the workload deadline).
  // Open loop: arrivals on sampled interarrival times regardless of
  // completions, bounded by `max_in_flight` outstanding transfers; an
  // arrival finding the window full stalls until a slot frees
  // (backpressure, counted per tenant).
  bool open_loop = false;
  std::size_t transfers_per_tenant = 8;
  SimTime think_time = 0;                           // closed loop
  SimTime mean_interarrival = 200 * kMicrosecond;   // open loop
  std::size_t max_in_flight = 8;                    // open loop

  // Transfer sizes: uniform in [min_bytes, max_bytes].
  std::uint64_t min_bytes = 256;
  std::uint64_t max_bytes = 8 * 1024;

  // Semantics drawn uniformly per transfer (sender and receiver use the
  // drawn value; the endpoint's fallback chains may degrade it under
  // pressure when enabled).
  std::vector<Semantics> semantics_mix = {Semantics::kEmulatedCopy};

  // Closed-loop recovery: a transfer failing recoverably (pool exhaustion,
  // injected fault past the reliable layer's budget) is retried after a
  // jittered backoff, up to `max_retries` times, then counted failed.
  std::size_t max_retries = 4;
  SimTime retry_backoff = 100 * kMicrosecond;

  // Crash survival: with tenant_restart set, an open-loop transfer that
  // fails because a peer crash-stopped (IoStatus::kPeerCrashed) is re-issued
  // after the retry backoff, up to max_retries times, instead of being
  // dropped at the first failure. Each re-issue counts as a crash_retry in
  // the tenant stats and class roll-up; closed-loop tenants already retry
  // and get the same accounting for crash-caused attempts.
  bool tenant_restart = false;

  // Declarative SLOs, evaluated per telemetry sampling window once
  // EnableTelemetry is on (0/false = clause disabled). The p99 objective is
  // tracked at class scope (the latency roll-up is per class); the goodput
  // floor and giveups==0 objectives are tracked per tenant — named
  // "<class>.t<tenant-index>" — so a firing alert pins the violating tenant.
  // "Giveups" at tenant scope are transfers that failed after exhausting the
  // class retry budget.
  double slo_p99_us = 0;
  double slo_goodput_floor_bps = 0;  // bytes per second of sim time, per tenant
  bool slo_giveups_zero = false;
  int slo_short_windows = 3;
  int slo_long_windows = 12;
  double slo_long_burn_threshold = 0.5;
};

struct WorkloadConfig {
  std::uint64_t seed = 1;

  // Topology: `nodes` nodes attached to one fabric. Dumbbell fabrics place
  // node i on side i % 2.
  std::size_t nodes = 4;
  Fabric::Config fabric;
  Node::Config node;  // template applied to every node

  // Endpoint policy (register_metrics is forced off).
  GenieOptions endpoint_options;
  // Reliable delivery (ARQ + watchdog) enabled on every node when set.
  std::optional<ReliableOptions> reliable;

  // Tenant i transmits from node (i % nodes). Receivers: fixed_dst_node < 0
  // spreads them round-robin over the *other* nodes; >= 0 pins every
  // receiver to that node (incast — the fairness tests contend one egress).
  int fixed_dst_node = -1;

  // Simulated stop time: closed-loop tenants stop *starting* transfers at
  // the deadline (in-flight ones drain); open-loop arrival processes stop.
  // 0 = run until every tenant finishes its transfer count (closed loop
  // only — an open-loop class or transfers_per_tenant == 0 requires a
  // deadline).
  SimTime deadline = 0;

  std::uint64_t first_channel = 1;
  bool verify_payloads = true;
  std::vector<TenantClassConfig> classes;
};

// Per-tenant outcome counters (fairness asserts on completed_bytes).
struct TenantStats {
  std::size_t class_index = 0;
  std::size_t tx_node = 0;
  std::size_t rx_node = 0;
  std::uint64_t channel = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t crash_retries = 0;  // re-issues after a peer crash-stop
  std::uint64_t completed_bytes = 0;
  std::uint64_t backpressure_stalls = 0;
};

// Per-class latency/throughput roll-up.
struct ClassRollup {
  std::string name;
  std::size_t tenants = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t crash_retries = 0;
  std::uint64_t completed_bytes = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

class Workload {
 public:
  Workload(Engine& engine, WorkloadConfig config);
  ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Starts every tenant and runs the engine to quiescence. Payload
  // mismatches and stuck tenants are recorded in violations(). With
  // telemetry enabled, the final partial sampling window is flushed before
  // returning.
  void Run();

  // Continuous telemetry over the whole workload: the sampler snapshots
  // every node's registry, the fabric's, and the workload's own wl.* /
  // slo.* registry on one sim-time cadence, and an SloTracker evaluates the
  // classes' declarative objectives per window. Call before Run().
  struct TelemetryOptions {
    TelemetrySampler::Config sampler;  // seed 0 = inherit the workload seed
    // Trace log for Perfetto counter tracks and slo_alert instants (null =
    // no trace output; series and alerts still accumulate).
    TraceLog* trace = nullptr;
    // A firing alert dumps this recorder with a reason naming the violating
    // objective and window (null = no dumps).
    FlightRecorder* flight = nullptr;
    // Install the standard counter-track/rate set (pool occupancy, fabric
    // backlog, retransmit rate, per-class goodput, dirty/crash/epoch
    // counters) on top of any tracks already in `sampler`.
    bool default_tracks = true;
  };
  void EnableTelemetry(const TelemetryOptions& options);

  TelemetrySampler* telemetry() { return sampler_.get(); }
  const TelemetrySampler* telemetry() const { return sampler_.get(); }
  SloTracker* slo() { return slo_.get(); }
  const SloTracker* slo() const { return slo_.get(); }

  // Workload-scope registry: per-class wl.* roll-up gauges plus the
  // SloTracker's slo.* counters.
  MetricsRegistry& metrics() { return metrics_; }

  // Deterministic end-of-run report (requires EnableTelemetry); embeds the
  // critical-path table when `trace` is non-null.
  void WriteRunReport(std::ostream& os, const TraceLog* trace = nullptr) const;

  Engine& engine() { return *engine_; }
  Fabric& fabric() { return *fabric_; }
  Node& node(std::size_t i) { return *nodes_.at(i); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t tenant_count() const { return tenants_.size(); }

  const std::vector<TenantStats>& tenant_stats() const { return tenant_stats_; }
  const std::vector<std::string>& violations() const { return violations_; }
  std::vector<ClassRollup> Rollups() const;

  // End-to-end latency histogram of one class (p50/p99 source).
  const LatencyHistogram& class_latency(std::size_t class_index) const {
    return *class_latency_.at(class_index);
  }

  // Whole-VM invariants over every node and workload process, merged.
  InvariantReport CheckInvariants(bool expect_quiescent);

  // Human-readable per-class table (bench output).
  void WriteReport(std::ostream& os) const;

 private:
  struct Tenant {
    std::size_t index = 0;
    std::size_t class_index = 0;
    const TenantClassConfig* cls = nullptr;
    std::uint64_t channel = 0;
    Node* tx_node = nullptr;
    Node* rx_node = nullptr;
    std::unique_ptr<Endpoint> tx_ep;
    std::unique_ptr<Endpoint> rx_ep;
    AddressSpace* tx_app = nullptr;  // the owning node's workload process
    AddressSpace* rx_app = nullptr;
    Vaddr src_base = 0;  // persistent application-allocated buffers
    Vaddr dst_base = 0;  // open loop: max_in_flight slots, else one
    SplitMix64 rng{0};
    std::deque<std::size_t> free_slots;          // open loop: dst slot pool
    std::unique_ptr<SimEvent> slot_freed;        // open loop backpressure
    std::size_t in_flight = 0;
    bool done = false;  // coroutine ran to completion (stuck-tenant check)
  };

  Task<void> RunClosedLoop(Tenant& t);
  Task<void> RunOpenLoop(Tenant& t);
  Task<void> RunOneOpenTransfer(Tenant& t);
  // One attempt; returns the receiver-side result (ok == false on
  // recoverable failure). `slot` indexes the tenant's dst arena.
  Task<InputResult> TransferOnce(Tenant& t, std::uint64_t transfer_id, std::uint64_t len,
                                 Semantics sem, std::size_t slot);
  void VerifyPayload(Tenant& t, std::uint64_t transfer_id, std::uint64_t len, Semantics sem,
                     const InputResult& result);
  void RecordLatency(Tenant& t, SimTime started_at, SimTime completed_at);
  bool DeadlinePassed() const;
  // Deterministic per-(tenant, transfer) payload byte.
  static std::byte PatternByte(std::uint64_t channel, std::uint64_t transfer_id,
                               std::uint64_t offset);

  Engine* engine_;
  WorkloadConfig config_;
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<AddressSpace*> apps_;  // one workload process per node
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<TenantStats> tenant_stats_;
  std::vector<std::unique_ptr<LatencyHistogram>> class_latency_;
  std::vector<std::string> violations_;
  MetricsRegistry metrics_;
  std::unique_ptr<TelemetrySampler> sampler_;
  std::unique_ptr<SloTracker> slo_;
  bool ran_ = false;
};

}  // namespace genie

#endif  // GENIE_SRC_HARNESS_WORKLOAD_H_
