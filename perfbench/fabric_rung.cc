// The ladder's fabric rungs: one batch shaped like fabric_mixed_lossy, the
// harness Workload on an 8-node star fabric with 320 closed-loop tenants.
// 256 bulk tenants move 1-8 KiB with a mix of emulated copy, copy and
// emulated share; 64 interactive tenants move 64 B-1 KiB. Every node runs
// ARQ at window 16; the lossy batch gives every adapter a seeded 1%
// kLinkDrop fault plan, and the telemetry batches run the sampler at 500 us
// with the default tracks. With transfers this small, fixed per-transfer
// costs dominate (engine events, coroutine frames, endpoint bookkeeping,
// ARQ/SACK cells, DRR arbitration, telemetry sampling).
//
// fabric_mixed_lossy is not a workload of the benchmark: its wall time spread
// too far between runs to bound. Every traced run measures its layers here.
#include <algorithm>
#include <memory>

#include "perfbench/common.h"
#include "perfbench/ladder.h"
#include "perfbench/stats.h"
#include "src/harness/workload.h"
#include "src/mem/fault_plan.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kBulkTenants = 256;
constexpr std::size_t kInteractiveTenants = 64;
constexpr std::size_t kBulkTransfers = 8;
constexpr std::size_t kInteractiveTransfers = 24;

// Members in construction order; destroyed in reverse, so the workload (and
// its sampler and nodes) goes before the fault plans and the engine.
struct Batch {
  genie::Engine engine;
  std::vector<std::unique_ptr<genie::FaultPlan>> plans;
  std::unique_ptr<genie::Workload> wl;
  std::uint64_t attempted = 0;
};

std::unique_ptr<Batch> BuildBatch(std::uint64_t seed, bool lossy, bool telemetry) {
  auto b = std::make_unique<Batch>();
  genie::WorkloadConfig cfg;
  cfg.seed = seed;
  cfg.nodes = kNodes;
  cfg.node.mem_frames = 1024;
  genie::ReliableOptions rel;
  rel.arq = true;
  rel.window = 16;
  rel.seed = seed;
  cfg.reliable = rel;
  genie::TenantClassConfig bulk;
  bulk.name = "bulk";
  bulk.tenants = kBulkTenants;
  bulk.transfers_per_tenant = kBulkTransfers;
  bulk.min_bytes = 1024;
  bulk.max_bytes = 8 * 1024;
  bulk.semantics_mix = {genie::Semantics::kEmulatedCopy, genie::Semantics::kCopy,
                        genie::Semantics::kEmulatedShare};
  cfg.classes.push_back(bulk);
  genie::TenantClassConfig interactive;
  interactive.name = "interactive";
  interactive.tenants = kInteractiveTenants;
  interactive.transfers_per_tenant = kInteractiveTransfers;
  interactive.min_bytes = 64;
  interactive.max_bytes = 1024;
  cfg.classes.push_back(interactive);
  b->attempted = bulk.tenants * bulk.transfers_per_tenant +
                 interactive.tenants * interactive.transfers_per_tenant;

  b->wl = std::make_unique<genie::Workload>(b->engine, cfg);
  if (lossy) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto plan = std::make_unique<genie::FaultPlan>(genie::SplitMix64(seed + i).Next());
      genie::FaultRule drop;
      drop.site = genie::FaultSite::kLinkDrop;
      drop.probability = 0.01;
      plan->AddRule(drop);
      genie::Engine* engine = &b->engine;
      plan->set_clock([engine] { return engine->now(); });
      b->wl->node(i).adapter().set_fault_plan(plan.get());
      b->plans.push_back(std::move(plan));
    }
  }
  if (telemetry) {
    genie::Workload::TelemetryOptions topts;
    topts.sampler.period = 500 * genie::kMicrosecond;
    b->wl->EnableTelemetry(topts);
  }
  return b;
}

// Exactly-once and integrity checks of a finished batch, plus the VM
// invariants at quiescence on every node; returns the completed transfers.
std::uint64_t CheckBatch(Batch& b, std::vector<std::string>* violations) {
  std::uint64_t completed = 0;
  for (const genie::TenantStats& t : b.wl->tenant_stats()) {
    completed += t.completed;
  }
  if (completed != b.attempted || !b.wl->violations().empty()) {
    violations->push_back("fabric rung: " + std::to_string(completed) + " of " +
                          std::to_string(b.attempted) + " transfers completed, " +
                          std::to_string(b.wl->violations().size()) + " violations");
  }
  violations->insert(violations->end(), b.wl->violations().begin(), b.wl->violations().end());
  const genie::InvariantReport rep = b.wl->CheckInvariants(true);
  violations->insert(violations->end(), rep.violations.begin(), rep.violations.end());
  for (std::size_t i = 0; i < b.wl->node_count(); ++i) {
    if (b.wl->node(i).reliable().stats().giveups != 0) {
      violations->push_back(b.wl->node(i).name() + ": ARQ gave up on a transfer");
    }
  }
  return completed;
}

}  // namespace

LadderSpec FabricLadderSpec(std::uint64_t seed) {
  // Transfers in the batch's proportions: 256 x 8 bulk to 64 x 24
  // interactive, sizes and semantics drawn as the tenants draw them.
  LadderSpec spec;
  genie::SplitMix64 rng(seed);
  const genie::Semantics bulk_mix[] = {genie::Semantics::kEmulatedCopy, genie::Semantics::kCopy,
                                       genie::Semantics::kEmulatedShare};
  for (int i = 0; i < 448; ++i) {
    if (i % 7 < 4) {
      spec.mix.push_back({bulk_mix[rng.Below(3)], rng.Range(1024, 8 * 1024)});
    } else {
      spec.mix.push_back({genie::Semantics::kEmulatedCopy, rng.Range(64, 1024)});
    }
  }
  return spec;
}

FabricRung RunFabricRung(std::uint64_t seed, bool lossy, bool telemetry,
                         std::vector<std::string>* violations) {
  // Build, run and teardown are timed; the checks are not.
  const std::uint64_t batch_seed = genie::SplitMix64(seed ^ 0xfab0000000000001ULL).Next();
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<Batch> b = BuildBatch(batch_seed, lossy, telemetry);
  b->wl->Run();
  double wall_s = SecondsSince(t0);
  const std::uint64_t completed = CheckBatch(*b, violations);
  RawCounts c;
  for (std::size_t i = 0; i < b->wl->node_count(); ++i) {
    AddNodeCounts(b->wl->node(i), &c);
  }
  const double grants = static_cast<double>(b->wl->fabric().frames_switched());
  t0 = Clock::now();
  b.reset();
  wall_s += SecondsSince(t0);
  const double xfers = std::max<double>(1.0, static_cast<double>(completed));
  FabricRung r;
  r.us_per_xfer = wall_s * 1e6 / xfers;
  r.grants_per_xfer = grants / xfers;
  r.ctrl_cells_per_xfer = static_cast<double>(c.ctrl_cells) / xfers;
  r.retransmit_frac =
      Ratio{static_cast<double>(c.retransmits), static_cast<double>(c.sequenced)}.value();
  return r;
}

}  // namespace perfbench
