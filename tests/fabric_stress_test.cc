// Deterministic multi-tenant soak of the switched fabric: 200 seeds of mixed
// closed/open-loop traffic over a lossy 4-node fabric with ARQ enabled.
// Every seed must deliver exactly once with golden bytes (the workload's
// payload verifier), leave every node's VM quiescently clean, and never
// exhaust the reliable layer's retry budget (giveups == 0 — 1% loss is far
// inside what ARQ absorbs).
//
// Replay one seed with
//   GENIE_FABRIC_SEED=<seed> ./fabric_stress_test
// Sweep the selective-repeat window (CI runs {1, 2, 16}) with
//   GENIE_RELIABLE_WINDOW=<w> ./fabric_stress_test
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "src/harness/workload.h"
#include "src/mem/fault_plan.h"
#include "src/util/units.h"
#include "tests/soak_golden.h"

namespace genie {
namespace {

constexpr std::uint64_t kFirstSeed = 9000;
constexpr int kSeedCount = 200;

std::uint32_t SoakWindow() {
  static const std::uint32_t window = [] {
    if (const char* env = std::getenv("GENIE_RELIABLE_WINDOW"); env != nullptr) {
      const unsigned long v = std::strtoul(env, nullptr, 0);
      if (v > 0) {
        return static_cast<std::uint32_t>(v);
      }
    }
    return 1u;
  }();
  return window;
}

WorkloadConfig SoakConfig(std::uint64_t seed, std::uint32_t window) {
  WorkloadConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 4;
  // Alternate topologies across the sweep so trunk links see loss too.
  cfg.fabric.topology =
      (seed % 2 == 0) ? Fabric::Topology::kStar : Fabric::Topology::kDumbbell;
  cfg.deadline = 20 * kMillisecond;

  ReliableOptions rel;
  rel.arq = true;
  rel.window = window;
  rel.seed = seed ^ 0xa5c3a5c3a5c3a5c3ULL;
  rel.watchdog_timeout = 400 * kMillisecond;
  cfg.reliable = rel;

  cfg.endpoint_options.enable_semantics_fallback = true;

  // Closed-loop tenants: one transfer in flight, so the full semantics
  // matrix can ride the lossy fabric with strict per-transfer golden checks.
  TenantClassConfig closed;
  closed.name = "closed";
  closed.tenants = 6;
  closed.transfers_per_tenant = 4;
  closed.min_bytes = 256;
  closed.max_bytes = 6000;
  closed.semantics_mix.assign(kAllSemantics.begin(), kAllSemantics.end());
  closed.max_retries = 4;
  cfg.classes.push_back(closed);

  // Open-loop tenants: several transfers in flight on one channel, where ARQ
  // retransmission can reorder datagrams across posted buffers. One
  // semantics per class — concurrent in-flight transfers on a channel share
  // the receiver's posted-buffer FIFO, so sender and receiver must agree.
  TenantClassConfig open;
  open.name = "open";
  open.tenants = 2;
  open.open_loop = true;
  open.transfers_per_tenant = 10;
  open.mean_interarrival = 300 * kMicrosecond;
  open.max_in_flight = 4;
  open.min_bytes = 512;
  open.max_bytes = 4096;
  open.semantics_mix = {Semantics::kEmulatedCopy};
  cfg.classes.push_back(open);
  return cfg;
}

struct SoakOutcome {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t giveups = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t frames_switched = 0;
  std::vector<std::string> violations;
};

SoakOutcome RunSoak(std::uint64_t seed, std::uint32_t window = SoakWindow()) {
  SoakOutcome out;
  Engine engine;
  const WorkloadConfig cfg = SoakConfig(seed, window);
  Workload wl(engine, cfg);

  // GENIE_RUN_REPORT=<prefix>: sample continuous telemetry during the soak
  // and leave "<prefix>.<seed>.json" behind for each replayed seed. The
  // sampler is probe-driven (no events, no RNG), so an instrumented replay
  // keeps the bare run's digest — the determinism assertions below hold
  // with or without the variable set.
  const char* report_prefix = std::getenv("GENIE_RUN_REPORT");
  if (report_prefix != nullptr) {
    Workload::TelemetryOptions topts;
    topts.sampler.period = 500 * kMicrosecond;
    wl.EnableTelemetry(topts);
  }

  // One deterministic fault plan shared by every node: 1% of frames vanish
  // on the wire, a sprinkle are duplicated. Uplink, trunk, and downlink hops
  // all feed the same adapter-level injection point.
  FaultPlan plan(seed ^ 0x4e11ab1e4e11ab1eULL);
  FaultRule drop;
  drop.site = FaultSite::kLinkDrop;
  drop.probability = 0.01;
  plan.AddRule(drop);
  FaultRule dup;
  dup.site = FaultSite::kLinkDuplicate;
  dup.probability = 0.005;
  plan.AddRule(dup);
  for (std::size_t i = 0; i < wl.node_count(); ++i) {
    wl.node(i).AttachFaultPlan(&plan);
  }

  wl.Run();
  if (report_prefix != nullptr) {
    const std::string path =
        std::string(report_prefix) + "." + std::to_string(seed) + ".json";
    std::ofstream report(path);
    if (report) {
      wl.WriteRunReport(report);
    }
  }
  out.violations = wl.violations();

  // Closed-loop accounting is exact: every transfer either completed (and
  // was byte-verified) or exhausted its retries; none may simply vanish.
  // (The deadline is generous — 20 ms for ~1 ms of traffic — so hitting it
  // would itself indicate a stall.)
  for (const TenantStats& t : wl.tenant_stats()) {
    if (t.class_index == 0 && t.completed + t.failed != 4) {
      std::ostringstream msg;
      msg << "seed " << seed << " channel " << t.channel << ": " << t.completed
          << " completed + " << t.failed << " failed != 4 issued";
      out.violations.push_back(msg.str());
    }
    out.completed += t.completed;
    out.failed += t.failed;
  }

  const InvariantReport quiescent = wl.CheckInvariants(/*expect_quiescent=*/true);
  for (const std::string& v : quiescent.violations) {
    out.violations.push_back("seed " + std::to_string(seed) + " quiescent: " + v);
  }

  for (std::size_t i = 0; i < wl.node_count(); ++i) {
    const ReliableDelivery::Stats& rel = wl.node(i).reliable().stats();
    out.retransmits += rel.retransmits;
    out.giveups += rel.giveups;
    out.link_drops += wl.node(i).adapter().link_frames_dropped();
  }
  out.digest = engine.event_digest();
  out.events = engine.events_executed();
  out.frames_switched = wl.fabric().frames_switched();
  return out;
}

TEST(FabricStressTest, LossySoakDeliversExactlyOnceAcrossSeeds) {
  std::uint64_t first = kFirstSeed;
  int count = kSeedCount;
  if (const char* env = std::getenv("GENIE_FABRIC_SEED"); env != nullptr) {
    first = std::strtoull(env, nullptr, 0);
    count = 1;
    std::printf("[fabric-stress] replaying single seed %llu\n",
                static_cast<unsigned long long>(first));
  }

  std::uint64_t total_completed = 0;
  std::uint64_t total_failed = 0;
  std::uint64_t total_retransmits = 0;
  std::uint64_t total_drops = 0;
  std::uint64_t total_switched = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = first + static_cast<std::uint64_t>(i);
    const SoakOutcome out = RunSoak(seed);
    ASSERT_TRUE(out.violations.empty())
        << "replay with GENIE_FABRIC_SEED=" << seed << "\n"
        << [&] {
             std::ostringstream all;
             for (const std::string& v : out.violations) {
               all << "  " << v << "\n";
             }
             return all.str();
           }();
    // 1% loss must never exhaust the ARQ retry budget.
    EXPECT_EQ(out.giveups, 0u) << "seed " << seed;
    total_completed += out.completed;
    total_failed += out.failed;
    total_retransmits += out.retransmits;
    total_drops += out.link_drops;
    total_switched += out.frames_switched;
  }
  std::printf(
      "[fabric-stress] window=%u seeds=%d completed=%llu failed=%llu drops=%llu "
      "retransmits=%llu frames_switched=%llu\n",
      SoakWindow(), count, static_cast<unsigned long long>(total_completed),
      static_cast<unsigned long long>(total_failed),
      static_cast<unsigned long long>(total_drops),
      static_cast<unsigned long long>(total_retransmits),
      static_cast<unsigned long long>(total_switched));

  if (count > 1) {
    // The sweep must exercise the machinery, not just survive it: frames
    // crossed switch links, some were dropped, and ARQ recovered them.
    EXPECT_GT(total_completed, 0u);
    EXPECT_GT(total_drops, 0u);
    EXPECT_GT(total_retransmits, 0u);
    EXPECT_GT(total_switched, 0u);
    // With retries on top of 1% loss, failures should be essentially absent.
    EXPECT_LE(total_failed * 100, total_completed);
  }
}

// The first 20 seeds' schedules at windows 1 and 16, folded in seed order
// (tests/soak_golden.h): a change that moves any event of the fabric soak,
// such as a SACK train or a nack cell, fails here naming the window.
TEST(FabricStressTest, ScheduleGoldenAtWindows1And16) {
  for (const auto& [window, golden] :
       {std::pair{1u, 0xf22d12e82f3e1a15ull}, std::pair{16u, 0x21f91ef4000d0564ull}}) {
    const std::uint64_t fold = FoldSoakSchedules(kFirstSeed, window, RunSoak);
    EXPECT_EQ(fold, golden) << "fabric soak schedule golden moved at window " << window
                            << ": fold 0x" << std::hex << fold;
  }
}

// A soak seed is only a usable bug report if its whole schedule — arrival
// processes, DRR grants, loss injection, ARQ timers — replays bit-for-bit.
TEST(FabricStressTest, SameSeedReplaysIdenticalSchedule) {
  const SoakOutcome a = RunSoak(kFirstSeed + 7);
  const SoakOutcome b = RunSoak(kFirstSeed + 7);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.link_drops, b.link_drops);
  EXPECT_EQ(a.frames_switched, b.frames_switched);
}

}  // namespace
}  // namespace genie
