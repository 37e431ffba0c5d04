// Deterministic crash/partition soak: 200 seeds of mixed closed/open-loop
// traffic over a lossy 4-node fabric while seeded crash injection reboots
// nodes mid-traffic and a seeded flap schedule partitions and heals links.
// Every seed must keep closed-loop accounting exact (every transfer either
// completes with golden bytes or fails loudly — give-up, watchdog cancel, or
// kPeerCrashed; none may vanish), and leave every node's VM quiescently
// clean, including nodes that crash-stopped and restarted during the run.
//
// Replay one seed with
//   GENIE_CRASH_SEED=<seed> ./crash_recovery_stress_test
// Sweep the selective-repeat window (CI runs {1, 2, 16}) with
//   GENIE_RELIABLE_WINDOW=<w> ./crash_recovery_stress_test
// A fixed sweep of the first 50 seeds at windows {2, 4} always runs too:
// narrow windows keep outputs waiting for admission across peer reboots,
// which is where an output addressed to a dead incarnation could slip
// through.
#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "src/harness/workload.h"
#include "src/mem/fault_plan.h"
#include "src/util/units.h"

namespace genie {
namespace {

constexpr std::uint64_t kFirstSeed = 11000;
constexpr int kSeedCount = 200;
// Crash/flap chaos is confined to the first 6 ms; injected restarts land by
// 6.5 ms, so traffic started after the window completes cleanly and the
// deadline only backstops a genuine stall.
constexpr SimTime kChaosHorizon = 6 * kMillisecond;
constexpr SimTime kRestartDelay = 500 * kMicrosecond;

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
  // Alternate topologies so trunk outages (dumbbell) and per-port outages
  // (star) both see crash traffic across the sweep.
  cfg.fabric.topology =
      (seed % 2 == 0) ? Fabric::Topology::kStar : Fabric::Topology::kDumbbell;
  cfg.deadline = 100 * kMillisecond;

  ReliableOptions rel;
  rel.arq = true;
  rel.window = window;
  rel.seed = seed ^ 0xa5c3a5c3a5c3a5c3ULL;
  // A real watchdog: inputs orphaned by a peer crash or a partition that
  // outlasts the retry budget must be reclaimed, not parked forever.
  rel.initial_timeout = 300 * kMicrosecond;
  rel.max_timeout = 2 * kMillisecond;
  rel.watchdog_timeout = 5 * kMillisecond;
  cfg.reliable = rel;

  cfg.endpoint_options.enable_semantics_fallback = true;

  // Closed-loop tenants: retried on recoverable failure (including
  // kPeerCrashed — crash-caused attempts roll up as crash_retries).
  TenantClassConfig closed;
  closed.name = "closed";
  closed.tenants = 6;
  closed.transfers_per_tenant = 4;
  closed.min_bytes = 256;
  closed.max_bytes = 6000;
  closed.semantics_mix.assign(kAllSemantics.begin(), kAllSemantics.end());
  closed.max_retries = 4;
  cfg.classes.push_back(closed);

  // Open-loop tenants with tenant_restart: a transfer killed by a peer
  // crash-stop is re-issued after backoff instead of dropped.
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
  open.tenant_restart = true;
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
  std::uint64_t crashes = 0;
  std::uint64_t link_flaps = 0;
  std::uint64_t epoch_bumps = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t peer_crash_aborts = 0;
  std::uint64_t crash_frame_drops = 0;
  std::uint64_t stale_epoch_drops = 0;
  std::uint64_t crash_retries = 0;
  std::vector<std::string> violations;
};

SoakOutcome RunSoak(std::uint64_t seed, std::uint32_t window = SoakWindow()) {
  SoakOutcome out;
  Engine engine;
  const WorkloadConfig cfg = SoakConfig(seed, window);
  Workload wl(engine, cfg);

  // One deterministic fault plan shared by every node: background link loss
  // keeps ARQ busy, and every 250 us each node's crash tick rolls a 2%
  // chance of a crash-stop (restarting kRestartDelay later).
  FaultPlan plan(seed ^ 0x4e11ab1e4e11ab1eULL);
  FaultRule drop;
  drop.site = FaultSite::kLinkDrop;
  drop.probability = 0.005;
  plan.AddRule(drop);
  FaultRule crash;
  crash.site = FaultSite::kNodeCrash;
  crash.probability = 0.02;
  plan.AddRule(crash);
  for (std::size_t i = 0; i < wl.node_count(); ++i) {
    wl.node(i).AttachFaultPlan(&plan);
    wl.node(i).ArmCrashInjection(&plan, 250 * kMicrosecond, kChaosHorizon, kRestartDelay);
  }
  // Seeded link flaps over the same window: partitions that heal.
  wl.fabric().ScheduleFlaps(seed ^ 0xf1af5c7ef1af5c7eULL, kChaosHorizon,
                            /*mean_period=*/2 * kMillisecond,
                            /*mean_outage=*/300 * kMicrosecond);

  wl.Run();
  out.violations = wl.violations();

  // Closed-loop accounting stays exact under crash-stop chaos: every
  // transfer either completed (byte-verified) or failed with a verdict.
  for (const TenantStats& t : wl.tenant_stats()) {
    if (t.class_index == 0 && t.completed + t.failed != 4) {
      std::ostringstream msg;
      msg << "seed " << seed << " channel " << t.channel << ": " << t.completed
          << " completed + " << t.failed << " failed != 4 issued";
      out.violations.push_back(msg.str());
    }
    out.completed += t.completed;
    out.failed += t.failed;
    out.crash_retries += t.crash_retries;
  }

  // Every node — including every rebooted incarnation — must be quiescently
  // clean: no leaked I/O refs, wired pages, hidden regions, or zombie frames.
  const InvariantReport quiescent = wl.CheckInvariants(/*expect_quiescent=*/true);
  for (const std::string& v : quiescent.violations) {
    out.violations.push_back("seed " + std::to_string(seed) + " quiescent: " + v);
  }

  for (std::size_t i = 0; i < wl.node_count(); ++i) {
    Node& node = wl.node(i);
    const ReliableDelivery::Stats& rel = node.reliable().stats();
    out.retransmits += rel.retransmits;
    out.giveups += rel.giveups;
    out.epoch_bumps += rel.epoch_bumps;
    out.resyncs += rel.resyncs;
    out.peer_crash_aborts += rel.peer_crash_aborts;
    out.crashes += node.crashes();
    out.crash_frame_drops += node.adapter().crash_frame_drops();
    out.stale_epoch_drops += node.adapter().stale_epoch_drops();
    if (node.crashed()) {
      out.violations.push_back("seed " + std::to_string(seed) + " node " +
                               std::to_string(i) + " still crashed at quiescence");
    }
  }
  out.link_flaps = wl.fabric().link_flaps();
  out.digest = engine.event_digest();
  out.events = engine.events_executed();
  return out;
}

std::string Describe(const SoakOutcome& out) {
  std::ostringstream all;
  for (const std::string& v : out.violations) {
    all << "  " << v << "\n";
  }
  return all.str();
}

TEST(CrashRecoveryStressTest, CrashAndPartitionSoakKeepsAccountingExactAcrossSeeds) {
  std::uint64_t first = kFirstSeed;
  int count = kSeedCount;
  if (const char* env = std::getenv("GENIE_CRASH_SEED"); env != nullptr) {
    first = std::strtoull(env, nullptr, 0);
    count = 1;
    std::printf("[crash-stress] replaying single seed %llu\n",
                static_cast<unsigned long long>(first));
  }

  SoakOutcome total;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = first + static_cast<std::uint64_t>(i);
    const SoakOutcome out = RunSoak(seed);
    ASSERT_TRUE(out.violations.empty())
        << "replay with GENIE_CRASH_SEED=" << seed << "\n" << Describe(out);
    total.completed += out.completed;
    total.failed += out.failed;
    total.retransmits += out.retransmits;
    total.giveups += out.giveups;
    total.crashes += out.crashes;
    total.link_flaps += out.link_flaps;
    total.epoch_bumps += out.epoch_bumps;
    total.resyncs += out.resyncs;
    total.peer_crash_aborts += out.peer_crash_aborts;
    total.crash_frame_drops += out.crash_frame_drops;
    total.stale_epoch_drops += out.stale_epoch_drops;
    total.crash_retries += out.crash_retries;
  }
  std::printf(
      "[crash-stress] window=%u seeds=%d completed=%llu failed=%llu crashes=%llu "
      "flaps=%llu epoch_bumps=%llu resyncs=%llu crash_aborts=%llu "
      "crash_drops=%llu stale_drops=%llu crash_retries=%llu retransmits=%llu "
      "giveups=%llu\n",
      SoakWindow(), count, static_cast<unsigned long long>(total.completed),
      static_cast<unsigned long long>(total.failed),
      static_cast<unsigned long long>(total.crashes),
      static_cast<unsigned long long>(total.link_flaps),
      static_cast<unsigned long long>(total.epoch_bumps),
      static_cast<unsigned long long>(total.resyncs),
      static_cast<unsigned long long>(total.peer_crash_aborts),
      static_cast<unsigned long long>(total.crash_frame_drops),
      static_cast<unsigned long long>(total.stale_epoch_drops),
      static_cast<unsigned long long>(total.crash_retries),
      static_cast<unsigned long long>(total.retransmits),
      static_cast<unsigned long long>(total.giveups));

  if (count > 1) {
    // The sweep must exercise the whole recovery machine, not just survive
    // it: nodes actually crashed and restarted, links flapped, dead-node and
    // dead-epoch frames were dropped, fences drove resyncs, and traffic
    // still flowed. (Give-ups are legal here — a partition can outlast the
    // retry budget — so unlike the lossy soak they are reported, not zero.)
    EXPECT_GT(total.completed, 0u);
    EXPECT_GT(total.crashes, 0u);
    EXPECT_GT(total.link_flaps, 0u);
    EXPECT_GT(total.retransmits, 0u);
    EXPECT_GT(total.peer_crash_aborts, 0u);
    EXPECT_GT(total.crash_frame_drops, 0u);
    EXPECT_GT(total.epoch_bumps, 0u);
    EXPECT_GT(total.resyncs, 0u);
    EXPECT_GT(total.stale_epoch_drops, 0u);
    // Chaos is bounded: most transfers still complete across the sweep.
    EXPECT_GT(total.completed, total.failed);
  }
}

// Windows 2 and 4 over the first 50 seeds, whatever GENIE_RELIABLE_WINDOW
// says: an output waiting for the window while its peer reboots must fail
// once the fence arrives, not take a fresh sequence number and land in a
// buffer the new incarnation posted for a later transfer (a corrupt
// payload in the closed-loop accounting).
TEST(CrashRecoveryStressTest, NarrowWindowsNeverDeliverToARebootedPeer) {
  for (const std::uint32_t window : {2u, 4u}) {
    for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + 50; ++seed) {
      const SoakOutcome out = RunSoak(seed, window);
      ASSERT_TRUE(out.violations.empty())
          << "replay with GENIE_CRASH_SEED=" << seed << " GENIE_RELIABLE_WINDOW=" << window
          << "\n"
          << Describe(out);
    }
  }
}

// A crash seed is only a usable bug report if the whole schedule — arrival
// processes, crash ticks, flap outages, ARQ timers, resync handshakes —
// replays bit-for-bit.
TEST(CrashRecoveryStressTest, SameSeedReplaysIdenticalSchedule) {
  const SoakOutcome a = RunSoak(kFirstSeed + 13);
  const SoakOutcome b = RunSoak(kFirstSeed + 13);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.link_flaps, b.link_flaps);
  EXPECT_EQ(a.epoch_bumps, b.epoch_bumps);
  EXPECT_EQ(a.retransmits, b.retransmits);
}

}  // namespace
}  // namespace genie
