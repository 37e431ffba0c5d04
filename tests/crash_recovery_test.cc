// Crash-stop node failures, epoch-fenced recovery, and partition healing.
//
// The scenarios here pin the recovery state machine end to end:
//   * a sender crash mid-frame resolves the in-flight output as
//     IoStatus::kPeerCrashed while the bytes already on the wire still land
//     exactly once at the receiver;
//   * a receiver crash silently swallows retransmits until restart, after
//     which the stale-epoch fence bounces the sender into an abort + resync
//     handshake, and the next transfer flows under the new incarnation;
//   * crashed nodes fail new I/O fast without touching the VM, and the first
//     post-restart contact performs epoch discovery (fence, resync, resume);
//   * outputs started while the receiver is down fail with kPeerCrashed once
//     the fence reveals its new incarnation, including outputs still waiting
//     for the send window, so none lands in a buffer the rebooted receiver
//     posted for a later transfer;
//   * seeded crash injection (FaultSite::kNodeCrash) crash-stops and restarts
//     a node on schedule, deterministically;
//   * a dumbbell trunk partition that heals inside the ARQ retry budget
//     completes every transfer exactly once, and one that outlasts the budget
//     surfaces kGiveUp / watchdog cancels — never silent loss — with every
//     node quiescently clean afterwards.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/workload.h"
#include "src/mem/fault_plan.h"
#include "src/util/units.h"
#include "tests/genie_test_util.h"

namespace genie {
namespace {

constexpr std::uint64_t kPage = 4096;
// One maximal-ish AAL5 frame: ~3.67 ms of wire time on MicronP166, so a
// crash scheduled at 2 ms lands mid-frame for any plausible prepare cost.
constexpr std::uint64_t kBigLen = 60 * 1024;
constexpr Vaddr kSrc = 0x20000000;
constexpr Vaddr kDst = 0x30000000;

ReliableOptions CrashArq(std::uint32_t window) {
  ReliableOptions opts;
  opts.arq = true;
  opts.window = window;
  opts.jitter_frac = 0.0;  // deterministic retransmit timeline
  opts.initial_timeout = 2 * kMillisecond;
  opts.max_timeout = 8 * kMillisecond;
  return opts;
}

struct CrashRig : Rig {
  explicit CrashRig(std::uint32_t window = 1) : Rig() {
    sender.EnableReliableDelivery(CrashArq(window));
    receiver.EnableReliableDelivery(CrashArq(window));
    tx_app.CreateRegion(kSrc, 16 * kPage, RegionState::kUnmovable);
    rx_app.CreateRegion(kDst, 16 * kPage);
  }

  void WritePattern(std::uint64_t len, unsigned char seed) {
    const std::vector<std::byte> payload = TestPattern(len, seed);
    GENIE_CHECK(tx_app.Write(kSrc, payload) == AccessResult::kOk);
  }
};

TEST(CrashRecoveryTest, SenderCrashMidFrameFailsOutputOnceAndRestartResumes) {
  CrashRig rig;
  rig.WritePattern(kBigLen, 3);
  // The frame is on the wire well before 2 ms and still streaming after it.
  rig.engine.ScheduleAt(2 * kMillisecond, [&] { rig.sender.Crash(); });

  const InputResult first = rig.Transfer(kSrc, kDst, kBigLen, Semantics::kEmulatedCopy);

  // The incarnation died: the output is reported crashed exactly once...
  EXPECT_TRUE(rig.sender.crashed());
  EXPECT_EQ(rig.sender.epoch(), 2u);
  EXPECT_EQ(rig.sender.crashes(), 1u);
  EXPECT_EQ(rig.tx_ep.stats().failed_outputs, 1u);
  EXPECT_EQ(rig.sender.reliable().stats().peer_crash_aborts, 1u);
  // ...but the bytes the DMA engine had already committed to the wire reach
  // the live receiver exactly once, with golden payload.
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(rig.ReadBack(kDst, kBigLen), TestPattern(kBigLen, 3));

  // New I/O on the dead incarnation fails fast, without touching the VM.
  std::move(rig.tx_ep.Output(rig.tx_app, kSrc, kPage, Semantics::kEmulatedCopy)).Detach();
  rig.engine.Run();
  EXPECT_EQ(rig.tx_ep.stats().failed_outputs, 2u);
  rig.ExpectQuiescent();

  // Restart: same epoch (bumped at crash time), traffic flows again. The
  // receiver sees src_epoch 2 > 1 and advances its dedup floor.
  rig.sender.Restart();
  EXPECT_FALSE(rig.sender.crashed());
  rig.WritePattern(kBigLen, 4);
  const InputResult second = rig.Transfer(kSrc, kDst, kBigLen, Semantics::kEmulatedCopy);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(rig.ReadBack(kDst, kBigLen), TestPattern(kBigLen, 4));
  EXPECT_EQ(rig.tx_ep.stats().failed_outputs, 2u);
  rig.ExpectQuiescent();
}

TEST(CrashRecoveryTest, ReceiverCrashFencesSenderThenResyncRestoresExactlyOnce) {
  CrashRig rig;
  rig.WritePattern(kBigLen, 5);
  // Crash mid-receive at 2 ms; restart at 8 ms. The sender's retransmit at
  // ~5.7 ms hits the dead node (silent drop); the one at ~13.4 ms hits the
  // restarted epoch-2 node and is fenced (dst_epoch 1 < 2).
  rig.engine.ScheduleAt(2 * kMillisecond, [&] { rig.receiver.Crash(); });
  rig.engine.ScheduleAt(8 * kMillisecond, [&] { rig.receiver.Restart(); });

  const InputResult first = rig.Transfer(kSrc, kDst, kBigLen, Semantics::kEmulatedCopy);

  // The pre-crash posted input died with the incarnation.
  EXPECT_FALSE(first.ok);
  EXPECT_EQ(first.status, IoStatus::kPeerCrashed);
  EXPECT_EQ(rig.rx_ep.stats().failed_inputs, 1u);
  EXPECT_EQ(rig.receiver.crashes(), 1u);
  EXPECT_EQ(rig.receiver.epoch(), 2u);
  EXPECT_FALSE(rig.receiver.crashed());
  // Dead-node and dead-epoch frames were counted, never delivered.
  EXPECT_GE(rig.receiver.adapter().crash_frame_drops(), 1u);
  EXPECT_GE(rig.receiver.adapter().stale_epoch_frame_drops(), 1u);

  // The fence aborted the sender's transfer and drove the resync handshake.
  const ReliableDelivery::Stats& rel = rig.sender.reliable().stats();
  EXPECT_EQ(rel.epoch_bumps, 1u);
  EXPECT_GE(rel.resyncs, 1u);
  EXPECT_EQ(rel.peer_crash_aborts, 1u);
  EXPECT_GE(rel.retransmits, 2u);
  EXPECT_EQ(rel.giveups, 0u);  // crash abort, not budget exhaustion
  EXPECT_EQ(rig.tx_ep.stats().failed_outputs, 1u);
  EXPECT_EQ(rig.sender.reliable().PeerEpoch(1), 2u);
  EXPECT_FALSE(rig.sender.reliable().Resyncing(1));
  rig.ExpectQuiescent();

  // Post-resync traffic flows under the new incarnation, exactly once.
  rig.WritePattern(kBigLen, 6);
  const InputResult second = rig.Transfer(kSrc, kDst, kBigLen, Semantics::kEmulatedCopy);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(rig.ReadBack(kDst, kBigLen), TestPattern(kBigLen, 6));
  rig.ExpectQuiescent();
}

TEST(CrashRecoveryTest, CrashedNodesFailFastAndFirstContactPerformsEpochDiscovery) {
  CrashRig rig;
  rig.WritePattern(kPage, 7);
  rig.sender.Crash();
  rig.receiver.Crash();

  // Output on a crashed node: rejected synchronously, no VM churn.
  std::move(rig.tx_ep.Output(rig.tx_app, kSrc, kPage, Semantics::kEmulatedCopy)).Detach();
  EXPECT_EQ(rig.tx_ep.stats().failed_outputs, 1u);
  // Input on a crashed node: kPeerCrashed before any buffer is posted.
  InputResult dead;
  auto input_driver = [](Endpoint& ep, AddressSpace& app, InputResult* out) -> Task<void> {
    *out = co_await ep.Input(app, kDst, kPage, Semantics::kEmulatedCopy);
  };
  std::move(input_driver(rig.rx_ep, rig.rx_app, &dead)).Detach();
  rig.engine.Run();
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.status, IoStatus::kPeerCrashed);
  EXPECT_EQ(rig.rx_ep.stats().failed_inputs, 1u);
  rig.ExpectQuiescent();

  rig.sender.Restart();
  rig.receiver.Restart();

  // First contact: the sender still believes the receiver is epoch 1, so the
  // probe frame is fenced; the fence teaches it epoch 2 and resyncs.
  std::move(rig.tx_ep.Output(rig.tx_app, kSrc, kPage, Semantics::kEmulatedCopy)).Detach();
  rig.engine.Run();
  EXPECT_EQ(rig.tx_ep.stats().failed_outputs, 2u);
  EXPECT_EQ(rig.sender.reliable().stats().epoch_bumps, 1u);
  EXPECT_GE(rig.sender.reliable().stats().resyncs, 1u);
  EXPECT_EQ(rig.sender.reliable().PeerEpoch(1), 2u);
  rig.ExpectQuiescent();

  // Epoch discovered: the next transfer flows first try.
  const InputResult ok = rig.Transfer(kSrc, kDst, kPage, Semantics::kEmulatedCopy);
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(rig.ReadBack(kDst, kPage), TestPattern(kPage, 7));
  EXPECT_EQ(rig.sender.epoch(), 2u);
  EXPECT_EQ(rig.receiver.epoch(), 2u);
  rig.ExpectQuiescent();
}

TEST(CrashRecoveryTest, OutputsAddressedToDeadIncarnationFailEvenBeforeWindowAdmitsThem) {
  auto post_input = [](Endpoint& ep, AddressSpace& app, InputResult* out) -> Task<void> {
    *out = co_await ep.Input(app, kDst, kPage, Semantics::kEmulatedCopy);
  };
  auto drain = [](Endpoint& ep) -> Task<void> { co_await ep.Drain(); };
  for (const std::uint32_t window : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "window " << window);
    CrashRig rig(window);
    rig.receiver.Crash();

    // Three outputs started while the receiver is down: the window admits
    // the first `window` of them (their frames die with the dead node, and
    // their retransmits after the restart are fenced); the rest wait.
    for (std::uint64_t i = 0; i < 3; ++i) {
      const Vaddr src = kSrc + i * kPage;
      GENIE_CHECK(rig.tx_app.Write(src, TestPattern(kPage, static_cast<unsigned char>(11 + i))) ==
                  AccessResult::kOk);
      Endpoint::SubmitEntry entry;
      entry.op = Endpoint::SubmitEntry::Op::kOutput;
      entry.app = &rig.tx_app;
      entry.va = src;
      entry.len = kPage;
      entry.sem = Semantics::kEmulatedCopy;
      entry.user_data = i;
      ASSERT_TRUE(rig.tx_ep.Submit(entry));
    }
    std::move(drain(rig.tx_ep)).Detach();
    // The rebooted receiver posts a fresh buffer for its next transfer.
    InputResult fresh;
    rig.engine.ScheduleAt(3 * kMillisecond, [&] {
      rig.receiver.Restart();
      std::move(post_input(rig.rx_ep, rig.rx_app, &fresh)).Detach();
    });
    rig.engine.Run();

    // Every output was addressed to the dead incarnation, so every one fails
    // loudly, the one the window had not admitted when the fence arrived
    // included.
    std::vector<Endpoint::Completion> done;
    ASSERT_EQ(rig.tx_ep.Harvest(&done), 3u);
    for (const Endpoint::Completion& c : done) {
      EXPECT_EQ(c.status, IoStatus::kPeerCrashed) << "output " << c.user_data;
    }
    const ReliableDelivery::Stats& rel = rig.sender.reliable().stats();
    EXPECT_EQ(rel.epoch_bumps, 1u);
    EXPECT_EQ(rel.peer_crash_aborts, 3u);
    EXPECT_EQ(rig.sender.reliable().PeerEpoch(1), 2u);
    EXPECT_FALSE(rig.sender.reliable().Resyncing(1));

    // The fresh buffer receives the fresh output, not a stale one.
    const Vaddr src = kSrc + 3 * kPage;
    GENIE_CHECK(rig.tx_app.Write(src, TestPattern(kPage, 14)) == AccessResult::kOk);
    std::move(rig.tx_ep.Output(rig.tx_app, src, kPage, Semantics::kEmulatedCopy)).Detach();
    rig.engine.Run();
    ASSERT_TRUE(fresh.ok);
    EXPECT_EQ(rig.ReadBack(kDst, kPage), TestPattern(kPage, 14));
    EXPECT_EQ(rig.tx_ep.stats().failed_outputs, 3u);
    rig.ExpectQuiescent();
  }
}

TEST(CrashRecoveryTest, ArmedCrashInjectionCrashesAndRestartsOnSchedule) {
  CrashRig rig;
  FaultPlan plan(77);
  FaultRule crash;
  crash.site = FaultSite::kNodeCrash;
  crash.nth = 2;  // second 50 us tick = 100 us
  crash.max_fires = 1;
  crash.arg = 300 * 1000;  // restart 300 us after the crash
  plan.AddRule(crash);
  rig.sender.ArmCrashInjection(&plan, 50 * kMicrosecond, kMillisecond,
                               /*restart_delay=*/100 * kMicrosecond);
  rig.engine.Run();

  EXPECT_EQ(rig.sender.crashes(), 1u);
  EXPECT_EQ(rig.sender.epoch(), 2u);
  EXPECT_FALSE(rig.sender.crashed());  // rule arg restarted it at 400 us
  EXPECT_GE(plan.site_ops(FaultSite::kNodeCrash), 2u);

  // The rebooted incarnation carries live traffic.
  rig.WritePattern(kPage, 9);
  const InputResult result = rig.Transfer(kSrc, kDst, kPage, Semantics::kEmulatedCopy);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(rig.ReadBack(kDst, kPage), TestPattern(kPage, 9));
  rig.ExpectQuiescent();
}

// --- Fabric partition scenarios (Workload over a dumbbell) ---

WorkloadConfig PartitionConfig(std::uint32_t max_retransmits, SimTime initial_timeout,
                               SimTime watchdog) {
  WorkloadConfig cfg;
  cfg.seed = 1234;
  cfg.nodes = 2;
  cfg.fabric.topology = Fabric::Topology::kDumbbell;

  ReliableOptions rel;
  rel.arq = true;
  rel.window = 4;
  rel.jitter_frac = 0.0;
  rel.max_retransmits = max_retransmits;
  rel.initial_timeout = initial_timeout;
  rel.max_timeout = 8 * initial_timeout;
  rel.watchdog_timeout = watchdog;
  cfg.reliable = rel;

  TenantClassConfig closed;
  closed.name = "closed";
  closed.tenants = 2;  // one per node; all traffic crosses the trunk
  closed.transfers_per_tenant = 3;
  closed.min_bytes = kPage;
  closed.max_bytes = kPage;
  closed.max_retries = 1;
  cfg.classes.push_back(closed);
  return cfg;
}

TEST(CrashRecoveryTest, TrunkPartitionHealingInsideBudgetCompletesExactlyOnce) {
  Engine engine;
  // Generous budget: 10 retries with 300 us..2.4 ms backoff rides out the
  // 2.8 ms outage with room to spare.
  Workload wl(engine, PartitionConfig(/*max_retransmits=*/10,
                                      /*initial_timeout=*/300 * kMicrosecond,
                                      /*watchdog=*/50 * kMillisecond));
  engine.ScheduleAt(200 * kMicrosecond, [&] {
    wl.fabric().SetTrunkDown(0);
    wl.fabric().SetTrunkDown(1);
  });
  engine.ScheduleAt(3 * kMillisecond, [&] { wl.fabric().HealAll(); });
  wl.Run();

  EXPECT_TRUE(wl.violations().empty());
  for (const TenantStats& t : wl.tenant_stats()) {
    EXPECT_EQ(t.completed, 3u) << "channel " << t.channel;
    EXPECT_EQ(t.failed, 0u) << "channel " << t.channel;
  }
  EXPECT_EQ(wl.fabric().link_flaps(), 2u);
  std::uint64_t retransmits = 0;
  std::uint64_t giveups = 0;
  std::uint64_t down_drops = wl.fabric().link_down_drops();
  for (std::size_t i = 0; i < wl.node_count(); ++i) {
    retransmits += wl.node(i).reliable().stats().retransmits;
    giveups += wl.node(i).reliable().stats().giveups;
    down_drops += wl.node(i).adapter().link_down_drops();
  }
  EXPECT_GE(retransmits, 1u);  // the partition actually cost frames
  EXPECT_GE(down_drops, 1u);
  EXPECT_EQ(giveups, 0u);  // ...but never the whole budget
  const InvariantReport report = wl.CheckInvariants(/*expect_quiescent=*/true);
  EXPECT_TRUE(report.violations.empty());
}

TEST(CrashRecoveryTest, PartitionOutlastingBudgetSurfacesGiveUpNeverSilentLoss) {
  Engine engine;
  // Tight budget: 2 retries x <=400 us can never bridge a permanent outage;
  // the 5 ms watchdog reclaims the receivers' parked inputs.
  Workload wl(engine, PartitionConfig(/*max_retransmits=*/2,
                                      /*initial_timeout=*/200 * kMicrosecond,
                                      /*watchdog=*/5 * kMillisecond));
  engine.ScheduleAt(50 * kMicrosecond, [&] {
    wl.fabric().SetTrunkDown(0);
    wl.fabric().SetTrunkDown(1);
  });
  wl.Run();

  EXPECT_TRUE(wl.violations().empty());
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (const TenantStats& t : wl.tenant_stats()) {
    EXPECT_EQ(t.completed + t.failed, 3u) << "channel " << t.channel;
    completed += t.completed;
    failed += t.failed;
  }
  // At most the pre-partition instants complete; everything else fails
  // loudly. Nothing may vanish without a verdict.
  EXPECT_GT(failed, 0u);
  std::uint64_t giveups = 0;
  std::uint64_t watchdog_cancels = 0;
  for (std::size_t i = 0; i < wl.node_count(); ++i) {
    giveups += wl.node(i).reliable().stats().giveups;
    watchdog_cancels += wl.node(i).reliable().stats().watchdog_cancels;
  }
  EXPECT_GE(giveups, 1u);
  EXPECT_GE(watchdog_cancels, 1u);
  const InvariantReport report = wl.CheckInvariants(/*expect_quiescent=*/true);
  EXPECT_TRUE(report.violations.empty());
}

}  // namespace
}  // namespace genie
