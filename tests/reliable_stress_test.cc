// Randomized stress for the reliable delivery layer: the full fault site set
// (minus short transfers, which are a transport-checksum concern, not a
// link-recovery one) is injected under ARQ + semantics fallback + transfer
// watchdogs. Lost, duplicated, reordered and corrupted frames must all
// converge to exactly-once host delivery: every completed transfer matches
// the golden payload byte-for-byte, every failed transfer unwinds completely,
// and whole-VM invariants hold mid-flight and quiescently.
//
// Replay one seed with
//   GENIE_RELIABLE_SEED=<seed> ./reliable_stress_test
// Run the sweep under a selective-repeat window (both peers) with
//   GENIE_RELIABLE_WINDOW=<w> ./reliable_stress_test   (default 1)
#include <array>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "src/obs/flight_recorder.h"
#include "tests/fault_test_util.h"
#include "tests/soak_golden.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
constexpr Vaddr kSrcBase = 0x20000000;
constexpr Vaddr kDstBase = 0x30000000;
constexpr int kTransfersPerSeed = 6;
constexpr std::uint64_t kFirstSeed = 7000;
constexpr int kSeedCount = 200;  // 200 seeds x 6 transfers = 1200 interleavings

struct IterationOutcome {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t injected = 0;
  int ok_transfers = 0;
  int failed_transfers = 0;
  int skipped_fills = 0;
  int skipped_verifies = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t watchdog_cancels = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::vector<std::string> violations;
};

// Everything except kDeviceShortTransfer: a passed-CRC truncation is
// indistinguishable from a legitimate short datagram at the link layer, so
// ARQ rightly acks it — recovery belongs to the transport checksum
// (genie_checksum_test), not to this harness's byte-exactness assertions.
constexpr FaultSite kReliableSitePool[] = {
    FaultSite::kFrameAllocate,  FaultSite::kFrameAllocateRun, FaultSite::kBackingWrite,
    FaultSite::kBackingRead,    FaultSite::kDeviceError,      FaultSite::kDeviceDelay,
    FaultSite::kPageoutPressure, FaultSite::kLinkDrop,        FaultSite::kLinkDuplicate,
    FaultSite::kLinkReorder,
};

FaultRule RandomRule(SplitMix64& rng) {
  FaultRule rule;
  rule.site = kReliableSitePool[rng.Below(std::size(kReliableSitePool))];
  if (rng.Chance(0.6)) {
    rule.nth = 1 + rng.Below(6);
  } else {
    rule.probability = 0.02 + 0.13 * rng.NextDouble();
  }
  if (rng.Chance(0.3)) {
    rule.window_begin = MicrosToSimTime(static_cast<double>(rng.Below(300)));
    rule.window_end = rule.window_begin + MicrosToSimTime(static_cast<double>(50 + rng.Below(200)));
  }
  rule.max_fires = 1 + rng.Below(3);
  switch (rule.site) {
    case FaultSite::kDeviceDelay:
      rule.arg = rng.Range(1000, 150000);  // extra ns
      break;
    case FaultSite::kPageoutPressure:
      rule.arg = 1 + rng.Below(3);  // frames per tick
      break;
    case FaultSite::kLinkReorder:
      rule.arg = rng.Range(5000, 80000);  // hold time ns
      break;
    default:
      break;
  }
  return rule;
}

// Selective-repeat window applied to every rig in this binary; CI runs the
// sweep at {1, 2, 16} so a single frame in flight, a narrow window and a
// deep pipeline face the same fault schedules.
std::uint32_t StressWindow() {
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

ReliableOptions StressReliableOptions(std::uint64_t seed,
                                      std::uint32_t window = StressWindow()) {
  ReliableOptions opts;
  opts.arq = true;
  opts.window = window;
  opts.seed = seed ^ 0xa5c3a5c3a5c3a5c3ULL;
  // Generous relative to the worst-case backoff ladder (~160 ms with the
  // defaults): the watchdog must only catch genuinely stuck transfers, never
  // one the ARQ is still legitimately recovering.
  opts.watchdog_timeout = 400 * kMillisecond;
  return opts;
}

IterationOutcome RunIteration(std::uint64_t seed, std::uint32_t window = StressWindow()) {
  IterationOutcome out;
  SplitMix64 rng(seed ^ 0x4e11ab1e4e11ab1eULL);

  const auto buffering = static_cast<InputBuffering>(rng.Below(3));
  GenieOptions options;
  options.checksum_mode = static_cast<ChecksumMode>(rng.Below(3));
  options.enable_semantics_fallback = true;
  FaultRig rig(seed, buffering, options, /*mem_frames=*/384);
  rig.sender.EnableReliableDelivery(StressReliableOptions(seed, window));
  rig.receiver.EnableReliableDelivery(StressReliableOptions(seed ^ 1, window));

  // Flight recorder over both nodes: dumps the trace ring on any invariant
  // violation and on every watchdog cancel (a cancelled transfer is exactly
  // the situation the last-N-events ring exists to explain). Recording adds
  // no events and no RNG draws; the digest-replay test stays bit-identical.
  TraceLog flight_trace;
  rig.sender.set_trace(&flight_trace);
  rig.receiver.set_trace(&flight_trace);
  FlightRecorder::Config recorder_cfg;
  recorder_cfg.capacity = 512;
  recorder_cfg.seed = seed;
  FlightRecorder recorder("seed" + std::to_string(seed), &flight_trace,
                          &rig.sender.metrics(), recorder_cfg);
  VmInvariants::SetViolationHook([&recorder](const InvariantReport& report) {
    const std::string path = recorder.DumpToFile("invariant violation: " +
                                                 report.violations.front());
    if (!path.empty()) {
      std::printf("[reliable-stress] flight recorder dump: %s\n", path.c_str());
    }
  });
  const auto dump_on_cancel = [&recorder](const std::string& label) {
    const std::string path = recorder.DumpToFile("watchdog cancel: " + label);
    if (!path.empty()) {
      std::printf("[reliable-stress] flight recorder dump: %s\n", path.c_str());
    }
  };
  rig.sender.reliable().set_cancel_hook(dump_on_cancel);
  rig.receiver.reliable().set_cancel_hook(dump_on_cancel);

  const std::size_t num_rules = 1 + rng.Below(3);
  for (std::size_t i = 0; i < num_rules; ++i) {
    rig.plan.AddRule(RandomRule(rng));
  }

  for (int t = 0; t < kTransfersPerSeed; ++t) {
    const Semantics sem = kAllSemantics[rng.Below(kAllSemantics.size())];
    const std::uint64_t len = 1 + rng.Below(5 * kPage);
    const Vaddr src_region = kSrcBase + static_cast<Vaddr>(t) * 8 * kPage;
    const Vaddr dst_region = kDstBase + static_cast<Vaddr>(t) * 8 * kPage;
    rig.tx_app.CreateRegion(src_region, 8 * kPage,
                            IsSystemAllocated(sem) ? RegionState::kMovedIn
                                                   : RegionState::kUnmovable);
    const Vaddr src =
        IsSystemAllocated(sem) ? src_region : src_region + rng.Below(kPage);
    Vaddr dst = 0;
    if (IsApplicationAllocated(sem)) {
      rig.rx_app.CreateRegion(dst_region, 8 * kPage);
      dst = dst_region + rng.Below(kPage);
    }

    const auto payload = TestPattern(static_cast<std::size_t>(len),
                                     static_cast<unsigned char>(seed + t));
    if (rig.tx_app.Write(src, payload) != AccessResult::kOk) {
      ++out.skipped_fills;
      continue;
    }

    const SimTime window_end = rig.engine.now() + MicrosToSimTime(400);
    SchedulePageoutPressure(rig.engine, rig.sender.pageout(), rig.plan,
                            MicrosToSimTime(17), window_end);
    SchedulePageoutPressure(rig.engine, rig.receiver.pageout(), rig.plan,
                            MicrosToSimTime(23), window_end);
    ScheduleInvariantSweep(rig.engine, rig.sender.vm(), rig.tx_app, MicrosToSimTime(31),
                           window_end, &out.violations);
    ScheduleInvariantSweep(rig.engine, rig.receiver.vm(), rig.rx_app, MicrosToSimTime(37),
                           window_end, &out.violations);

    // Unlike the ARQ-off harness, no flush datagrams are ever needed: the
    // retransmit path or the transfer watchdog completes every input, so a
    // transfer that stays stuck after Engine::Run drains is a real bug.
    InputResult result;
    bool done = false;
    auto input_driver = [](Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t n,
                           Semantics s, InputResult* res, bool* flag) -> Task<void> {
      if (IsSystemAllocated(s)) {
        *res = co_await ep.InputSystemAllocated(app, n, s);
      } else {
        *res = co_await ep.Input(app, va, n, s);
      }
      *flag = true;
    };
    std::move(input_driver(rig.rx_ep, rig.rx_app, dst, len, sem, &result, &done)).Detach();
    std::move(rig.tx_ep.Output(rig.tx_app, src, len, sem)).Detach();
    rig.engine.Run();
    GENIE_CHECK(done) << "seed " << seed << " transfer " << t
                      << ": input never completed despite ARQ + watchdog";

    if (result.ok) {
      ++out.ok_transfers;
      const std::uint64_t delivered = result.bytes;
      if (delivered > len) {
        std::ostringstream msg;
        msg << "seed " << seed << " transfer " << t << ": delivered " << delivered
            << " > sent " << len;
        out.violations.push_back(msg.str());
      } else if (delivered > 0) {
        const auto got = rig.TryReadBack(result.addr, delivered);
        if (!got.has_value()) {
          ++out.skipped_verifies;
        } else if (std::memcmp(got->data(), payload.data(),
                               static_cast<std::size_t>(delivered)) != 0) {
          std::ostringstream msg;
          msg << "seed " << seed << " transfer " << t << " (" << SemanticsName(sem)
              << ", len " << len << "): payload mismatch in first " << delivered << " bytes";
          out.violations.push_back(msg.str());
        }
      }
    } else {
      ++out.failed_transfers;
    }

    const InvariantReport mid = rig.CheckInvariants(/*expect_quiescent=*/false);
    for (const std::string& v : mid.violations) {
      out.violations.push_back("seed " + std::to_string(seed) + " transfer " +
                               std::to_string(t) + ": " + v);
    }
  }

  rig.plan.Clear();
  if (rig.tx_ep.pending_operations() != 0 || rig.rx_ep.pending_operations() != 0) {
    out.violations.push_back("seed " + std::to_string(seed) +
                             ": pending operations leaked past the iteration");
  }
  const InvariantReport final_report = rig.CheckInvariants(/*expect_quiescent=*/true);
  for (const std::string& v : final_report.violations) {
    out.violations.push_back("seed " + std::to_string(seed) + " quiescent: " + v);
  }

  VmInvariants::SetViolationHook(nullptr);
  rig.sender.reliable().set_cancel_hook(nullptr);
  rig.receiver.reliable().set_cancel_hook(nullptr);
  if (!out.violations.empty() && recorder.dumps_written() == 0) {
    const std::string path = recorder.DumpToFile(out.violations.front());
    if (!path.empty()) {
      std::printf("[reliable-stress] flight recorder dump: %s\n", path.c_str());
    }
  }
  rig.sender.set_trace(nullptr);
  rig.receiver.set_trace(nullptr);

  out.digest = rig.engine.event_digest();
  out.events = rig.engine.events_executed();
  out.injected = rig.plan.total_injected();
  const ReliableDelivery::Stats& tx_rel = rig.sender.reliable().stats();
  const ReliableDelivery::Stats& rx_rel = rig.receiver.reliable().stats();
  out.retransmits = tx_rel.retransmits + rx_rel.retransmits;
  out.fallbacks = tx_rel.fallbacks + rx_rel.fallbacks;
  out.watchdog_cancels = tx_rel.watchdog_cancels + rx_rel.watchdog_cancels;
  out.duplicates_suppressed =
      rig.sender.adapter().rx_duplicate_frames() + rig.receiver.adapter().rx_duplicate_frames();
  return out;
}

TEST(ReliableStressTest, SeededFaultSweepsDeliverExactlyOnce) {
  std::uint64_t first = kFirstSeed;
  int count = kSeedCount;
  if (const char* env = std::getenv("GENIE_RELIABLE_SEED"); env != nullptr) {
    first = std::strtoull(env, nullptr, 0);
    count = 1;
    std::printf("[reliable-stress] replaying single seed %llu\n",
                static_cast<unsigned long long>(first));
  }

  std::uint64_t total_injected = 0;
  std::uint64_t total_retransmits = 0;
  std::uint64_t total_fallbacks = 0;
  std::uint64_t total_dups = 0;
  std::uint64_t total_watchdog_cancels = 0;
  int total_ok = 0;
  int total_failed = 0;
  int total_skipped = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = first + static_cast<std::uint64_t>(i);
    const IterationOutcome out = RunIteration(seed);
    ASSERT_TRUE(out.violations.empty())
        << "replay with GENIE_RELIABLE_SEED=" << seed << "\n"
        << [&] {
             std::ostringstream all;
             for (const std::string& v : out.violations) {
               all << "  " << v << "\n";
             }
             return all.str();
           }();
    total_injected += out.injected;
    total_retransmits += out.retransmits;
    total_fallbacks += out.fallbacks;
    total_dups += out.duplicates_suppressed;
    total_watchdog_cancels += out.watchdog_cancels;
    total_ok += out.ok_transfers;
    total_failed += out.failed_transfers;
    total_skipped += out.skipped_fills + out.skipped_verifies;
  }
  std::printf(
      "[reliable-stress] window=%u seeds=%d ok=%d failed=%d skipped=%d injected=%llu "
      "retransmits=%llu fallbacks=%llu dups_suppressed=%llu watchdog_cancels=%llu\n",
      StressWindow(), count, total_ok, total_failed, total_skipped,
      static_cast<unsigned long long>(total_injected),
      static_cast<unsigned long long>(total_retransmits),
      static_cast<unsigned long long>(total_fallbacks),
      static_cast<unsigned long long>(total_dups),
      static_cast<unsigned long long>(total_watchdog_cancels));

  if (count > 1) {
    // The sweep must exercise the recovery machinery, not just survive it:
    // faults were injected, frames were retransmitted, semantics degraded,
    // and wire-level duplicates were absorbed.
    EXPECT_GT(total_injected, 0u);
    EXPECT_GT(total_retransmits, 0u);
    EXPECT_GT(total_fallbacks, 0u);
    EXPECT_GT(total_dups, 0u);
    EXPECT_GT(total_ok, 0);
  }
}

// The acceptance scenario: a sustained 10% frame-loss wire with duplicates
// and one delayed completion. Every transfer must still be delivered exactly
// once with golden bytes — loss at this rate is fully absorbed by ARQ (the
// odds of exhausting 8 retries are 1e-9 per transfer).
TEST(ReliableStressTest, TenPercentLossDeliversEveryTransfer) {
  constexpr int kTransfers = 40;
  SplitMix64 rng(0x10553);

  GenieOptions options;
  options.enable_semantics_fallback = true;
  FaultRig rig(/*seed=*/0x10553, InputBuffering::kEarlyDemux, options, /*mem_frames=*/384);
  rig.sender.EnableReliableDelivery(StressReliableOptions(0x10553));
  rig.receiver.EnableReliableDelivery(StressReliableOptions(0x10554));

  FaultRule drop;
  drop.site = FaultSite::kLinkDrop;
  drop.probability = 0.10;
  rig.plan.AddRule(drop);
  FaultRule dup;
  dup.site = FaultSite::kLinkDuplicate;
  dup.probability = 0.05;
  rig.plan.AddRule(dup);
  FaultRule delay;
  delay.site = FaultSite::kDeviceDelay;
  delay.nth = 3;
  delay.max_fires = 1;
  delay.arg = 120000;  // one completion interrupt held off 120 us
  rig.plan.AddRule(delay);

  std::vector<std::string> violations;
  for (int t = 0; t < kTransfers; ++t) {
    const Semantics sem = kAllSemantics[rng.Below(kAllSemantics.size())];
    const std::uint64_t len = 1 + rng.Below(4 * kPage);
    const Vaddr src_region = kSrcBase + static_cast<Vaddr>(t) * 8 * kPage;
    const Vaddr dst_region = kDstBase + static_cast<Vaddr>(t) * 8 * kPage;
    rig.tx_app.CreateRegion(src_region, 8 * kPage,
                            IsSystemAllocated(sem) ? RegionState::kMovedIn
                                                   : RegionState::kUnmovable);
    Vaddr dst = 0;
    if (IsApplicationAllocated(sem)) {
      rig.rx_app.CreateRegion(dst_region, 8 * kPage);
      dst = dst_region;
    }
    const auto payload = TestPattern(static_cast<std::size_t>(len),
                                     static_cast<unsigned char>(41 + t));
    ASSERT_EQ(rig.tx_app.Write(src_region, payload), AccessResult::kOk);

    ScheduleInvariantSweep(rig.engine, rig.sender.vm(), rig.tx_app, MicrosToSimTime(31),
                           rig.engine.now() + MicrosToSimTime(400), &violations);
    ScheduleInvariantSweep(rig.engine, rig.receiver.vm(), rig.rx_app, MicrosToSimTime(37),
                           rig.engine.now() + MicrosToSimTime(400), &violations);

    // Driven directly (not via DriveTransfer, whose stuck-input fallback
    // would silently Clear() the loss rules): ARQ must complete every
    // transfer on its own.
    InputResult result;
    bool done = false;
    auto input_driver = [](Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t n,
                           Semantics s, InputResult* res, bool* flag) -> Task<void> {
      if (IsSystemAllocated(s)) {
        *res = co_await ep.InputSystemAllocated(app, n, s);
      } else {
        *res = co_await ep.Input(app, va, n, s);
      }
      *flag = true;
    };
    std::move(input_driver(rig.rx_ep, rig.rx_app, dst, len, sem, &result, &done)).Detach();
    std::move(rig.tx_ep.Output(rig.tx_app, src_region, len, sem)).Detach();
    rig.engine.Run();
    ASSERT_TRUE(done) << "transfer " << t << " stuck under 10% loss";
    ASSERT_TRUE(result.ok) << "transfer " << t << " (" << SemanticsName(sem)
                           << ") failed under 10% loss";
    ASSERT_EQ(result.bytes, len) << "transfer " << t << " delivered short";
    const auto got = rig.TryReadBack(result.addr, len);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(std::memcmp(got->data(), payload.data(), static_cast<std::size_t>(len)), 0)
        << "transfer " << t << " (" << SemanticsName(sem) << "): payload mismatch";
  }
  EXPECT_TRUE(violations.empty()) << violations.size() << " invariant violations";
  rig.ExpectQuiescent();
  const InvariantReport final_report = rig.CheckInvariants(/*expect_quiescent=*/true);
  EXPECT_TRUE(final_report.violations.empty());

  // The loss rate guarantees recovery work happened, and the metrics registry
  // exposes it (the observability contract for the reliable layer).
  const MetricsSnapshot snap = rig.sender.metrics().Snapshot();
  EXPECT_GT(snap.Value("reliable.retransmits"), 0u);
  EXPECT_GT(snap.Value("reliable.sequenced_frames"), 0u);
  EXPECT_GT(snap.Value("nic.link_frames_dropped"), 0u);
  EXPECT_EQ(snap.Value("reliable.giveups"), 0u);
  EXPECT_GT(rig.receiver.adapter().rx_duplicate_frames() +
                rig.sender.adapter().rx_duplicate_frames(),
            0u);
  std::printf(
      "[reliable-stress] 10%%-loss soak: window=%u, %d transfers, %llu drops, "
      "%llu retransmits, %llu dups suppressed\n",
      StressWindow(), kTransfers,
      static_cast<unsigned long long>(rig.sender.adapter().link_frames_dropped()),
      static_cast<unsigned long long>(snap.Value("reliable.retransmits")),
      static_cast<unsigned long long>(rig.receiver.adapter().rx_duplicate_frames()));
}

// Pipelined soak: bursts of concurrent transfers share one deep
// selective-repeat window (16) over a 10%-loss + 5%-duplicate wire. This is
// the configuration where admission stalls, out-of-order SACK holes, and
// per-entry retransmit timers all interleave; every transfer must still land
// exactly once with golden bytes and zero giveups. Runs at window 16
// regardless of GENIE_RELIABLE_WINDOW so the deep pipeline is always covered.
TEST(ReliableStressTest, WindowedLossSoakPipelinesConcurrentBursts) {
  constexpr int kRounds = 6;
  constexpr int kBurst = 4;
  SplitMix64 rng(0x51d0);

  GenieOptions options;
  options.enable_semantics_fallback = true;
  FaultRig rig(/*seed=*/0x16161616, InputBuffering::kEarlyDemux, options,
               /*mem_frames=*/384);
  ReliableOptions tx_opts = StressReliableOptions(0x16161616);
  tx_opts.window = 16;
  ReliableOptions rx_opts = StressReliableOptions(0x16161617);
  rx_opts.window = 16;
  rig.sender.EnableReliableDelivery(tx_opts);
  rig.receiver.EnableReliableDelivery(rx_opts);

  FaultRule drop;
  drop.site = FaultSite::kLinkDrop;
  drop.probability = 0.10;
  rig.plan.AddRule(drop);
  FaultRule dup;
  dup.site = FaultSite::kLinkDuplicate;
  dup.probability = 0.05;
  rig.plan.AddRule(dup);

  auto input_driver = [](Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t n,
                         Semantics s, InputResult* res, bool* flag) -> Task<void> {
    *res = co_await ep.Input(app, va, n, s);
    *flag = true;
  };
  for (int round = 0; round < kRounds; ++round) {
    std::array<InputResult, kBurst> results;
    std::array<bool, kBurst> done{};
    std::array<std::vector<std::byte>, kBurst> payloads;
    std::array<std::uint64_t, kBurst> lens;
    // One length per round: posted receives are a FIFO mailbox, so with a
    // deep window reordering arrivals across transfers, a datagram can land
    // in any concurrently-posted buffer — the buffers must all fit it.
    const std::uint64_t round_len = 1 + rng.Below(3 * kPage);
    for (int i = 0; i < kBurst; ++i) {
      const int t = round * kBurst + i;
      const std::uint64_t len = round_len;
      const Vaddr src_region = kSrcBase + static_cast<Vaddr>(t) * 8 * kPage;
      const Vaddr dst_region = kDstBase + static_cast<Vaddr>(t) * 8 * kPage;
      rig.tx_app.CreateRegion(src_region, 8 * kPage, RegionState::kUnmovable);
      rig.rx_app.CreateRegion(dst_region, 8 * kPage);
      payloads[i] = TestPattern(static_cast<std::size_t>(len),
                                static_cast<unsigned char>(17 + t));
      lens[i] = len;
      ASSERT_EQ(rig.tx_app.Write(src_region, payloads[i]), AccessResult::kOk);
      std::move(input_driver(rig.rx_ep, rig.rx_app, dst_region, len, Semantics::kCopy,
                             &results[i], &done[i]))
          .Detach();
      std::move(rig.tx_ep.Output(rig.tx_app, src_region, len, Semantics::kCopy)).Detach();
    }
    rig.engine.Run();
    // Posted inputs are a shared mailbox: with a deep window reordering
    // retransmitted datagrams across transfers, the i-th input may complete
    // with the j-th payload. Exactly-once delivery means the multiset of
    // delivered payloads equals the multiset sent — each golden payload is
    // claimed by exactly one completion.
    std::array<bool, kBurst> claimed{};
    for (int i = 0; i < kBurst; ++i) {
      const int t = round * kBurst + i;
      ASSERT_TRUE(done[i]) << "transfer " << t << " stuck in windowed burst";
      ASSERT_TRUE(results[i].ok) << "transfer " << t << " failed in windowed burst";
      const auto got = rig.TryReadBack(results[i].addr, results[i].bytes);
      ASSERT_TRUE(got.has_value());
      bool matched = false;
      for (int j = 0; j < kBurst; ++j) {
        if (claimed[j] || lens[j] != results[i].bytes) {
          continue;
        }
        if (std::memcmp(got->data(), payloads[j].data(),
                        static_cast<std::size_t>(lens[j])) == 0) {
          claimed[j] = true;
          matched = true;
          break;
        }
      }
      ASSERT_TRUE(matched) << "transfer " << t
                           << ": delivered bytes match no outstanding payload";
    }
  }
  rig.ExpectQuiescent();
  const InvariantReport final_report = rig.CheckInvariants(/*expect_quiescent=*/true);
  EXPECT_TRUE(final_report.violations.empty());

  const MetricsSnapshot snap = rig.sender.metrics().Snapshot();
  EXPECT_GT(snap.Value("reliable.retransmits"), 0u);
  EXPECT_EQ(snap.Value("reliable.giveups"), 0u);
  std::printf(
      "[reliable-stress] windowed burst soak: window=16, %d transfers, "
      "%llu retransmits, %llu dups suppressed\n",
      kRounds * kBurst, static_cast<unsigned long long>(snap.Value("reliable.retransmits")),
      static_cast<unsigned long long>(rig.receiver.adapter().rx_duplicate_frames()));
}

// The first 20 seeds' schedules at windows 1 and 16, folded in seed order
// (tests/soak_golden.h): a change that moves any event of the lossy soak,
// such as a nack, a duplicate's re-ack or a SACK train, fails here naming
// the window. An iteration runs one transfer at a time, so both windows
// fold to the same value.
TEST(ReliableStressTest, ScheduleGoldenAtWindows1And16) {
  for (const auto& [window, golden] :
       {std::pair{1u, 0xbe9b19f7673273a8ull}, std::pair{16u, 0xbe9b19f7673273a8ull}}) {
    const std::uint64_t fold = FoldSoakSchedules(kFirstSeed, window, RunIteration);
    EXPECT_EQ(fold, golden) << "reliable soak schedule golden moved at window " << window
                            << ": fold 0x" << std::hex << fold;
  }
}

// A failing seed is only a complete bug report if the schedule is bit-for-bit
// reproducible — with ARQ timers, jittered backoff, and watchdog scans in
// the event mix.
TEST(ReliableStressTest, SameSeedReplaysIdenticalSchedule) {
  const IterationOutcome a = RunIteration(kFirstSeed + 11);
  const IterationOutcome b = RunIteration(kFirstSeed + 11);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.ok_transfers, b.ok_transfers);
  EXPECT_EQ(a.failed_transfers, b.failed_transfers);
}

}  // namespace
}  // namespace genie
