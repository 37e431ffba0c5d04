// Batched submission/completion ring API: outputs and inputs enqueued with
// Submit()/SubmitBatch(), drained through the kernel in one pass, completions
// (user_data, IoStatus) harvested from the completion ring. Covers depth
// enforcement, mixed batches, prepare-failure completions, WaitCompletions
// blocking, the ring + windowed-ARQ pipeline working together, and
// system-allocated ring inputs (their semantics, not a flag, makes them so).
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/mem/fault_plan.h"
#include "src/util/units.h"
#include "tests/genie_test_util.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
constexpr Vaddr kSrc = 0x20000000;
constexpr Vaddr kDst = 0x30000000;

using SubmitEntry = Endpoint::SubmitEntry;
using Completion = Endpoint::Completion;

Task<void> DriveDrain(Endpoint& ep, std::size_t* launched) {
  *launched = co_await ep.Drain();
}

Task<void> DriveWait(Endpoint& ep, std::size_t n, std::size_t* available) {
  *available = co_await ep.WaitCompletions(n);
}

Task<void> DriveInput(Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t len,
                      InputResult* out) {
  *out = co_await ep.Input(app, va, len, Semantics::kCopy);
}

SubmitEntry OutputEntry(AddressSpace& app, Vaddr va, std::uint64_t len,
                        std::uint64_t user_data) {
  SubmitEntry e;
  e.op = SubmitEntry::Op::kOutput;
  e.app = &app;
  e.va = va;
  e.len = len;
  e.sem = Semantics::kCopy;
  e.user_data = user_data;
  return e;
}

SubmitEntry InputEntry(AddressSpace& app, Vaddr va, std::uint64_t len,
                       std::uint64_t user_data) {
  SubmitEntry e;
  e.op = SubmitEntry::Op::kInput;
  e.app = &app;
  e.va = va;
  e.len = len;
  e.sem = Semantics::kCopy;
  e.user_data = user_data;
  return e;
}

TEST(RingTest, BatchedOutputsRoundTrip) {
  Rig rig;
  rig.tx_app.CreateRegion(kSrc, 16 * kPage);
  rig.rx_app.CreateRegion(kDst, 16 * kPage);
  constexpr int kN = 4;
  constexpr std::uint64_t kLen = 2048;
  std::vector<std::vector<std::byte>> payloads;
  std::vector<InputResult> inputs(kN);
  for (int i = 0; i < kN; ++i) {
    payloads.push_back(TestPattern(kLen, static_cast<unsigned char>(i + 1)));
    ASSERT_EQ(rig.tx_app.Write(kSrc + i * kPage, payloads[i]), AccessResult::kOk);
    std::move(DriveInput(rig.rx_ep, rig.rx_app, kDst + i * kPage, kLen, &inputs[i])).Detach();
    ASSERT_TRUE(rig.tx_ep.Submit(OutputEntry(rig.tx_app, kSrc + i * kPage, kLen, 100 + i)));
  }
  EXPECT_EQ(rig.tx_ep.submit_ring_size(), 4u);
  std::size_t launched = 0;
  std::move(DriveDrain(rig.tx_ep, &launched)).Detach();
  rig.engine.Run();
  EXPECT_EQ(launched, 4u);
  EXPECT_EQ(rig.tx_ep.submit_ring_size(), 0u);

  std::vector<Completion> done;
  EXPECT_EQ(rig.tx_ep.Harvest(&done), 4u);
  ASSERT_EQ(done.size(), 4u);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(done[i].user_data, 100u + i);
    EXPECT_EQ(done[i].op, SubmitEntry::Op::kOutput);
    EXPECT_EQ(done[i].status, IoStatus::kOk);
    EXPECT_EQ(done[i].bytes, kLen);
    ASSERT_TRUE(inputs[i].ok);
    const auto got = rig.ReadBack(kDst + i * kPage, kLen);
    EXPECT_EQ(std::memcmp(got.data(), payloads[i].data(), kLen), 0);
  }
  EXPECT_EQ(rig.tx_ep.stats().ring_submits, 4u);
  EXPECT_EQ(rig.tx_ep.stats().ring_drains, 1u);
  EXPECT_EQ(rig.tx_ep.stats().ring_completions, 4u);
  rig.ExpectQuiescent();
}

TEST(RingTest, BatchedInputsDeliver) {
  Rig rig;
  rig.tx_app.CreateRegion(kSrc, 16 * kPage);
  rig.rx_app.CreateRegion(kDst, 16 * kPage);
  constexpr int kN = 3;
  constexpr std::uint64_t kLen = 1024;
  std::vector<SubmitEntry> entries;
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(rig.tx_app.Write(kSrc + i * kPage,
                               TestPattern(kLen, static_cast<unsigned char>(7 + i))),
              AccessResult::kOk);
    entries.push_back(InputEntry(rig.rx_app, kDst + i * kPage, kLen, 200 + i));
  }
  EXPECT_EQ(rig.rx_ep.SubmitBatch(entries), 3u);
  std::size_t launched = 0;
  std::move(DriveDrain(rig.rx_ep, &launched)).Detach();
  for (int i = 0; i < kN; ++i) {
    std::move(rig.tx_ep.Output(rig.tx_app, kSrc + i * kPage, kLen, Semantics::kCopy)).Detach();
  }
  std::size_t available = 0;
  std::move(DriveWait(rig.rx_ep, kN, &available)).Detach();
  rig.engine.Run();
  EXPECT_EQ(launched, 3u);
  EXPECT_EQ(available, 3u);
  std::vector<Completion> done;
  EXPECT_EQ(rig.rx_ep.Harvest(&done), 3u);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(done[i].op, SubmitEntry::Op::kInput);
    EXPECT_EQ(done[i].status, IoStatus::kOk);
    EXPECT_EQ(done[i].bytes, kLen);
    EXPECT_EQ(done[i].addr, kDst + (done[i].user_data - 200) * kPage);
  }
  rig.ExpectQuiescent();
}

TEST(RingTest, SubmitRespectsRingDepth) {
  GenieOptions options;
  options.ring_depth = 2;
  Rig rig(InputBuffering::kEarlyDemux, options);
  rig.tx_app.CreateRegion(kSrc, 16 * kPage);
  EXPECT_TRUE(rig.tx_ep.Submit(OutputEntry(rig.tx_app, kSrc, 512, 1)));
  EXPECT_TRUE(rig.tx_ep.Submit(OutputEntry(rig.tx_app, kSrc, 512, 2)));
  EXPECT_FALSE(rig.tx_ep.Submit(OutputEntry(rig.tx_app, kSrc, 512, 3)));
  std::vector<SubmitEntry> more(3, OutputEntry(rig.tx_app, kSrc, 512, 4));
  EXPECT_EQ(rig.tx_ep.SubmitBatch(more), 0u);
  EXPECT_EQ(rig.tx_ep.submit_ring_size(), 2u);
  EXPECT_EQ(rig.tx_ep.stats().ring_submits, 2u);
}

TEST(RingTest, PrepareFailureCompletesWithStatus) {
  Rig rig;
  rig.tx_app.CreateRegion(kSrc, 16 * kPage);
  // Fault the source pages in first so the injected failure lands on the
  // sysbuf allocation, not the copyin's page-in.
  ASSERT_EQ(rig.tx_app.Write(kSrc, TestPattern(2048, 1)), AccessResult::kOk);
  // Exhaust frame-run allocation at the sender: the copy-semantics sysbuf
  // allocation fails and the output completes kNoMemory without ever
  // reaching the wire.
  FaultPlan plan(1);
  rig.sender.AttachFaultPlan(&plan);
  // Both the contiguous-run attempt and its frame-at-a-time fallback must
  // fail for the sysbuf allocation to give up.
  FaultRule rule;
  rule.site = FaultSite::kFrameAllocateRun;
  rule.probability = 1.0;
  plan.AddRule(rule);
  rule.site = FaultSite::kFrameAllocate;
  plan.AddRule(rule);
  ASSERT_TRUE(rig.tx_ep.Submit(OutputEntry(rig.tx_app, kSrc, 2048, 42)));
  std::size_t launched = 0;
  std::move(DriveDrain(rig.tx_ep, &launched)).Detach();
  rig.engine.Run();
  rig.sender.AttachFaultPlan(nullptr);
  EXPECT_EQ(launched, 1u);
  std::vector<Completion> done;
  ASSERT_EQ(rig.tx_ep.Harvest(&done), 1u);
  EXPECT_EQ(done[0].user_data, 42u);
  EXPECT_EQ(done[0].status, IoStatus::kNoMemory);
  EXPECT_EQ(done[0].bytes, 0u);
  EXPECT_EQ(rig.tx_ep.stats().failed_outputs, 1u);
  rig.ExpectQuiescent();
}

TEST(RingTest, MixedBatchPreservesSubmissionOrder) {
  Rig rig;
  rig.tx_app.CreateRegion(kSrc, 16 * kPage);
  rig.rx_app.CreateRegion(kDst, 16 * kPage);
  constexpr std::uint64_t kLen = 1024;
  ASSERT_EQ(rig.tx_app.Write(kSrc, TestPattern(kLen, 21)), AccessResult::kOk);
  // One ring on each endpoint: the receiver's ring posts the input, the
  // sender's ring sends into it.
  ASSERT_TRUE(rig.rx_ep.Submit(InputEntry(rig.rx_app, kDst, kLen, 7)));
  ASSERT_TRUE(rig.tx_ep.Submit(OutputEntry(rig.tx_app, kSrc, kLen, 8)));
  std::size_t rx_launched = 0;
  std::size_t tx_launched = 0;
  std::move(DriveDrain(rig.rx_ep, &rx_launched)).Detach();
  std::move(DriveDrain(rig.tx_ep, &tx_launched)).Detach();
  rig.engine.Run();
  EXPECT_EQ(rx_launched, 1u);
  EXPECT_EQ(tx_launched, 1u);
  std::vector<Completion> rx_done;
  std::vector<Completion> tx_done;
  EXPECT_EQ(rig.rx_ep.Harvest(&rx_done), 1u);
  EXPECT_EQ(rig.tx_ep.Harvest(&tx_done), 1u);
  EXPECT_EQ(rx_done[0].status, IoStatus::kOk);
  EXPECT_EQ(tx_done[0].status, IoStatus::kOk);
  const auto got = rig.ReadBack(kDst, kLen);
  const auto want = TestPattern(kLen, 21);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), kLen), 0);
  rig.ExpectQuiescent();
}

TEST(RingTest, WindowedArqPipelinesRingBatch) {
  Rig rig;
  ReliableOptions ropts;
  ropts.arq = true;
  ropts.window = 8;
  ropts.jitter_frac = 0.0;
  rig.sender.EnableReliableDelivery(ropts);
  rig.receiver.EnableReliableDelivery(ropts);
  rig.tx_app.CreateRegion(kSrc, 16 * kPage);
  rig.rx_app.CreateRegion(kDst, 16 * kPage);
  constexpr int kN = 8;
  constexpr std::uint64_t kLen = kPage;
  std::vector<InputResult> inputs(kN);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(rig.tx_app.Write(kSrc + i * kPage,
                               TestPattern(kLen, static_cast<unsigned char>(i + 1))),
              AccessResult::kOk);
    std::move(DriveInput(rig.rx_ep, rig.rx_app, kDst + i * kPage, kLen, &inputs[i])).Detach();
    ASSERT_TRUE(rig.tx_ep.Submit(OutputEntry(rig.tx_app, kSrc + i * kPage, kLen, i)));
  }
  std::size_t launched = 0;
  std::move(DriveDrain(rig.tx_ep, &launched)).Detach();
  rig.engine.Run();
  EXPECT_EQ(launched, 8u);
  std::vector<Completion> done;
  EXPECT_EQ(rig.tx_ep.Harvest(&done), 8u);
  for (const Completion& c : done) {
    EXPECT_EQ(c.status, IoStatus::kOk);
  }
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(inputs[i].ok);
    const auto got = rig.ReadBack(kDst + i * kPage, kLen);
    const auto want = TestPattern(kLen, static_cast<unsigned char>(i + 1));
    EXPECT_EQ(std::memcmp(got.data(), want.data(), kLen), 0);
  }
  // The whole batch rode the selective-repeat window: every frame was
  // sequenced and SACK-acked, nothing retransmitted on the clean wire.
  EXPECT_EQ(rig.sender.reliable().stats().sequenced_frames, 8u);
  EXPECT_GE(rig.sender.reliable().stats().acks, 8u);
  EXPECT_EQ(rig.sender.reliable().stats().retransmits, 0u);
  rig.ExpectQuiescent();
}

// An aborted ring input of a system-allocated semantics gives its prepared
// region back to the cache, as one posted through InputSystemAllocated does:
// the region neither stays moving-in forever nor leaks.
void ExpectAbortedRingInputReturnsItsRegion(bool watchdog) {
  Rig rig;
  if (watchdog) {
    ReliableOptions opts;
    opts.watchdog_timeout = 1 * kMillisecond;
    rig.receiver.EnableReliableDelivery(opts);
  }
  constexpr std::uint64_t kLen = 2 * kPage;
  SubmitEntry entry = InputEntry(rig.rx_app, /*va=*/0, kLen, 9);
  entry.sem = Semantics::kEmulatedMove;  // System-allocated: no flag says so.
  ASSERT_TRUE(rig.rx_ep.Submit(entry));
  std::size_t launched = 0;
  std::move(DriveDrain(rig.rx_ep, &launched)).Detach();
  rig.engine.Run();  // No frame comes; only the watchdog ends the wait.
  if (!watchdog) {
    ASSERT_TRUE(rig.rx_ep.HasPreparedInput());
    rig.receiver.Crash();
    rig.engine.Run();
  }
  std::vector<Completion> done;
  ASSERT_EQ(rig.rx_ep.Harvest(&done), 1u);
  EXPECT_EQ(done[0].user_data, 9u);
  EXPECT_EQ(done[0].status, watchdog ? IoStatus::kCancelled : IoStatus::kPeerCrashed);
  EXPECT_NE(rig.rx_app.DequeueCachedRegion(kLen, RegionState::kMovedOut), nullptr);
  rig.ExpectQuiescent();
}

TEST(RingTest, CrashAbortedSystemAllocatedInputReturnsItsRegion) {
  ExpectAbortedRingInputReturnsItsRegion(/*watchdog=*/false);
}

TEST(RingTest, WatchdogCancelledSystemAllocatedInputReturnsItsRegion) {
  ExpectAbortedRingInputReturnsItsRegion(/*watchdog=*/true);
}

// A ring emulated-move input whose prepare fails (its region's page-in
// cannot allocate a frame) falls back to basic move, the system-allocated
// floor, and still delivers.
TEST(RingTest, SystemAllocatedInputFallsBackToMove) {
  GenieOptions options;
  options.enable_semantics_fallback = true;
  Rig rig(InputBuffering::kEarlyDemux, options);
  constexpr std::uint64_t kLen = 2 * kPage;
  const Vaddr src = rig.tx_ep.AllocateIoBuffer(rig.tx_app, kLen);
  const auto payload = TestPattern(kLen, 33);
  ASSERT_EQ(rig.tx_app.Write(src, payload), AccessResult::kOk);
  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kFrameAllocate;
  rule.probability = 1.0;
  rule.max_fires = 1;
  plan.AddRule(rule);
  rig.receiver.AttachFaultPlan(&plan);
  SubmitEntry entry = InputEntry(rig.rx_app, /*va=*/0, kLen, 5);
  entry.sem = Semantics::kEmulatedMove;
  ASSERT_TRUE(rig.rx_ep.Submit(entry));
  std::size_t launched = 0;
  std::move(DriveDrain(rig.rx_ep, &launched)).Detach();
  std::move(rig.tx_ep.Output(rig.tx_app, src, kLen, Semantics::kEmulatedMove)).Detach();
  rig.engine.Run();
  rig.receiver.AttachFaultPlan(nullptr);
  EXPECT_EQ(plan.injected(FaultSite::kFrameAllocate), 1u);
  EXPECT_EQ(rig.rx_ep.stats().semantics_fallbacks, 1u);
  std::vector<Completion> done;
  ASSERT_EQ(rig.rx_ep.Harvest(&done), 1u);
  ASSERT_EQ(done[0].status, IoStatus::kOk);
  EXPECT_EQ(done[0].bytes, kLen);
  EXPECT_EQ(rig.ReadBack(done[0].addr, kLen), payload);
  rig.ExpectQuiescent();
}

}  // namespace
}  // namespace genie
