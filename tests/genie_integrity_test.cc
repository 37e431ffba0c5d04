// The taxonomy's integrity matrix (paper Section 2.2), observed end to end:
// strong-integrity semantics deliver the data as of the output call and
// never expose partial input; weak-integrity semantics do not guarantee
// either. Also: failed (CRC-error) inputs and mid-I/O buffer access.
#include <gtest/gtest.h>

#include "src/vm/invariants.h"
#include "tests/genie_test_util.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
constexpr Vaddr kSrc = 0x20000000;
constexpr Vaddr kDst = 0x30000000;
constexpr std::uint64_t kLen = 8 * kPage;

// Time inside the wire transfer of a kLen datagram (after prepare; several
// pages still untransmitted).
constexpr SimTime MidTransfer() { return MicrosToSimTime(130 + 4 * kPage * 0.0598); }

class IntegrityRig : public Rig {
 public:
  explicit IntegrityRig(GenieOptions options = GenieOptions{})
      : Rig(InputBuffering::kEarlyDemux, options) {
    tx_app.CreateRegion(kSrc, 16 * kPage, RegionState::kUnmovable);
    rx_app.CreateRegion(kDst, 16 * kPage);
  }
};

// --- Output integrity: overwrite the send buffer mid-transmission ---

class OutputTamperTest : public ::testing::TestWithParam<Semantics> {};

TEST_P(OutputTamperTest, OverwriteDuringOutput) {
  const Semantics sem = GetParam();
  if (IsSystemAllocated(sem)) {
    // Strong move semantics make the buffer inaccessible during output; the
    // hazard cannot arise by construction (tested separately below). Weak
    // move leaves it mapped; covered via share behavior.
    GTEST_SKIP();
  }
  IntegrityRig rig;
  const auto original = TestPattern(kLen, 0x10);
  ASSERT_EQ(rig.tx_app.Write(kSrc, original), AccessResult::kOk);

  // Overwrite every page of the source buffer mid-transmission.
  const auto tamper = TestPattern(kLen, 0x77);
  bool tampered_ok = false;
  rig.engine.ScheduleAt(MidTransfer(), [&] {
    tampered_ok = rig.tx_app.Write(kSrc, tamper) == AccessResult::kOk;
  });

  const InputResult result = rig.Transfer(kSrc, kDst, kLen, sem);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(tampered_ok);  // The writer never faults unrecoverably.
  const auto got = rig.ReadBack(kDst, kLen);

  if (IsStrongIntegrity(sem)) {
    // Copy and emulated copy: the receiver sees the data as of the output
    // invocation, byte for byte.
    EXPECT_EQ(std::memcmp(got.data(), original.data(), kLen), 0)
        << SemanticsName(sem) << " leaked a concurrent overwrite";
    if (sem == Semantics::kEmulatedCopy) {
      // ... and it was TCOW, not an eager copy, that saved us.
      EXPECT_GT(rig.tx_app.counters().tcow_copies, 0u);
    }
  } else {
    // Share and emulated share: the overwrite corrupts untransmitted pages.
    EXPECT_NE(std::memcmp(got.data(), original.data(), kLen), 0)
        << SemanticsName(sem) << " unexpectedly provided strong integrity";
    // The first page left the wire before the tamper: still original.
    EXPECT_EQ(std::memcmp(got.data(), original.data(), kPage), 0);
    // The last page had not: tampered.
    EXPECT_EQ(std::memcmp(got.data() + kLen - kPage, tamper.data() + kLen - kPage, kPage), 0);
  }
  // After output dispose, the application can write its buffer again freely.
  EXPECT_EQ(rig.tx_app.Write(kSrc, original), AccessResult::kOk);
}

INSTANTIATE_TEST_SUITE_P(AppAllocated, OutputTamperTest,
                         ::testing::Values(Semantics::kCopy, Semantics::kEmulatedCopy,
                                           Semantics::kShare, Semantics::kEmulatedShare),
                         [](const ::testing::TestParamInfo<Semantics>& param_info) {
                           std::string name(SemanticsName(param_info.param));
                           for (char& c : name) {
                             if (c == ' ') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// Move semantics: accessing the buffer during output is an unrecoverable
// fault (the region is hidden / invalidated), which is how strong integrity
// is enforced for system-allocated output.
TEST(MoveOutputIntegrityTest, AccessDuringMoveOutputFaults) {
  IntegrityRig rig;
  const Vaddr buf = rig.tx_ep.AllocateIoBuffer(rig.tx_app, kLen);
  ASSERT_EQ(rig.tx_app.Write(buf, TestPattern(kLen, 1)), AccessResult::kOk);

  AccessResult mid_access = AccessResult::kOk;
  rig.engine.ScheduleAt(MidTransfer(), [&] {
    std::vector<std::byte> tmp(16);
    mid_access = rig.tx_app.Write(buf, tmp);
  });
  const InputResult result = rig.Transfer(buf, 0, kLen, Semantics::kEmulatedMove);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(mid_access, AccessResult::kUnrecoverableFault);
  // After dispose the region is moved out (hidden): still unrecoverable.
  std::vector<std::byte> tmp(16);
  EXPECT_EQ(rig.tx_app.Write(buf, tmp), AccessResult::kUnrecoverableFault);
}

// Weak move: the buffer stays mapped after output; accessing it does not
// fault, but its contents are indeterminate (may be reused for later input).
TEST(MoveOutputIntegrityTest, WeakMoveBufferAccessibleButIndeterminate) {
  IntegrityRig rig;
  const Vaddr buf = rig.tx_ep.AllocateIoBuffer(rig.tx_app, kLen);
  ASSERT_EQ(rig.tx_app.Write(buf, TestPattern(kLen, 1)), AccessResult::kOk);
  const InputResult result = rig.Transfer(buf, 0, kLen, Semantics::kEmulatedWeakMove);
  ASSERT_TRUE(result.ok);
  std::vector<std::byte> tmp(16);
  EXPECT_EQ(rig.tx_app.Read(buf, tmp), AccessResult::kOk);  // No crash.
}

// --- Input integrity: observe the receive buffer mid-arrival ---

class InputObservationTest : public ::testing::TestWithParam<Semantics> {};

TEST_P(InputObservationTest, PartialInputVisibilityMatchesIntegrity) {
  const Semantics sem = GetParam();
  IntegrityRig rig;
  const auto canvas = TestPattern(kLen, 0x55);
  ASSERT_EQ(rig.rx_app.Write(kDst, canvas), AccessResult::kOk);
  const auto payload = TestPattern(kLen, 0x22);
  ASSERT_EQ(rig.tx_app.Write(kSrc, payload), AccessResult::kOk);

  std::vector<std::byte> observed(kLen);
  rig.engine.ScheduleAt(MidTransfer(), [&] {
    ASSERT_EQ(rig.rx_app.Read(kDst, observed), AccessResult::kOk);
  });
  const InputResult result = rig.Transfer(kSrc, kDst, kLen, sem);
  ASSERT_TRUE(result.ok);

  if (IsStrongIntegrity(sem)) {
    // Copy / emulated copy: mid-input the buffer still shows the old bytes.
    EXPECT_EQ(std::memcmp(observed.data(), canvas.data(), kLen), 0)
        << SemanticsName(sem) << " exposed a partial input";
  } else {
    // Share / emulated share: in-place input is observable as it arrives —
    // early pages new, late pages old.
    EXPECT_EQ(std::memcmp(observed.data(), payload.data(), kPage), 0);
    EXPECT_EQ(std::memcmp(observed.data() + kLen - kPage, canvas.data() + kLen - kPage, kPage),
              0);
  }
  // Once complete, everyone sees the payload.
  const auto got = rig.ReadBack(kDst, kLen);
  EXPECT_EQ(std::memcmp(got.data(), payload.data(), kLen), 0);
}

INSTANTIATE_TEST_SUITE_P(AppAllocated, InputObservationTest,
                         ::testing::Values(Semantics::kCopy, Semantics::kEmulatedCopy,
                                           Semantics::kShare, Semantics::kEmulatedShare),
                         [](const ::testing::TestParamInfo<Semantics>& param_info) {
                           std::string name(SemanticsName(param_info.param));
                           for (char& c : name) {
                             if (c == ' ') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Failed input (CRC error) ---

class FailedInputTest : public ::testing::TestWithParam<Semantics> {};

TEST_P(FailedInputTest, CrcFailureRespectsIntegrity) {
  const Semantics sem = GetParam();
  IntegrityRig rig;
  const auto canvas = TestPattern(kLen, 0x55);
  if (IsApplicationAllocated(sem)) {
    ASSERT_EQ(rig.rx_app.Write(kDst, canvas), AccessResult::kOk);
  }
  ASSERT_EQ(rig.tx_app.Write(kSrc, TestPattern(kLen, 0x22)), AccessResult::kOk);
  if (IsSystemAllocated(sem)) {
    // Re-point the source at a moved-in region.
    Region* r = rig.tx_app.FindRegion(kSrc);
    r->state = RegionState::kMovedIn;
  }

  CrcErrorInjector crc(rig.sender.adapter());
  crc.CorruptNextFrame();
  const InputResult result = rig.Transfer(kSrc, kDst, kLen, sem);

  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.crc_ok);
  EXPECT_EQ(rig.rx_ep.stats().crc_failures, 1u);
  rig.ExpectQuiescent();

  if (IsApplicationAllocated(sem) && IsStrongIntegrity(sem)) {
    // Strong integrity: the application buffer is untouched after a failed
    // input operation.
    const auto got = rig.ReadBack(kDst, kLen);
    EXPECT_EQ(std::memcmp(got.data(), canvas.data(), kLen), 0);
  }
  // No leaked frames on either side.
  EXPECT_EQ(rig.receiver.vm().pm().zombie_frames(), 0u);

  // The channel still works afterwards. Move-family output consumed the
  // source buffer (deallocated / moved out), so take a fresh one.
  Vaddr retry_src = kSrc;
  if (IsSystemAllocated(sem)) {
    retry_src = rig.tx_ep.AllocateIoBuffer(rig.tx_app, kLen);
    ASSERT_EQ(rig.tx_app.Write(retry_src, TestPattern(kLen, 0x23)), AccessResult::kOk);
  }
  const InputResult retry = rig.Transfer(retry_src, kDst, kLen, sem);
  EXPECT_TRUE(retry.ok);
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, FailedInputTest, ::testing::ValuesIn(kAllSemantics),
                         [](const ::testing::TestParamInfo<Semantics>& param_info) {
                           std::string name(SemanticsName(param_info.param));
                           for (char& c : name) {
                             if (c == ' ') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Buffer deallocation during I/O (Section 3.1's malicious application) ---

TEST(MaliciousAppTest, RemoveOutputBufferRegionMidTransfer) {
  IntegrityRig rig;
  const auto payload = TestPattern(kLen, 0x31);
  ASSERT_EQ(rig.tx_app.Write(kSrc, payload), AccessResult::kOk);

  rig.engine.ScheduleAt(MidTransfer(), [&] {
    rig.tx_app.RemoveRegion(kSrc);  // Free the buffer under the DMA.
  });
  const InputResult result = rig.Transfer(kSrc, kDst, kLen, Semantics::kEmulatedShare);
  ASSERT_TRUE(result.ok);
  // The object reference held by the pending I/O (backed by I/O-deferred
  // deallocation at the frame level) kept the pages alive: the device read
  // the original bytes despite the free.
  const auto got = rig.ReadBack(kDst, kLen);
  EXPECT_EQ(std::memcmp(got.data(), payload.data(), kLen), 0);
  EXPECT_EQ(rig.sender.vm().pm().zombie_frames(), 0u);  // Reclaimed after.
  // All sender frames were released once the output unreferenced them.
  EXPECT_EQ(rig.sender.vm().pm().allocated_frames(), 0u);
}

// A move-family output whose moving-out source region the application
// removes mid-transfer: the device still reads the original bytes, and the
// dispose charges its region step whether or not the region survived. Basic
// move charges the removal; the other three a second mark-out (the first is
// the prepare's).
class MaliciousAppTest : public ::testing::TestWithParam<Semantics> {};

TEST_P(MaliciousAppTest, RemoveMovingOutRegionMidOutput) {
  const Semantics sem = GetParam();
  IntegrityRig rig;
  rig.tx_app.FindRegion(kSrc)->state = RegionState::kMovedIn;
  const auto payload = TestPattern(kLen, 0x53);
  ASSERT_EQ(rig.tx_app.Write(kSrc, payload), AccessResult::kOk);
  bool removed = false;
  rig.engine.ScheduleAt(MidTransfer(), [&] {
    const Region* region = rig.tx_app.RegionAt(kSrc);
    removed = region != nullptr && region->state == RegionState::kMovingOut;
    rig.tx_app.RemoveRegion(kSrc);
  });
  const InputResult result = rig.Transfer(kSrc, kDst, kLen, sem);
  ASSERT_TRUE(removed);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(rig.ReadBack(result.addr, kLen), payload);
  const bool basic_move = sem == Semantics::kMove;
  EXPECT_EQ(rig.tx_ep.op_count(OpKind::kRegionRemove), basic_move ? 1u : 0u);
  EXPECT_EQ(rig.tx_ep.op_count(OpKind::kRegionMarkOut), basic_move ? 1u : 2u);
  EXPECT_EQ(rig.sender.vm().pm().zombie_frames(), 0u);
  for (auto [node, app] : {std::pair{&rig.sender, &rig.tx_app}, {&rig.receiver, &rig.rx_app}}) {
    const InvariantReport report =
        VmInvariants::CheckAll(node->vm(), *app, /*expect_quiescent=*/true);
    EXPECT_TRUE(report.ok()) << node->name() << ": " << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(MoveFamily, MaliciousAppTest,
                         ::testing::Values(Semantics::kMove, Semantics::kEmulatedMove,
                                           Semantics::kWeakMove, Semantics::kEmulatedWeakMove),
                         [](const ::testing::TestParamInfo<Semantics>& param_info) {
                           std::string name(SemanticsName(param_info.param));
                           for (char& c : name) {
                             if (c == ' ') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(MaliciousAppTest, RemoveInputRegionMidTransferGetsRemapped) {
  IntegrityRig rig;
  ASSERT_EQ(rig.tx_app.Write(kSrc, TestPattern(kLen, 0x42)), AccessResult::kOk);
  Region* src_region = rig.tx_app.FindRegion(kSrc);
  src_region->state = RegionState::kMovedIn;

  // System-allocated input whose prepared region the application removes
  // mid-transfer: Genie's dispose-time region check maps the pages to a new
  // region so the returned location is valid (Section 6.2.1).
  InputResult result;
  auto input_driver = [](Endpoint& ep, AddressSpace& app, std::uint64_t n,
                         InputResult* out) -> Task<void> {
    *out = co_await ep.InputSystemAllocated(app, n, Semantics::kEmulatedMove);
  };
  std::move(input_driver(rig.rx_ep, rig.rx_app, kLen, &result)).Detach();
  std::move(rig.tx_ep.Output(rig.tx_app, kSrc, kLen, Semantics::kEmulatedMove)).Detach();
  bool removed = false;
  rig.engine.ScheduleAt(MidTransfer(), [&] {
    // Find the prepared (moving-in) region and remove it.
    for (Vaddr probe = 0x10000000; probe < 0x10000000 + 64ull * kPage; probe += kPage) {
      Region* r = rig.rx_app.FindRegion(probe);
      if (r != nullptr && r->state == RegionState::kMovingIn) {
        rig.rx_app.RemoveRegion(r->start);
        removed = true;
        break;
      }
    }
  });
  rig.engine.Run();
  ASSERT_TRUE(removed);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(rig.rx_ep.stats().regions_remapped_at_dispose, 1u);
  const auto got = rig.ReadBack(result.addr, kLen);
  const auto expect = TestPattern(kLen, 0x42);
  EXPECT_EQ(std::memcmp(got.data(), expect.data(), kLen), 0);
}

}  // namespace
}  // namespace genie
