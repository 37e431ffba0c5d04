// Checksum integration extension (paper Section 9 / reference [4]): both
// checksum modes verify good data; a corrupted checksum fails the input; and
// the semantic implication — integrated checksum+copy degrades copy to weak
// semantics — is observable, while the separate pass keeps it strong.
#include <gtest/gtest.h>

#include "tests/genie_test_util.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
constexpr Vaddr kSrc = 0x20000000;
constexpr Vaddr kDst = 0x30000000;
constexpr std::uint64_t kLen = 4 * kPage;

struct ChecksumRig : Rig {
  explicit ChecksumRig(ChecksumMode mode,
                       InputBuffering buffering = InputBuffering::kEarlyDemux)
      : Rig(buffering, WithMode(mode)) {
    tx_app.CreateRegion(kSrc, 16 * kPage);
    rx_app.CreateRegion(kDst, 16 * kPage);
  }
  static GenieOptions WithMode(ChecksumMode mode) {
    GenieOptions o;
    o.checksum_mode = mode;
    return o;
  }
};

class ChecksumModeTest
    : public ::testing::TestWithParam<std::tuple<ChecksumMode, InputBuffering>> {};

TEST_P(ChecksumModeTest, GoodDataVerifies) {
  ChecksumRig rig(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const auto payload = TestPattern(kLen, 5);
  ASSERT_EQ(rig.tx_app.Write(kSrc, payload), AccessResult::kOk);
  const InputResult r = rig.Transfer(kSrc, kDst, kLen, Semantics::kEmulatedCopy);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.checksum_ok);
  const auto got = rig.ReadBack(kDst, kLen);
  EXPECT_EQ(std::memcmp(got.data(), payload.data(), kLen), 0);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndBuffering, ChecksumModeTest,
    ::testing::Combine(::testing::Values(ChecksumMode::kSeparatePass, ChecksumMode::kIntegrated),
                       ::testing::Values(InputBuffering::kEarlyDemux, InputBuffering::kPooled,
                                         InputBuffering::kOutboard)),
    [](const ::testing::TestParamInfo<std::tuple<ChecksumMode, InputBuffering>>& param_info) {
      std::string name = std::get<0>(param_info.param) == ChecksumMode::kSeparatePass
                             ? "separate"
                             : "integrated";
      name += "_" + std::string(InputBufferingName(std::get<1>(param_info.param)));
      for (char& c : name) {
        if (c == ' ' || c == '-') {
          c = '_';
        }
      }
      return name;
    });

// A corrupted checksum in each input-buffering architecture. Early demux
// and pooled verify the bytes in host memory at the dispose; outboard
// verifies them in adapter memory before the DMA to the host, and with an
// integrated checksum that DMA is the pass that carries it.
class ChecksumSemanticsTest : public ::testing::TestWithParam<InputBuffering> {
 protected:
  // Transfers a payload whose checksum is corrupted in flight onto the
  // canvas at kDst, and returns what the receiver reports. The receiver
  // must end with its device buffers and free frames as they were.
  InputResult CorruptedTransfer(ChecksumRig& rig, Semantics sem, Vaddr dst = kDst) {
    EXPECT_EQ(rig.rx_app.Write(dst, canvas_), AccessResult::kOk);
    EXPECT_EQ(rig.tx_app.Write(kSrc, payload_), AccessResult::kOk);
    const std::size_t free_frames = rig.receiver.vm().pm().free_frames();
    rig.tx_ep.CorruptNextChecksum();
    const InputResult r = rig.Transfer(kSrc, dst, kLen, sem);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.checksum_ok);
    EXPECT_TRUE(r.crc_ok);  // The link itself was fine.
    ExpectDeviceBuffersFree(rig.receiver.adapter());
    EXPECT_EQ(rig.receiver.vm().pm().free_frames(), free_frames);
    rig.ExpectQuiescent();
    return r;
  }

  bool BufferIs(ChecksumRig& rig, const std::vector<std::byte>& expected, Vaddr dst = kDst) {
    return rig.ReadBack(dst, kLen) == expected;
  }

  const std::vector<std::byte> canvas_ = TestPattern(kLen, 0x77);
  const std::vector<std::byte> payload_ = TestPattern(kLen, 5);
};

TEST_P(ChecksumSemanticsTest, SeparatePassKeepsCopySemanticsStrong) {
  // Bad checksum, separate pass, copy semantics: the application buffer must
  // be untouched (verification happens before the copyout or the DMA).
  ChecksumRig rig(ChecksumMode::kSeparatePass, GetParam());
  const InputResult r = CorruptedTransfer(rig, Semantics::kCopy);
  EXPECT_EQ(r.status, IoStatus::kIoError);
  EXPECT_TRUE(BufferIs(rig, canvas_));
}

TEST_P(ChecksumSemanticsTest, IntegratedChecksumDegradesCopyToWeak) {
  // The paper's Section 9 point: if checksumming is integrated with the copy
  // into the application buffer and the checksum is wrong, the buffer is
  // overwritten with faulty data — actually weak, not copy, semantics. The
  // transfer itself completed, so the status stays kOk.
  ChecksumRig rig(ChecksumMode::kIntegrated, GetParam());
  const InputResult r = CorruptedTransfer(rig, Semantics::kCopy);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_TRUE(BufferIs(rig, payload_));  // Overwritten before detection.
}

TEST_P(ChecksumSemanticsTest, SwapPathsAlwaysVerifySeparately) {
  // Emulated copy with aligned buffers swaps pages; integration is
  // impossible there, so even kIntegrated falls back to a separate pass and
  // the application buffer is protected. Outboard emulated copy has no swap
  // (Section 6.2.3): it DMAs straight into the application buffer, and that
  // DMA carries the integrated checksum, so the buffer is overwritten.
  ChecksumRig rig(ChecksumMode::kIntegrated, GetParam());
  const InputResult r = CorruptedTransfer(rig, Semantics::kEmulatedCopy);
  if (GetParam() == InputBuffering::kOutboard) {
    EXPECT_EQ(r.status, IoStatus::kOk);
    EXPECT_TRUE(BufferIs(rig, payload_));
  } else {
    EXPECT_EQ(r.status, IoStatus::kIoError);
    EXPECT_TRUE(BufferIs(rig, canvas_));
  }
}

TEST_P(ChecksumSemanticsTest, UnalignedCopyOutCarriesIntegratedChecksum) {
  // Into an unaligned buffer, a pooled device's emulated copy, share and
  // emulated share copy every byte out of the overlay pages (Table 4), so an
  // integrated checksum rides that copy as it rides copy semantics: the
  // buffer is overwritten before the mismatch shows. Early demux keeps
  // emulated copy on a page swap (its system buffer shares the buffer's
  // page offset) and lands share in place, so both verify in a separate
  // pass; outboard's DMA carries the checksum for every semantics.
  const Vaddr dst = kDst + 1000;
  const bool integrated = GetParam() != InputBuffering::kEarlyDemux;
  for (const Semantics sem :
       {Semantics::kEmulatedCopy, Semantics::kShare, Semantics::kEmulatedShare}) {
    ChecksumRig rig(ChecksumMode::kIntegrated, GetParam());
    const InputResult r = CorruptedTransfer(rig, sem, dst);
    EXPECT_EQ(rig.rx_ep.op_count(OpKind::kChecksumIntegrated), integrated ? 1u : 0u)
        << SemanticsName(sem);
    EXPECT_EQ(rig.rx_ep.op_count(OpKind::kChecksumRead), integrated ? 0u : 1u)
        << SemanticsName(sem);
    EXPECT_EQ(r.status, integrated ? IoStatus::kOk : IoStatus::kIoError) << SemanticsName(sem);
    const bool in_place = sem != Semantics::kEmulatedCopy;
    EXPECT_TRUE(BufferIs(rig, integrated || in_place ? payload_ : canvas_, dst))
        << SemanticsName(sem);
  }
}

TEST_P(ChecksumSemanticsTest, ChannelRecoversAfterChecksumFailure) {
  ChecksumRig rig(ChecksumMode::kSeparatePass, GetParam());
  CorruptedTransfer(rig, Semantics::kEmulatedCopy);
  const InputResult retry = rig.Transfer(kSrc, kDst, kLen, Semantics::kEmulatedCopy);
  EXPECT_TRUE(retry.ok);
  EXPECT_TRUE(retry.checksum_ok);
  EXPECT_TRUE(BufferIs(rig, payload_));
  rig.ExpectQuiescent();
}

INSTANTIATE_TEST_SUITE_P(AllModes, ChecksumSemanticsTest,
                         ::testing::Values(InputBuffering::kEarlyDemux, InputBuffering::kPooled,
                                           InputBuffering::kOutboard),
                         [](const ::testing::TestParamInfo<InputBuffering>& param_info) {
                           return BufferingTestName(param_info.param);
                         });

TEST(ChecksumCostTest, VmPassPlusReadBeatsChecksumAndCopy) {
  // The reference [4] claim as measured end-to-end: for long data, emulated
  // copy + separate checksum pass is faster than copy with an integrated
  // checksum (one-step checksum-and-copy).
  ChecksumRig vm_pass(ChecksumMode::kSeparatePass);
  ChecksumRig one_step(ChecksumMode::kIntegrated);
  const std::uint64_t len = 12 * kPage;
  ASSERT_EQ(vm_pass.tx_app.Write(kSrc, TestPattern(len, 5)), AccessResult::kOk);
  ASSERT_EQ(one_step.tx_app.Write(kSrc, TestPattern(len, 5)), AccessResult::kOk);

  // Warm up, then measure.
  vm_pass.Transfer(kSrc, kDst, len, Semantics::kEmulatedCopy);
  one_step.Transfer(kSrc, kDst, len, Semantics::kCopy);
  SimTime t0 = vm_pass.engine.now();
  const InputResult a = vm_pass.Transfer(kSrc, kDst, len, Semantics::kEmulatedCopy);
  const double vm_us = SimTimeToMicros(a.completed_at - t0);
  t0 = one_step.engine.now();
  const InputResult b = one_step.Transfer(kSrc, kDst, len, Semantics::kCopy);
  const double copy_us = SimTimeToMicros(b.completed_at - t0);
  EXPECT_LT(vm_us, copy_us);
}

}  // namespace
}  // namespace genie
