#include "src/net/checksum.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/iovec_io.h"

namespace genie {
namespace {

// Scalar big-endian-word reference (RFC 1071 as usually written): the
// word-at-a-time implementation must be bit-identical to this.
std::uint16_t ReferenceChecksum(std::span<const std::byte> data) {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (std::to_integer<std::uint32_t>(data[i]) << 8) |
           std::to_integer<std::uint32_t>(data[i + 1]);
  }
  if (i < data.size()) {
    sum += std::to_integer<std::uint32_t>(data[i]) << 8;
  }
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

std::vector<std::byte> Bytes(std::initializer_list<unsigned char> list) {
  std::vector<std::byte> v;
  for (unsigned char c : list) {
    v.push_back(static_cast<std::byte>(c));
  }
  return v;
}

TEST(InternetChecksumTest, Rfc1071Example) {
  // RFC 1071's worked example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2
  // (before complement); checksum = ~ddf2 = 220d.
  const auto data = Bytes({0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7});
  EXPECT_EQ(ChecksumOf(data), 0x220D);
}

TEST(InternetChecksumTest, EmptyData) {
  EXPECT_EQ(ChecksumOf({}), 0xFFFF);  // ~0.
}

TEST(InternetChecksumTest, OddLength) {
  // Odd final byte is padded with zero: 0xAB00 -> ~0xAB00 = 0x54FF.
  const auto data = Bytes({0xAB});
  EXPECT_EQ(ChecksumOf(data), 0x54FF);
}

TEST(InternetChecksumTest, IncrementalMatchesOneShotEvenSplits) {
  std::vector<std::byte> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 13 + 7) & 0xFF);
  }
  InternetChecksum c;
  c.Update(std::span<const std::byte>(data).subspan(0, 400));
  c.Update(std::span<const std::byte>(data).subspan(400));
  EXPECT_EQ(c.value(), ChecksumOf(data));
}

TEST(InternetChecksumTest, IncrementalMatchesOneShotOddSplits) {
  std::vector<std::byte> data(999);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 31 + 3) & 0xFF);
  }
  InternetChecksum c;
  c.Update(std::span<const std::byte>(data).subspan(0, 333));  // Odd chunk.
  c.Update(std::span<const std::byte>(data).subspan(333, 111));  // Odd chunk.
  c.Update(std::span<const std::byte>(data).subspan(444));
  EXPECT_EQ(c.value(), ChecksumOf(data));
}

TEST(InternetChecksumTest, DetectsSingleBitFlip) {
  std::vector<std::byte> data(64, std::byte{0x42});
  const std::uint16_t before = ChecksumOf(data);
  data[17] = std::byte{0x43};
  EXPECT_NE(ChecksumOf(data), before);
}

// --- Property tests: random buffers, arbitrary split points ---

TEST(InternetChecksumTest, MatchesScalarReferenceOnRandomBuffers) {
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> size(0, 8192);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::byte> data(size(rng));
    for (auto& b : data) {
      b = static_cast<std::byte>(byte(rng));
    }
    ASSERT_EQ(ChecksumOf(data), ReferenceChecksum(data)) << "len=" << data.size();
  }
}

TEST(InternetChecksumTest, ArbitrarySplitSequencesMatchOneShot) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 100; ++round) {
    std::uniform_int_distribution<std::size_t> size(1, 4096);
    std::vector<std::byte> data(size(rng));
    for (auto& b : data) {
      b = static_cast<std::byte>(byte(rng));
    }
    const std::uint16_t expect = ChecksumOf(data);
    InternetChecksum c;
    std::size_t pos = 0;
    while (pos < data.size()) {
      // Heavily biased toward tiny (incl. odd and zero-length) chunks so
      // the dangling-byte carry path is exercised at every alignment.
      std::uniform_int_distribution<std::size_t> step(0, 1 + (round % 37));
      const std::size_t n = std::min(step(rng), data.size() - pos);
      c.Update(std::span<const std::byte>(data).subspan(pos, n));
      pos += n;
    }
    ASSERT_EQ(c.value(), expect) << "len=" << data.size() << " round=" << round;
  }
}

TEST(InternetChecksumTest, CopyAndChecksumMatchesMemcpyPlusChecksum) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> size(0, 10000);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::byte> src(size(rng));
    for (auto& b : src) {
      b = static_cast<std::byte>(byte(rng));
    }
    std::vector<std::byte> dst(src.size(), std::byte{0xEE});
    const std::uint16_t sum = CopyAndChecksum(src, dst);
    EXPECT_EQ(sum, ChecksumOf(src));
    ASSERT_TRUE(std::equal(src.begin(), src.end(), dst.begin()));
  }
}

TEST(InternetChecksumTest, UpdateWithCopySplitSequencesCopyAndSum) {
  // Split fused updates at arbitrary odd points: both the checksum and the
  // copied bytes must match the one-shot versions.
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 50; ++round) {
    std::uniform_int_distribution<std::size_t> size(1, 3000);
    std::vector<std::byte> src(size(rng));
    for (auto& b : src) {
      b = static_cast<std::byte>(byte(rng));
    }
    std::vector<std::byte> dst(src.size(), std::byte{0});
    InternetChecksum c;
    std::size_t pos = 0;
    while (pos < src.size()) {
      std::uniform_int_distribution<std::size_t> step(1, 61);
      const std::size_t n = std::min(step(rng), src.size() - pos);
      c.UpdateWithCopy(std::span<const std::byte>(src).subspan(pos, n), dst.data() + pos);
      pos += n;
    }
    ASSERT_EQ(c.value(), ChecksumOf(src));
    ASSERT_TRUE(std::equal(src.begin(), src.end(), dst.begin()));
  }
}

// --- SIMD differential tests: the dispatched kernel (AVX2/NEON when the
// host has one; otherwise these reduce to scalar-vs-scalar and pass
// trivially) must be bit-identical to the scalar reference path, which
// set_use_simd(false) pins. ---

TEST(ChecksumSimdTest, IsaNameIsConsistentWithAvailability) {
  if (ChecksumSimdAvailable()) {
    EXPECT_STRNE(ChecksumIsaName(), "scalar");
    EXPECT_GT(internal::SimdBlockBytes(), 0u);
  } else {
    EXPECT_STREQ(ChecksumIsaName(), "scalar");
    EXPECT_EQ(internal::SimdBlockBytes(), 0u);
  }
}

TEST(ChecksumSimdTest, MatchesScalarOverRandomLengths) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  // Lengths straddling every dispatch boundary: below the 64-byte SIMD
  // threshold, one block, block+tail, and multi-KiB bulk.
  std::uniform_int_distribution<std::size_t> size(0, 16384);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::byte> data(round < 128 ? static_cast<std::size_t>(round) : size(rng));
    for (auto& b : data) {
      b = static_cast<std::byte>(byte(rng));
    }
    InternetChecksum simd;
    simd.Update(data);
    InternetChecksum scalar;
    scalar.set_use_simd(false);
    scalar.Update(data);
    ASSERT_EQ(simd.value(), scalar.value()) << "len=" << data.size();
    ASSERT_EQ(simd.value(), ReferenceChecksum(data)) << "len=" << data.size();
  }
}

TEST(ChecksumSimdTest, AllSourceAndDestinationMisalignments) {
  // A 64-byte-aligned backing store, then every (src, dst) misalignment in
  // 0..63: unaligned loads/stores in the kernel must neither fault nor
  // change the folded value or the copied bytes.
  constexpr std::size_t kLen = 2048 + 7;  // odd length: scalar tail + carry
  alignas(64) static std::byte src_store[kLen + 64];
  alignas(64) static std::byte dst_store[kLen + 64];
  std::mt19937 rng(424242);
  std::uniform_int_distribution<int> byte(0, 255);
  for (auto& b : src_store) {
    b = static_cast<std::byte>(byte(rng));
  }
  for (std::size_t src_off = 0; src_off < 64; ++src_off) {
    const std::span<const std::byte> src(src_store + src_off, kLen);
    InternetChecksum scalar;
    scalar.set_use_simd(false);
    scalar.Update(src);
    const std::uint16_t expect = scalar.value();
    for (std::size_t dst_off = 0; dst_off < 64; ++dst_off) {
      const std::span<std::byte> dst(dst_store + dst_off, kLen);
      std::memset(dst_store, 0xEE, sizeof dst_store);
      ASSERT_EQ(CopyAndChecksum(src, dst), expect)
          << "src_off=" << src_off << " dst_off=" << dst_off;
      ASSERT_TRUE(std::equal(src.begin(), src.end(), dst.begin()))
          << "src_off=" << src_off << " dst_off=" << dst_off;
    }
  }
}

TEST(ChecksumSimdTest, FusedSplitSequencesMatchScalarAcrossOddCarries) {
  // Arbitrary (odd, tiny, huge) Update splits drive the dangling-byte carry
  // through the SIMD entry: after an odd chunk every later chunk enters the
  // kernel mid-stream. SIMD and forced-scalar runs must agree at every
  // intermediate value() observation, not just the final one.
  std::mt19937 rng(777);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 60; ++round) {
    std::uniform_int_distribution<std::size_t> size(1, 9000);
    std::vector<std::byte> src(size(rng));
    for (auto& b : src) {
      b = static_cast<std::byte>(byte(rng));
    }
    std::vector<std::byte> dst_simd(src.size(), std::byte{0});
    std::vector<std::byte> dst_scalar(src.size(), std::byte{0});
    InternetChecksum simd;
    InternetChecksum scalar;
    scalar.set_use_simd(false);
    std::size_t pos = 0;
    while (pos < src.size()) {
      std::uniform_int_distribution<std::size_t> step(1, 1 + (round % 2 ? 63 : 1500));
      const std::size_t n = std::min(step(rng), src.size() - pos);
      const auto chunk = std::span<const std::byte>(src).subspan(pos, n);
      simd.UpdateWithCopy(chunk, dst_simd.data() + pos);
      scalar.UpdateWithCopy(chunk, dst_scalar.data() + pos);
      ASSERT_EQ(simd.value(), scalar.value())
          << "round=" << round << " pos=" << pos << " n=" << n;
      pos += n;
    }
    ASSERT_EQ(simd.value(), ChecksumOf(src));
    ASSERT_TRUE(std::equal(src.begin(), src.end(), dst_simd.begin()));
    ASSERT_TRUE(std::equal(src.begin(), src.end(), dst_scalar.begin()));
  }
}

TEST(InternetChecksumTest, ResetClearsDanglingByte) {
  InternetChecksum c;
  c.Update(Bytes({0x01, 0x02, 0x03}));  // Leaves a dangling odd byte.
  c.Reset();
  EXPECT_EQ(c.value(), 0xFFFF);
  c.Update(Bytes({0xAB}));
  EXPECT_EQ(c.value(), 0x54FF);
}

TEST(InternetChecksumTest, IoVecMatchesLinear) {
  PhysicalMemory pm(4, 4096);
  const FrameId a = pm.Allocate();
  const FrameId b = pm.Allocate();
  std::vector<std::byte> linear(6000);
  for (std::size_t i = 0; i < linear.size(); ++i) {
    linear[i] = static_cast<std::byte>((i * 7) & 0xFF);
  }
  std::memcpy(pm.Data(a).data() + 100, linear.data(), 3996);
  std::memcpy(pm.Data(b).data(), linear.data() + 3996, 2004);
  IoVec iov;
  iov.segments.push_back(IoSegment{a, 100, 3996});
  iov.segments.push_back(IoSegment{b, 0, 2004});
  EXPECT_EQ(ChecksumOfIoVec(pm, iov, 6000), ChecksumOf(linear));
  // Prefix checksum over a sub-range also matches.
  EXPECT_EQ(ChecksumOfIoVec(pm, iov, 1000),
            ChecksumOf(std::span<const std::byte>(linear).subspan(0, 1000)));
  // A prefix that ends mid-segment past the boundary.
  EXPECT_EQ(ChecksumOfIoVec(pm, iov, 5000),
            ChecksumOf(std::span<const std::byte>(linear).subspan(0, 5000)));

  // Gather and scatter from mid-segment across the segment boundary.
  std::vector<std::byte> got(2000);
  ReadFromIoVec(pm, iov, 3000, got);
  EXPECT_EQ(std::memcmp(got.data(), linear.data() + 3000, got.size()), 0);
  std::vector<std::byte> patch(2000);
  for (std::size_t i = 0; i < patch.size(); ++i) {
    patch[i] = static_cast<std::byte>((i * 13 + 5) & 0xFF);
  }
  EXPECT_EQ(WriteToIoVec(pm, iov, 3000, patch), patch.size());
  std::copy(patch.begin(), patch.end(), linear.begin() + 3000);
  std::vector<std::byte> all(linear.size());
  ReadFromIoVec(pm, iov, 0, all);
  EXPECT_EQ(all, linear);
  EXPECT_EQ(ChecksumOfIoVec(pm, iov, 6000), ChecksumOf(linear));

  // A write past the end is clipped at the iovec end.
  EXPECT_EQ(WriteToIoVec(pm, iov, 5000, patch), 1000u);
  std::copy(patch.begin(), patch.begin() + 1000, linear.begin() + 5000);
  ReadFromIoVec(pm, iov, 0, all);
  EXPECT_EQ(all, linear);
  EXPECT_EQ(WriteToIoVec(pm, iov, 6000, patch), 0u);
  pm.Free(a);
  pm.Free(b);
}

}  // namespace
}  // namespace genie
