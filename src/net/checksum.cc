#include "src/net/checksum.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/util/check.h"

namespace genie {

namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

// One's-complement 64-bit add: the carry out of bit 63 wraps around to
// bit 0, so folding the result to 16 bits later yields the one's-complement
// sum of all 16-bit lanes ever added.
inline std::uint64_t AddOnes64(std::uint64_t sum, std::uint64_t w) {
  sum += w;
  return sum + (sum < w);
}

}  // namespace

template <bool kCopy>
void InternetChecksum::Consume(const std::byte* p, std::size_t n, std::byte* dst) {
  if (odd_ && n > 0) {
    // Pair the dangling odd byte (at an even stream offset) with the first
    // byte of this chunk; the rest of the chunk is word-aligned again.
    const std::uint8_t b = std::to_integer<std::uint8_t>(*p);
    if constexpr (kCopy) {
      *dst++ = *p;
    }
    const std::uint16_t w = kLittleEndian
                                ? static_cast<std::uint16_t>(pending_ | (b << 8))
                                : static_cast<std::uint16_t>((pending_ << 8) | b);
    sum_ = AddOnes64(sum_, w);
    odd_ = false;
    ++p;
    --n;
  }
  // Bulk dispatch: hand every whole SIMD block to the lane-widened kernel
  // (bit-identical by the folding argument in the header); the scalar loops
  // below remain the reference implementation and finish the tail.
  if (use_simd_ && n >= 64) {
    if (const std::size_t block = internal::SimdBlockBytes(); block != 0) {
      const std::size_t bulk = n & ~(block - 1);
      const std::uint64_t part =
          kCopy ? internal::SimdSumCopy(p, bulk, dst) : internal::SimdSum(p, bulk);
      sum_ = AddOnes64(sum_, part);
      p += bulk;
      n -= bulk;
      if constexpr (kCopy) {
        dst += bulk;
      }
    }
  }
  // Main loop: four independent accumulators break the carry dependency
  // chain (RFC 1071 Section 2(C), "deferred carries").
  std::uint64_t s0 = 0;
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  std::uint64_t s3 = 0;
  while (n >= 32) {
    std::uint64_t w0;
    std::uint64_t w1;
    std::uint64_t w2;
    std::uint64_t w3;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    std::memcpy(&w2, p + 16, 8);
    std::memcpy(&w3, p + 24, 8);
    if constexpr (kCopy) {
      std::memcpy(dst, p, 32);
      dst += 32;
    }
    s0 = AddOnes64(s0, w0);
    s1 = AddOnes64(s1, w1);
    s2 = AddOnes64(s2, w2);
    s3 = AddOnes64(s3, w3);
    p += 32;
    n -= 32;
  }
  std::uint64_t s = AddOnes64(AddOnes64(sum_, s0), AddOnes64(s1, AddOnes64(s2, s3)));
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    if constexpr (kCopy) {
      std::memcpy(dst, p, 8);
      dst += 8;
    }
    s = AddOnes64(s, w);
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, 4);
    if constexpr (kCopy) {
      std::memcpy(dst, p, 4);
      dst += 4;
    }
    s = AddOnes64(s, w);
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    std::uint16_t w;
    std::memcpy(&w, p, 2);
    if constexpr (kCopy) {
      std::memcpy(dst, p, 2);
      dst += 2;
    }
    s = AddOnes64(s, w);
    p += 2;
    n -= 2;
  }
  sum_ = s;
  if (n == 1) {
    if constexpr (kCopy) {
      *dst = *p;
    }
    pending_ = std::to_integer<std::uint8_t>(*p);
    odd_ = true;
  }
}

void InternetChecksum::Update(std::span<const std::byte> data) {
  Consume<false>(data.data(), data.size(), nullptr);
}

void InternetChecksum::UpdateWithCopy(std::span<const std::byte> src, std::byte* dst) {
  Consume<true>(src.data(), src.size(), dst);
}

std::uint16_t InternetChecksum::value() const {
  // Fold the 64-bit accumulator down to a 16-bit one's-complement sum.
  std::uint64_t s = sum_;
  while ((s >> 16) != 0) {
    s = (s & 0xFFFF) + (s >> 16);
  }
  std::uint16_t folded = static_cast<std::uint16_t>(s);
  if constexpr (kLittleEndian) {
    // Byte-order independence of the one's-complement sum: the sum over
    // little-endian lanes, byte-swapped, equals the sum over big-endian
    // words (RFC 1071 Section 2(B)).
    folded = static_cast<std::uint16_t>((folded << 8) | (folded >> 8));
  }
  if (odd_) {
    const std::uint32_t t =
        static_cast<std::uint32_t>(folded) + static_cast<std::uint32_t>(pending_ << 8);
    folded = static_cast<std::uint16_t>((t & 0xFFFF) + (t >> 16));
  }
  return static_cast<std::uint16_t>(~folded & 0xFFFF);
}

std::uint16_t ChecksumOf(std::span<const std::byte> data) {
  InternetChecksum c;
  c.Update(data);
  return c.value();
}

std::uint16_t CopyAndChecksum(std::span<const std::byte> src, std::span<std::byte> dst) {
  GENIE_CHECK_EQ(src.size(), dst.size());
  InternetChecksum c;
  c.UpdateWithCopy(src, dst.data());
  return c.value();
}

std::uint16_t ChecksumOfIoVec(const PhysicalMemory& pm, const IoVec& iov, std::uint64_t bytes) {
  InternetChecksum c;
  const std::uint64_t done = ForEachRun(iov, 0, bytes, [&](std::uint64_t, const IoSegment& run) {
    c.Update(pm.DataRun(run.frame, run.offset, run.length));
  });
  GENIE_CHECK_EQ(done, bytes);
  return c.value();
}

}  // namespace genie
