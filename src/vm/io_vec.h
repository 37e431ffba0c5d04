// Scatter/gather descriptor for device DMA: a list of (frame, offset, length)
// segments referencing physical pages. Produced by page referencing
// (paper Section 3.1) and consumed by the network adapter.
#ifndef GENIE_SRC_VM_IO_VEC_H_
#define GENIE_SRC_VM_IO_VEC_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/mem/phys_memory.h"

namespace genie {

struct IoSegment {
  FrameId frame = kInvalidFrame;
  std::uint32_t offset = 0;  // byte offset within the frame
  std::uint32_t length = 0;  // bytes in this segment
};

struct IoVec {
  std::vector<IoSegment> segments;

  std::uint64_t total_bytes() const {
    std::uint64_t n = 0;
    for (const IoSegment& s : segments) {
      n += s.length;
    }
    return n;
  }
};

// The scatter/gather walk under every byte mover that reads or writes an
// IoVec: visits iovec bytes [offset, offset+len) in order, one physical run
// per segment it touches, calling fn(pos, run) with the run's position in
// the range and its (frame, offset, length). fn may return false to stop
// before the next run. Returns the bytes covered by the runs that completed,
// which is less than `len` when the iovec ends first or fn stops.
template <typename Fn>
std::uint64_t ForEachRun(const IoVec& iov, std::uint64_t offset, std::uint64_t len, Fn&& fn) {
  std::uint64_t done = 0;
  for (const IoSegment& seg : iov.segments) {
    if (done == len) {
      break;
    }
    if (offset >= seg.length) {
      offset -= seg.length;
      continue;
    }
    const auto n =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(seg.length - offset, len - done));
    const IoSegment run{seg.frame, static_cast<std::uint32_t>(seg.offset + offset), n};
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, std::uint64_t, const IoSegment&>,
                                 bool>) {
      if (!fn(done, run)) {
        return done;
      }
    } else {
      fn(done, run);
    }
    done += n;
    offset = 0;
  }
  return done;
}

}  // namespace genie

#endif  // GENIE_SRC_VM_IO_VEC_H_
