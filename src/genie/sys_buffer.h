// Kernel system buffers and input alignment (paper Section 5.2).
//
// A SysBuffer is a run of raw kernel frames (not owned by a memory object)
// used as a DMA target or source. With *system input alignment* the buffer
// starts at the same page offset and has the same length as the application
// buffer it will be disposed into, so whole pages can be swapped even when
// the application buffer is not page-aligned; partially filled pages are
// moved by (reverse) copyout under the threshold rule.
#ifndef GENIE_SRC_GENIE_SYS_BUFFER_H_
#define GENIE_SRC_GENIE_SYS_BUFFER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/mem/alloc_point.h"
#include "src/mem/phys_memory.h"
#include "src/vm/address_space.h"
#include "src/vm/io_vec.h"

namespace genie {

struct SysBuffer {
  std::vector<FrameId> frames;  // kInvalidFrame marks pages consumed by swaps
  IoVec iov;
  std::uint64_t length = 0;
  std::uint32_t page_offset = 0;  // offset of the first byte in the first frame
};

// Allocates a system buffer of `len` bytes whose first byte sits at
// `page_offset` within its first frame (0 = conventional unaligned buffer):
// one contiguous run when the free list has one, else frame at a time. On
// allocation failure (exhaustion or an injected
// FaultSite::kFrameAllocate/kFrameAllocateRun) any partially allocated
// frames are freed and false is returned with `*out` untouched.
bool TryAllocateSysBuffer(PhysicalMemory& pm, std::uint32_t page_offset, std::uint64_t len,
                          SysBuffer* out);

// As TryAllocateSysBuffer, for callers with no recovery path: dies with
// "out of physical memory" when the allocation fails.
SysBuffer AllocateSysBuffer(PhysicalMemory& pm, std::uint32_t page_offset, std::uint64_t len);

// Alignment-degrading allocation for the reliability layer: tries the
// aligned buffer first (`ensure_frames` is called with the page count of
// each attempt so the caller can run pageout before it), and when the
// aligned request cannot be satisfied falls back to an offset-0 buffer —
// one page smaller for any nonzero offset — whose dispose copies out
// instead of swapping. `*degraded` reports which attempt succeeded.
// Returns false only when both attempts fail.
bool TryAllocateSysBufferDegraded(PhysicalMemory& pm, std::uint32_t page_offset,
                                  std::uint64_t len, SysBuffer* out, bool* degraded,
                                  const std::function<bool(std::uint64_t)>& ensure_frames);

// Frees the frames still held by `buf` (those not consumed by page swaps).
void FreeSysBuffer(PhysicalMemory& pm, SysBuffer& buf);

// Parallel-mode sysbuf allocation: draws one physically contiguous run from
// a per-thread AllocationPoint (bump fast path, fill/trap refill) instead
// of the global free list, so the hot path takes no lock. Always
// single-segment; fails (false) only when PhysicalMemory cannot supply a
// contiguous run at refill. Buffers from this path must be freed with the
// AllocationPoint overload below, on the owning thread, and must not have
// pages consumed by swaps (the parallel host path never disposes by swap).
bool TryAllocateSysBufferFrom(AllocationPoint& ap, std::uint32_t page_offset,
                              std::uint64_t len, SysBuffer* out);
void FreeSysBuffer(AllocationPoint& ap, SysBuffer& buf);

// Byte accounting of an input dispose, used to charge swap vs copy costs.
struct DisposePlan {
  std::uint64_t swapped_bytes = 0;   // moved by page swap
  std::uint64_t copied_bytes = 0;    // moved by copyout or reverse copyout
  std::uint64_t pages_swapped = 0;
  std::uint64_t reverse_copyouts = 0;
  // Swaps into previously untouched buffer pages, which displace no old
  // frame (an overlay pool must replenish itself by this many pages).
  std::uint64_t swaps_without_displaced = 0;
  // False if the dispose stopped early because the application buffer became
  // unusable mid-transfer (region removed, or a page could not be materialized
  // under an injected allocation/backing failure). The byte counts above
  // reflect what was actually moved; unconsumed source frames remain owned by
  // `src` for the caller to free.
  bool ok = true;
};

// Disposes `len` bytes of input data from aligned source pages into the
// application buffer [va, va+len) by swapping full pages and applying the
// reverse-copyout rule to partial ones (Section 5.2 and Figure 2):
//   data in a partial source page <= threshold  -> copy it out;
//   longer                                      -> complete the source page
//                                                  from the application page,
//                                                  then swap.
//
// Preconditions: src.page_offset == va % page_size (alignment), and
// src.frames covers ceil(len) pages. Swapped-in frames join the buffer's
// memory object; displaced application frames are passed to `retire_old`
// (default: freed). Consumed source frames are marked kInvalidFrame in
// `src.frames`.
DisposePlan DisposeAlignedIntoApp(AddressSpace& app, Vaddr va, std::uint64_t len,
                                  SysBuffer& src, std::uint64_t reverse_copyout_threshold,
                                  std::function<void(FrameId)> retire_old = nullptr);

// Unaligned fallback: copies all `len` bytes from `src_iov` into the
// application buffer.
DisposePlan DisposeCopyOutIntoApp(AddressSpace& app, Vaddr va, std::uint64_t len,
                                  const IoVec& src_iov);

}  // namespace genie

#endif  // GENIE_SRC_GENIE_SYS_BUFFER_H_
