#include "src/genie/sys_buffer.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/util/check.h"

namespace genie {

bool TryAllocateSysBuffer(PhysicalMemory& pm, std::uint32_t page_offset, std::uint64_t len,
                          SysBuffer* out) {
  const std::uint32_t psz = pm.page_size();
  GENIE_CHECK_LT(page_offset, psz);
  GENIE_CHECK_GT(len, 0u);
  SysBuffer buf;
  buf.length = len;
  buf.page_offset = page_offset;
  const std::uint64_t pages = (page_offset + len + psz - 1) / psz;
  buf.frames.reserve(static_cast<std::size_t>(pages));
  // Preferred: one physically contiguous run, so the DMA list is a single
  // segment and disposes/copies touch one span.
  if (page_offset + len <= std::numeric_limits<std::uint32_t>::max()) {
    const FrameId first = pm.TryAllocateRun(static_cast<std::size_t>(pages));
    if (first != kInvalidFrame) {
      for (std::uint64_t i = 0; i < pages; ++i) {
        buf.frames.push_back(first + static_cast<FrameId>(i));
      }
      buf.iov.segments.push_back(
          IoSegment{first, page_offset, static_cast<std::uint32_t>(len)});
      *out = std::move(buf);
      return true;
    }
  }
  // Fragmented fallback, frame-at-a-time, still merging segments that land
  // physically adjacent. Each allocation may fail (for real or by
  // injection), in which case the partial buffer is released.
  std::uint64_t remaining = len;
  std::uint32_t off = page_offset;
  while (remaining > 0) {
    const FrameId f = pm.TryAllocate();
    if (f == kInvalidFrame) {
      FreeSysBuffer(pm, buf);
      return false;
    }
    buf.frames.push_back(f);
    const std::uint32_t chunk =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(psz - off, remaining));
    if (!buf.iov.segments.empty()) {
      IoSegment& last = buf.iov.segments.back();
      if (static_cast<std::uint64_t>(last.frame) * psz + last.offset + last.length ==
          static_cast<std::uint64_t>(f) * psz + off) {
        last.length += chunk;
        remaining -= chunk;
        off = 0;
        continue;
      }
    }
    buf.iov.segments.push_back(IoSegment{f, off, chunk});
    remaining -= chunk;
    off = 0;
  }
  *out = std::move(buf);
  return true;
}

SysBuffer AllocateSysBuffer(PhysicalMemory& pm, std::uint32_t page_offset, std::uint64_t len) {
  SysBuffer buf;
  GENIE_CHECK(TryAllocateSysBuffer(pm, page_offset, len, &buf)) << "out of physical memory";
  return buf;
}

bool TryAllocateSysBufferDegraded(PhysicalMemory& pm, std::uint32_t page_offset,
                                  std::uint64_t len, SysBuffer* out, bool* degraded,
                                  const std::function<bool(std::uint64_t)>& ensure_frames) {
  const std::uint32_t psz = pm.page_size();
  *degraded = false;
  const std::uint64_t aligned_pages = (page_offset + len + psz - 1) / psz;
  if ((!ensure_frames || ensure_frames(aligned_pages)) &&
      TryAllocateSysBuffer(pm, page_offset, len, out)) {
    return true;
  }
  if (page_offset == 0) {
    return false;  // The aligned attempt already was the offset-0 buffer.
  }
  const std::uint64_t plain_pages = (len + psz - 1) / psz;
  if ((!ensure_frames || ensure_frames(plain_pages)) &&
      TryAllocateSysBuffer(pm, 0, len, out)) {
    *degraded = true;
    return true;
  }
  return false;
}

bool TryAllocateSysBufferFrom(AllocationPoint& ap, std::uint32_t page_offset,
                              std::uint64_t len, SysBuffer* out) {
  const std::uint32_t psz = ap.pm().page_size();
  GENIE_CHECK_LT(page_offset, psz);
  GENIE_CHECK_GT(len, 0u);
  GENIE_CHECK_LE(page_offset + len, std::numeric_limits<std::uint32_t>::max());
  const std::uint64_t pages = (page_offset + len + psz - 1) / psz;
  const FrameId first = ap.TryAllocateRun(static_cast<std::size_t>(pages));
  if (first == kInvalidFrame) {
    return false;
  }
  SysBuffer buf;
  buf.length = len;
  buf.page_offset = page_offset;
  buf.frames.reserve(static_cast<std::size_t>(pages));
  for (std::uint64_t i = 0; i < pages; ++i) {
    buf.frames.push_back(first + static_cast<FrameId>(i));
  }
  buf.iov.segments.push_back(IoSegment{first, page_offset, static_cast<std::uint32_t>(len)});
  *out = std::move(buf);
  return true;
}

void FreeSysBuffer(AllocationPoint& ap, SysBuffer& buf) {
  if (buf.frames.empty()) {
    return;
  }
  // Allocation-point sysbufs are whole contiguous runs; swap-consumed pages
  // (kInvalidFrame holes) cannot appear on the parallel path.
  for (std::size_t i = 0; i < buf.frames.size(); ++i) {
    GENIE_CHECK(buf.frames[i] != kInvalidFrame);
    GENIE_CHECK_EQ(buf.frames[i], buf.frames[0] + static_cast<FrameId>(i));
  }
  ap.FreeRun(buf.frames[0], buf.frames.size());
  buf.frames.clear();
  buf.iov.segments.clear();
}

void FreeSysBuffer(PhysicalMemory& pm, SysBuffer& buf) {
  for (FrameId& f : buf.frames) {
    if (f != kInvalidFrame) {
      pm.Free(f);
      f = kInvalidFrame;
    }
  }
}

DisposePlan DisposeAlignedIntoApp(AddressSpace& app, Vaddr va, std::uint64_t len,
                                  SysBuffer& src, std::uint64_t reverse_copyout_threshold,
                                  std::function<void(FrameId)> retire_old) {
  PhysicalMemory& pm = app.vm().pm();
  const std::uint32_t psz = pm.page_size();
  GENIE_CHECK_EQ(va % psz, src.page_offset) << "system buffer not aligned to application buffer";
  GENIE_CHECK_LE(len, src.length);
  DisposePlan plan;
  Region* region = app.FindRegion(va);
  if (region == nullptr || va + len > region->end()) {
    // The application buffer vanished while the transfer was in flight (the
    // region was removed under the pending I/O). Nothing has been disposed;
    // the caller still owns every source frame and fails the input.
    plan.ok = false;
    return plan;
  }
  MemoryObject& obj = *region->object;
  if (!retire_old) {
    retire_old = [&pm](FrameId f) { pm.Free(f); };
  }

  std::uint64_t pos = 0;
  std::size_t i = 0;
  while (pos < len) {
    const Vaddr addr = va + pos;
    const Vaddr base = addr & ~static_cast<Vaddr>(psz - 1);
    const std::uint32_t off = static_cast<std::uint32_t>(addr - base);
    const std::uint64_t filled = std::min<std::uint64_t>(psz - off, len - pos);
    const std::uint64_t index = (base - region->start) / psz;
    GENIE_CHECK_LT(i, src.frames.size());
    const FrameId sframe = src.frames[i];
    GENIE_CHECK(sframe != kInvalidFrame);

    auto swap_in = [&] {
      const FrameId old =
          obj.PageAt(index) != kInvalidFrame ? obj.ReplacePage(index, sframe) : kInvalidFrame;
      if (old == kInvalidFrame) {
        obj.InsertPage(index, sframe);
        ++plan.swaps_without_displaced;
      }
      if (Pte* pte = app.FindPte(base); pte != nullptr) {
        pte->frame = sframe;  // Keep the existing protection.
      }
      if (old != kInvalidFrame) {
        retire_old(old);
      }
      src.frames[i] = kInvalidFrame;  // Consumed; no longer ours to free.
      plan.swapped_bytes += filled;
      ++plan.pages_swapped;
    };

    if (off == 0 && filled == psz) {
      swap_in();
    } else if (filled <= reverse_copyout_threshold) {
      // Short partial page: plain copyout into the application page.
      const FrameId aframe = app.ResolvePageForIo(addr, /*for_write=*/true);
      if (aframe == kInvalidFrame) {
        // The application page could not be materialized (injected allocation
        // or backing-read failure). Stop; remaining source frames stay with
        // the caller.
        plan.ok = false;
        return plan;
      }
      std::memcpy(pm.Data(aframe).data() + off, pm.Data(sframe).data() + off,
                  static_cast<std::size_t>(filled));
      plan.copied_bytes += filled;
    } else {
      // Reverse copyout (Figure 2, items 3-4): complete the system page with
      // the application page's bytes outside the buffer, then swap.
      const FrameId aframe = app.ResolvePageForIo(addr, /*for_write=*/false);
      if (aframe == kInvalidFrame) {
        plan.ok = false;
        return plan;
      }
      auto sdata = pm.Data(sframe);
      auto adata = pm.Data(aframe);
      std::memcpy(sdata.data(), adata.data(), off);
      const std::size_t tail_start = static_cast<std::size_t>(off + filled);
      std::memcpy(sdata.data() + tail_start, adata.data() + tail_start, psz - tail_start);
      plan.copied_bytes += psz - filled;
      ++plan.reverse_copyouts;
      swap_in();
    }
    pos += filled;
    ++i;
  }
  return plan;
}

DisposePlan DisposeCopyOutIntoApp(AddressSpace& app, Vaddr va, std::uint64_t len,
                                  const IoVec& src_iov) {
  GENIE_CHECK_LE(len, src_iov.total_bytes());
  DisposePlan plan;
  if (len == 0) {
    return plan;
  }
  // Store each source segment straight through the application's address
  // space (faulting pages in as needed) — no staging copy.
  PhysicalMemory& pm = app.vm().pm();
  std::uint64_t done = 0;
  for (const IoSegment& seg : src_iov.segments) {
    if (done == len) {
      break;
    }
    const std::uint64_t chunk = std::min<std::uint64_t>(seg.length, len - done);
    const AccessResult res = app.Write(va + done, pm.DataRun(seg.frame, seg.offset, chunk));
    if (res != AccessResult::kOk) {
      // The application buffer was yanked (or a page-in failed) while the
      // data was in flight. The bytes already copied out stay; the caller
      // fails the input instead of the kernel aborting.
      plan.ok = false;
      plan.copied_bytes = done;
      return plan;
    }
    done += chunk;
  }
  GENIE_CHECK_EQ(done, len);
  plan.copied_bytes = len;
  return plan;
}

}  // namespace genie
