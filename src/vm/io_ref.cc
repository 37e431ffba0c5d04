#include "src/vm/io_ref.h"

#include <algorithm>

#include "src/util/check.h"

namespace genie {

AccessResult ReferenceRange(AddressSpace& aspace, Vaddr va, std::uint64_t len, IoDirection dir,
                            IoReference* out) {
  GENIE_CHECK(out != nullptr);
  GENIE_CHECK_GT(len, 0u);
  Region* region = aspace.FindRegion(va);
  if (region == nullptr || va + len > region->end()) {
    return AccessResult::kUnrecoverableFault;  // Buffer not within one region.
  }
  const std::uint32_t page_size = aspace.page_size();
  out->iovec.segments.clear();
  out->frames.clear();
  out->frames.reserve(static_cast<std::size_t>((va % page_size + len + page_size - 1) / page_size));
  out->object = region->object;
  out->direction = dir;

  std::uint64_t done = 0;
  while (done < len) {
    const Vaddr addr = va + done;
    // Resolve the physical page, verifying access rights: write for input
    // (the device will store; resolves COW/TCOW pages to private copies),
    // read for output. Application-visible protections are not changed.
    const bool for_write = dir == IoDirection::kInput;
    const FrameId frame = aspace.ResolvePageForIo(addr, for_write);
    if (frame == kInvalidFrame) {
      // Roll back references taken so far.
      out->active = true;
      Unreference(aspace.vm(), *out);
      return AccessResult::kUnrecoverableFault;
    }
    const std::uint32_t offset = static_cast<std::uint32_t>(addr % page_size);
    const std::uint32_t chunk =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(page_size - offset, len - done));
    if (dir == IoDirection::kInput) {
      aspace.vm().pm().AddInputRef(frame);
      out->object->AddInputRef();
    } else {
      aspace.vm().pm().AddOutputRef(frame);
    }
    out->frames.push_back(frame);
    // Physically contiguous with the previous segment? Grow it instead of
    // appending, so the device sees one long DMA segment (frames stay
    // per-page for reference accounting).
    bool merged = false;
    if (!out->iovec.segments.empty()) {
      IoSegment& last = out->iovec.segments.back();
      const std::uint64_t last_end =
          static_cast<std::uint64_t>(last.frame) * page_size + last.offset + last.length;
      const std::uint64_t this_start = static_cast<std::uint64_t>(frame) * page_size + offset;
      if (last_end == this_start) {
        last.length += chunk;
        merged = true;
      }
    }
    if (!merged) {
      out->iovec.segments.push_back(IoSegment{frame, offset, chunk});
    }
    done += chunk;
  }
  out->active = true;
  return AccessResult::kOk;
}

void Unreference(Vm& vm, IoReference& ref) {
  GENIE_CHECK(ref.active) << "unreference of inactive IoReference";
  for (const FrameId frame : ref.frames) {
    if (ref.direction == IoDirection::kInput) {
      vm.pm().DropInputRef(frame);
      ref.object->DropInputRef();
    } else {
      vm.pm().DropOutputRef(frame);
    }
  }
  ref.frames.clear();
  ref.iovec.segments.clear();
  ref.object.reset();
  ref.active = false;
}

}  // namespace genie
