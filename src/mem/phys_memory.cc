#include "src/mem/phys_memory.h"

#include <algorithm>
#include <cstring>

namespace genie {

PhysicalMemory::PhysicalMemory(std::size_t num_frames, std::uint32_t page_size)
    : page_size_(page_size) {
  GENIE_CHECK_GT(num_frames, 0u);
  GENIE_CHECK_GT(page_size, 0u);
  arena_.reset(static_cast<std::byte*>(std::calloc(num_frames, page_size)));
  GENIE_CHECK(arena_ != nullptr) << "cannot allocate " << num_frames << " frames";
  info_.resize(num_frames);
  free_runs_[0] = static_cast<FrameId>(num_frames);
  free_count_ = num_frames;
}

void PhysicalMemory::TakeFromRun(std::map<FrameId, FrameId>::iterator run, FrameId first,
                                 FrameId count) {
  const FrameId run_start = run->first;
  const FrameId run_len = run->second;
  GENIE_CHECK_LE(run_start, first);
  GENIE_CHECK_LE(first + count, run_start + run_len);
  const FrameId tail_start = first + count;
  const FrameId tail_len = (run_start + run_len) - tail_start;
  if (first > run_start) {
    run->second = first - run_start;  // The head keeps the node.
    if (tail_len > 0) {
      free_runs_.emplace_hint(std::next(run), tail_start, tail_len);
    }
  } else if (tail_len > 0) {
    // Taken from the front (first fit): re-key the node to the tail instead
    // of freeing it and allocating another.
    const auto hint = std::next(run);
    auto node = free_runs_.extract(run);
    node.key() = tail_start;
    node.mapped() = tail_len;
    free_runs_.insert(hint, std::move(node));
  } else {
    free_runs_.erase(run);
  }
  free_count_ -= count;
  for (FrameId f = first; f < first + count; ++f) {
    FrameInfo& fi = info_[f];
    GENIE_CHECK(!fi.allocated && !fi.zombie);
    fi = FrameInfo{};
    fi.allocated = true;
  }
  total_allocations_ += count;
}

FrameId PhysicalMemory::Allocate() {
  // No fault-plan consult: Allocate is the no-recovery path (see header).
  const FrameId frame = AllocateLowest();
  GENIE_CHECK(frame != kInvalidFrame) << "out of physical memory";
  return frame;
}

FrameId PhysicalMemory::AllocateLowest() {
  if (free_runs_.empty()) {
    return kInvalidFrame;
  }
  auto run = free_runs_.begin();  // Lowest free frame first.
  const FrameId frame = run->first;
  TakeFromRun(run, frame, 1);
  return frame;
}

FrameId PhysicalMemory::TryAllocate() {
  if (fault_plan_ != nullptr && fault_plan_->ShouldFail(FaultSite::kFrameAllocate)) {
    return kInvalidFrame;  // Injected allocation exhaustion.
  }
  return AllocateLowest();
}

FrameId PhysicalMemory::TryAllocateRun(std::size_t count) {
  GENIE_CHECK_GT(count, 0u);
  if (fault_plan_ != nullptr && fault_plan_->ShouldFail(FaultSite::kFrameAllocateRun)) {
    return kInvalidFrame;  // Injected fragmentation: no run long enough.
  }
  for (auto run = free_runs_.begin(); run != free_runs_.end(); ++run) {
    if (run->second >= count) {
      const FrameId first = run->first;
      TakeFromRun(run, first, static_cast<FrameId>(count));
      return first;
    }
  }
  return kInvalidFrame;
}

FrameId PhysicalMemory::TryAllocateRunMt(std::size_t count) {
  GENIE_CHECK_GT(count, 0u);
  const std::lock_guard<std::mutex> lock(mt_mutex_);
  // First-fit over the free runs, as TryAllocateRun, but with no fault-plan
  // consult (see header).
  for (auto run = free_runs_.begin(); run != free_runs_.end(); ++run) {
    if (run->second >= count) {
      const FrameId first = run->first;
      TakeFromRun(run, first, static_cast<FrameId>(count));
      return first;
    }
  }
  return kInvalidFrame;
}

void PhysicalMemory::FreeMt(FrameId frame) {
  const std::lock_guard<std::mutex> lock(mt_mutex_);
  Free(frame);
}

void PhysicalMemory::FreeRunMt(FrameId first, std::size_t count) {
  const std::lock_guard<std::mutex> lock(mt_mutex_);
  for (std::size_t i = 0; i < count; ++i) {
    Free(first + static_cast<FrameId>(i));
  }
}

FrameId PhysicalMemory::AllocateZeroed() {
  const FrameId frame = Allocate();
  auto data = Data(frame);
  std::memset(data.data(), 0, data.size());
  return frame;
}

void PhysicalMemory::ReleaseToFreeList(FrameId frame) {
  auto next = free_runs_.lower_bound(frame);
  // Merge with the preceding run if it ends exactly at `frame`.
  if (next != free_runs_.begin()) {
    auto prev = std::prev(next);
    GENIE_CHECK_LE(prev->first + prev->second, frame) << "frame already free";
    if (prev->first + prev->second == frame) {
      ++prev->second;
      ++free_count_;
      // Merge with the following run if it starts right after.
      if (next != free_runs_.end() && next->first == frame + 1) {
        prev->second += next->second;
        free_runs_.erase(next);
      }
      return;
    }
  }
  if (next != free_runs_.end() && next->first == frame + 1) {
    const FrameId len = next->second;
    free_runs_.erase(next);
    free_runs_[frame] = len + 1;
  } else {
    GENIE_CHECK(next == free_runs_.end() || next->first != frame) << "frame already free";
    free_runs_[frame] = 1;
  }
  ++free_count_;
}

void PhysicalMemory::Free(FrameId frame) {
  CheckValid(frame);
  FrameInfo& fi = info_[frame];
  GENIE_CHECK(fi.allocated) << "double free of frame " << frame;
  fi.allocated = false;
  fi.owner_object = kNoOwner;
  if (fi.input_refs > 0 || fi.output_refs > 0) {
    // Pending device I/O: defer until the last reference drops (paper §3.1).
    // The frame may still be wired here — a TCOW copy-and-swap frees the old
    // page out of the memory object while the device's DMA (which holds the
    // wire) is mid-frame; dispose unwires before it unreferences, so the
    // wire is gone by the time the zombie is reclaimed.
    fi.zombie = true;
    ++zombie_count_;
    ++deferred_frees_;
    return;
  }
  GENIE_CHECK_EQ(fi.wire_count, 0) << "freeing wired frame " << frame;
  ReleaseToFreeList(frame);
}

std::span<std::byte> PhysicalMemory::Data(FrameId frame) {
  CheckValid(frame);
  return {arena_.get() + static_cast<std::size_t>(frame) * page_size_, page_size_};
}

std::span<const std::byte> PhysicalMemory::Data(FrameId frame) const {
  CheckValid(frame);
  return {arena_.get() + static_cast<std::size_t>(frame) * page_size_, page_size_};
}

std::span<std::byte> PhysicalMemory::DataRun(FrameId first, std::uint64_t offset,
                                             std::uint64_t length) {
  CheckValid(first);
  const std::uint64_t start = static_cast<std::uint64_t>(first) * page_size_ + offset;
  GENIE_CHECK_LE(start + length, info_.size() * page_size_) << "frame run out of bounds";
  return {arena_.get() + start, static_cast<std::size_t>(length)};
}

std::span<const std::byte> PhysicalMemory::DataRun(FrameId first, std::uint64_t offset,
                                                   std::uint64_t length) const {
  CheckValid(first);
  const std::uint64_t start = static_cast<std::uint64_t>(first) * page_size_ + offset;
  GENIE_CHECK_LE(start + length, info_.size() * page_size_) << "frame run out of bounds";
  return {arena_.get() + start, static_cast<std::size_t>(length)};
}

void PhysicalMemory::AddInputRef(FrameId frame) {
  CheckValid(frame);
  GENIE_CHECK(info_[frame].allocated) << "input ref on unallocated frame";
  ++info_[frame].input_refs;
}

void PhysicalMemory::DropInputRef(FrameId frame) {
  CheckValid(frame);
  FrameInfo& fi = info_[frame];
  GENIE_CHECK_GT(fi.input_refs, 0);
  --fi.input_refs;
  MaybeReclaim(frame);
}

void PhysicalMemory::AddOutputRef(FrameId frame) {
  CheckValid(frame);
  GENIE_CHECK(info_[frame].allocated) << "output ref on unallocated frame";
  ++info_[frame].output_refs;
}

void PhysicalMemory::DropOutputRef(FrameId frame) {
  CheckValid(frame);
  FrameInfo& fi = info_[frame];
  GENIE_CHECK_GT(fi.output_refs, 0);
  --fi.output_refs;
  MaybeReclaim(frame);
}

bool PhysicalMemory::HasIoRefs(FrameId frame) const {
  CheckValid(frame);
  return info_[frame].input_refs > 0 || info_[frame].output_refs > 0;
}

void PhysicalMemory::MaybeReclaim(FrameId frame) {
  FrameInfo& fi = info_[frame];
  if (fi.zombie && fi.input_refs == 0 && fi.output_refs == 0) {
    // Last I/O reference on a page deallocated during I/O: now reusable.
    // Every dispose path unwires before it unreferences, so the DMA wire a
    // TCOW'd zombie carried must have been dropped by now.
    GENIE_CHECK_EQ(fi.wire_count, 0) << "reclaiming wired zombie frame " << frame;
    fi.zombie = false;
    --zombie_count_;
    ++completed_deferred_frees_;
    ReleaseToFreeList(frame);
  }
}

void PhysicalMemory::Wire(FrameId frame) {
  CheckValid(frame);
  GENIE_CHECK(info_[frame].allocated);
  ++info_[frame].wire_count;
}

void PhysicalMemory::Unwire(FrameId frame) {
  CheckValid(frame);
  GENIE_CHECK_GT(info_[frame].wire_count, 0);
  --info_[frame].wire_count;
}

void PhysicalMemory::SetOwner(FrameId frame, ObjectId object, std::uint64_t page_index) {
  CheckValid(frame);
  GENIE_CHECK(info_[frame].allocated);
  info_[frame].owner_object = object;
  info_[frame].owner_page = page_index;
}

void PhysicalMemory::ClearOwner(FrameId frame) {
  CheckValid(frame);
  info_[frame].owner_object = kNoOwner;
}

}  // namespace genie
