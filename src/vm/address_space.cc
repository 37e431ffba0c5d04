#include "src/vm/address_space.h"

#include <bit>
#include <cstring>
#include <set>
#include <sstream>

#include "src/sim/trace.h"
#include "src/util/check.h"

namespace genie {

namespace {
constexpr Vaddr kFirstMappableAddress = 0x10000000;
}  // namespace

std::string_view RegionStateName(RegionState s) {
  switch (s) {
    case RegionState::kUnmovable:
      return "unmovable";
    case RegionState::kMovedIn:
      return "moved-in";
    case RegionState::kMovingIn:
      return "moving-in";
    case RegionState::kMovingOut:
      return "moving-out";
    case RegionState::kMovedOut:
      return "moved-out";
    case RegionState::kWeaklyMovedOut:
      return "weakly-moved-out";
  }
  return "?";
}

AddressSpace::AddressSpace(Vm& vm, std::string name)
    : vm_(&vm),
      name_(std::move(name)),
      page_size_(vm.page_size()),
      page_shift_(static_cast<std::uint32_t>(std::countr_zero(vm.page_size()))),
      next_free_hint_(kFirstMappableAddress) {
  GENIE_CHECK(std::has_single_bit(page_size_)) << "page size must be a power of two";
}

AddressSpace::~AddressSpace() {
  // Drop the caches first, so removing a hidden region does not search its
  // bucket and teardown stays linear in the number of regions.
  moved_out_cache_.clear();
  weakly_moved_out_cache_.clear();
  while (!regions_.empty()) {
    RemoveRegion(regions_.begin()->first);
  }
}

// --- Software TLB ---

bool AddressSpace::LookupPte(Vaddr base, Pte* out) {
  TlbEntry& entry = tlb_[TlbIndex(base)];
  if (entry.base == base) {
    ++counters_.tlb_hits;
    *out = entry.pte;
    return true;
  }
  ++counters_.tlb_misses;
  auto it = page_table_.find(base);
  if (it == page_table_.end()) {
    return false;
  }
  entry.base = base;
  entry.pte = it->second;
  *out = it->second;
  return true;
}

void AddressSpace::TlbInvalidate(Vaddr base) {
  TlbEntry& entry = tlb_[TlbIndex(base)];
  if (entry.base == base) {
    entry.base = kTlbEmpty;
    ++counters_.tlb_invalidations;
  }
}

void AddressSpace::TlbFill(Vaddr base, Pte pte) {
  TlbEntry& entry = tlb_[TlbIndex(base)];
  entry.base = base;
  entry.pte = pte;
}

// --- Regions ---

Region* AddressSpace::CreateRegion(Vaddr start, std::uint64_t length, RegionState state) {
  const std::uint64_t pages = length / page_size_;
  GENIE_CHECK_GT(length, 0u);
  GENIE_CHECK_EQ(length % page_size_, 0u) << "region length must be a page multiple";
  return CreateRegionWithObject(start, length, vm_->CreateObject(pages), state);
}

Region* AddressSpace::CreateRegionWithObject(Vaddr start, std::uint64_t length,
                                             std::shared_ptr<MemoryObject> object,
                                             RegionState state) {
  GENIE_CHECK_EQ(start % page_size_, 0u) << "region start must be page-aligned";
  GENIE_CHECK_EQ(length % page_size_, 0u);
  GENIE_CHECK(object != nullptr);
  // Reject overlap with an existing region.
  auto next = regions_.lower_bound(start);
  if (next != regions_.end()) {
    GENIE_CHECK_LE(start + length, next->second.start) << "region overlap";
  }
  if (next != regions_.begin()) {
    auto prev = std::prev(next);
    GENIE_CHECK_LE(prev->second.end(), start) << "region overlap";
  }
  Region region;
  region.start = start;
  region.length = length;
  region.object = std::move(object);
  region.state = state;
  region.object->AddMapping(this, start);
  auto [it, inserted] = regions_.emplace(start, std::move(region));
  GENIE_CHECK(inserted);
  return &it->second;
}

Vaddr AddressSpace::FindFreeRange(std::uint64_t length) {
  GENIE_CHECK_GT(length, 0u);
  Vaddr candidate = next_free_hint_;
  for (;;) {
    auto next = regions_.lower_bound(candidate);
    // Conflict with the previous region?
    if (next != regions_.begin()) {
      auto prev = std::prev(next);
      if (prev->second.end() > candidate) {
        candidate = prev->second.end();
        continue;
      }
    }
    // Conflict with the next region?
    if (next != regions_.end() && candidate + length > next->second.start) {
      candidate = next->second.end();
      continue;
    }
    next_free_hint_ = candidate + length;
    return candidate;
  }
}

void AddressSpace::RemoveRegion(Vaddr start) {
  auto it = regions_.find(start);
  GENIE_CHECK(it != regions_.end()) << "removing unknown region";
  Region& region = it->second;
  if (region.state == RegionState::kMovedOut || region.state == RegionState::kWeaklyMovedOut) {
    // A hidden region may be cached; its entry goes with it, so every cache
    // entry names a live region.
    RegionCache& cache = CacheFor(region.state);
    if (auto bucket = cache.find(region.length); bucket != cache.end()) {
      std::erase(bucket->second, start);
    }
  }
  for (Vaddr va = region.start; va < region.end(); va += page_size_) {
    if (page_table_.contains(va)) {
      UnmapPage(va);
    }
  }
  region.object->RemoveMapping(this, start);
  regions_.erase(it);
}

Region* AddressSpace::FindRegion(Vaddr va) {
  auto it = regions_.upper_bound(va);
  if (it == regions_.begin()) {
    return nullptr;
  }
  Region& region = std::prev(it)->second;
  return region.Contains(va) ? &region : nullptr;
}

Region* AddressSpace::RegionAt(Vaddr start) {
  auto it = regions_.find(start);
  return it == regions_.end() ? nullptr : &it->second;
}

// --- Application access ---

AccessResult AddressSpace::ReadScatter(
    Vaddr va, std::uint64_t len,
    const std::function<void(std::span<const std::byte>)>& sink) {
  std::uint64_t done = 0;
  while (done < len) {
    const Vaddr addr = va + done;
    const Vaddr base = PageBase(addr);
    Pte pte;
    if (!LookupPte(base, &pte) || !CanRead(pte.prot)) {
      if (FaultIn(addr, /*for_write=*/false) != AccessResult::kOk) {
        return AccessResult::kUnrecoverableFault;
      }
      const bool mapped = LookupPte(base, &pte);
      GENIE_CHECK(mapped && CanRead(pte.prot));
    }
    const std::uint64_t offset = addr - base;
    std::uint64_t chunk = std::min<std::uint64_t>(page_size_ - offset, len - done);
    // Extend over physically contiguous pages already mapped readable, so
    // one chunk (one memcpy downstream) spans the whole run.
    FrameId next_frame = pte.frame + 1;
    Vaddr next_base = base + page_size_;
    std::uint64_t pages = 1;
    while (done + chunk < len) {
      Pte npte;
      if (!LookupPte(next_base, &npte) || !CanRead(npte.prot) || npte.frame != next_frame) {
        break;
      }
      chunk += std::min<std::uint64_t>(page_size_, len - done - chunk);
      ++next_frame;
      next_base += page_size_;
      ++pages;
    }
    if (pages > 1) {
      ++counters_.coalesced_runs;
      counters_.coalesced_pages += pages - 1;
    }
    sink(vm_->pm().DataRun(pte.frame, offset, chunk));
    done += chunk;
  }
  return AccessResult::kOk;
}

AccessResult AddressSpace::Read(Vaddr va, std::span<std::byte> out) {
  std::size_t done = 0;
  return ReadScatter(va, out.size(), [&](std::span<const std::byte> chunk) {
    std::memcpy(out.data() + done, chunk.data(), chunk.size());
    done += chunk.size();
  });
}

AccessResult AddressSpace::Write(Vaddr va, std::span<const std::byte> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const Vaddr addr = va + done;
    const Vaddr base = PageBase(addr);
    Pte pte;
    if (!LookupPte(base, &pte) || !CanWrite(pte.prot)) {
      if (FaultIn(addr, /*for_write=*/true) != AccessResult::kOk) {
        return AccessResult::kUnrecoverableFault;
      }
      const bool mapped = LookupPte(base, &pte);
      GENIE_CHECK(mapped && CanWrite(pte.prot));
    }
    const std::size_t offset = addr - base;
    std::uint64_t chunk = std::min<std::uint64_t>(page_size_ - offset, in.size() - done);
    FrameId next_frame = pte.frame + 1;
    Vaddr next_base = base + page_size_;
    std::uint64_t pages = 1;
    while (done + chunk < in.size()) {
      Pte npte;
      if (!LookupPte(next_base, &npte) || !CanWrite(npte.prot) || npte.frame != next_frame) {
        break;
      }
      chunk += std::min<std::uint64_t>(page_size_, in.size() - done - chunk);
      ++next_frame;
      next_base += page_size_;
      ++pages;
    }
    if (pages > 1) {
      ++counters_.coalesced_runs;
      counters_.coalesced_pages += pages - 1;
    }
    std::memcpy(vm_->pm().DataRun(pte.frame, offset, chunk).data(), in.data() + done,
                static_cast<std::size_t>(chunk));
    done += chunk;
  }
  return AccessResult::kOk;
}

AccessResult AddressSpace::FaultIn(Vaddr va, bool for_write) {
  Pte pte;
  if (LookupPte(PageBase(va), &pte) && (for_write ? CanWrite(pte.prot) : CanRead(pte.prot))) {
    return AccessResult::kOk;  // Already mapped with sufficient access.
  }
  return HandleFault(va, for_write);
}

MemoryObject::Lookup AddressSpace::LookupOrPageIn(MemoryObject& top, std::uint64_t index) {
  bool is_top = true;
  for (MemoryObject* obj = &top; obj != nullptr; obj = obj->shadow_of().get()) {
    const FrameId resident = obj->PageAt(index);
    if (resident != kInvalidFrame) {
      return MemoryObject::Lookup{.frame = resident, .object = obj, .in_top = is_top};
    }
    if (vm_->backing().Contains(obj->id(), index)) {
      // Page-in can fail two ways, neither fatal to the kernel: no frame
      // free (even after the caller's ReclaimIfLow) or a swap-device read
      // error. Either way nothing has been modified — the slot stays in the
      // backing store — so report io_error and let the caller fail the
      // access instead of zero-filling over live data.
      const FrameId frame = vm_->pm().TryAllocate();
      if (frame == kInvalidFrame) {
        ++counters_.io_errors;
        return MemoryObject::Lookup{.io_error = true};
      }
      if (!vm_->backing().TryRestore(obj->id(), index, vm_->pm().Data(frame))) {
        vm_->pm().Free(frame);
        ++counters_.io_errors;
        return MemoryObject::Lookup{.io_error = true};
      }
      obj->InsertPage(index, frame);
      ++counters_.pageins;
      TraceVmEvent("pagein");
      return MemoryObject::Lookup{.frame = frame, .object = obj, .in_top = is_top};
    }
    is_top = false;
  }
  return MemoryObject::Lookup{};
}

AccessResult AddressSpace::HandleFault(Vaddr va, bool for_write) {
  Region* region = FindRegion(va);
  // The fault handler recovers only in unmovable or moved-in regions
  // (paper Section 4): a hidden (moved-out) or in-transit region faults
  // unrecoverably, exactly as if it had been removed.
  if (region == nullptr ||
      (region->state != RegionState::kUnmovable && region->state != RegionState::kMovedIn)) {
    ++counters_.unrecoverable_faults;
    return AccessResult::kUnrecoverableFault;
  }
  ++counters_.faults;
  PhysicalMemory& pm = vm_->pm();
  const Vaddr base = PageBase(va);
  const std::uint64_t index = PageIndexInRegion(*region, va);
  MemoryObject& top = *region->object;

  // Under memory pressure, reclaim *before* resolving the page (eviction
  // must never run between a lookup and its use). Up to two frames may be
  // needed: one page-in plus one COW/TCOW copy.
  vm_->ReclaimIfLow(2);
  const MemoryObject::Lookup found = LookupOrPageIn(top, index);
  if (found.io_error) {
    // Page-in failed (frame exhaustion or swap read error): the access
    // cannot be satisfied, but kernel state is untouched — fail it like a
    // SIGBUS rather than aborting the simulation.
    ++counters_.unrecoverable_faults;
    return AccessResult::kUnrecoverableFault;
  }
  if (found.frame != kInvalidFrame) {
    if (found.in_top) {
      if (for_write) {
        const FrameInfo& fi = pm.info(found.frame);
        if (fi.output_refs > 0) {
          // TCOW (Section 5.1): the page is the source of a pending output.
          // Copy it, swap pages in the memory object, and map the copy
          // writable; the original stays untouched for the device and is
          // reclaimed by deferred deallocation when the output unreferences
          // it.
          const FrameId copy = pm.TryAllocate();
          if (copy == kInvalidFrame) {
            ++counters_.io_errors;
            ++counters_.unrecoverable_faults;
            return AccessResult::kUnrecoverableFault;
          }
          std::memcpy(pm.Data(copy).data(), pm.Data(found.frame).data(), page_size_);
          const FrameId old = top.ReplacePage(index, copy);
          pm.Free(old);  // Zombie until the output drops its reference.
          MapPage(base, copy, Prot::kReadWrite);
          ++counters_.tcow_copies;
          TraceVmEvent("tcow_copy");
        } else {
          // Output already completed: simply re-enable writing (no copy).
          MapPage(base, found.frame, Prot::kReadWrite);
          ++counters_.tcow_reenables;
          TraceVmEvent("tcow_reenable");
        }
      } else {
        // Read fault on a resident page (e.g. unmapped by pageout path).
        const Prot prot =
            pm.info(found.frame).output_refs > 0 ? Prot::kRead : Prot::kReadWrite;
        MapPage(base, found.frame, prot);
      }
    } else {
      // Page found in a shadowed (backing) object: conventional COW.
      if (for_write) {
        const FrameId copy = pm.TryAllocate();
        if (copy == kInvalidFrame) {
          ++counters_.io_errors;
          ++counters_.unrecoverable_faults;
          return AccessResult::kUnrecoverableFault;
        }
        std::memcpy(pm.Data(copy).data(), pm.Data(found.frame).data(), page_size_);
        top.InsertPage(index, copy);
        MapPage(base, copy, Prot::kReadWrite);
        ++counters_.cow_copies;
        TraceVmEvent("cow_copy");
      } else {
        MapPage(base, found.frame, Prot::kRead);
      }
    }
    return AccessResult::kOk;
  }

  // Anonymous zero-fill.
  const FrameId frame = pm.TryAllocate();
  if (frame == kInvalidFrame) {
    ++counters_.io_errors;
    ++counters_.unrecoverable_faults;
    return AccessResult::kUnrecoverableFault;
  }
  std::memset(pm.Data(frame).data(), 0, page_size_);
  top.InsertPage(index, frame);
  MapPage(base, frame, Prot::kReadWrite);
  ++counters_.zero_fills;
  TraceVmEvent("zero_fill");
  return AccessResult::kOk;
}

void AddressSpace::TraceVmEvent(const char* event) {
  TraceLog* trace = vm_->trace();
  if (trace == nullptr) {
    return;
  }
  const std::string& ctx = trace->context();
  trace->Instant(name_ + ".vm", ctx.empty() ? std::string(event) : ctx + "." + event, "vm",
                 trace->Now());
}

FrameId AddressSpace::ResolvePageForIo(Vaddr va, bool for_write) {
  PhysicalMemory& pm = vm_->pm();
  const Vaddr base = PageBase(va);

  // Fast path: a live PTE always names the top object's current page for
  // this mapping (every page replacement retargets or unmaps it), so for
  // device reads the mapped frame is authoritative as-is. For device
  // writes it is usable only if no output pends on it (else TCOW below)
  // and the frame belongs to this region's top object at this index (else
  // it is a COW-shared page that must be copied up).
  Pte pte;
  if (LookupPte(base, &pte)) {
    if (!for_write) {
      return pte.frame;
    }
    const FrameInfo& fi = pm.info(pte.frame);
    if (fi.output_refs == 0 && fi.owner_object != kNoOwner) {
      Region* region = FindRegion(va);
      if (region != nullptr && fi.owner_object == region->object->id() &&
          fi.owner_page == PageIndexInRegion(*region, va)) {
        return pte.frame;
      }
    }
  }

  Region* region = FindRegion(va);
  if (region == nullptr) {
    return kInvalidFrame;
  }
  const std::uint64_t index = PageIndexInRegion(*region, va);
  MemoryObject& top = *region->object;

  vm_->ReclaimIfLow(2);  // See HandleFault: reclaim strictly before lookup.
  const MemoryObject::Lookup found = LookupOrPageIn(top, index);
  if (found.io_error) {
    return kInvalidFrame;  // Page-in failed; caller unwinds (counted above).
  }
  if (found.frame != kInvalidFrame) {
    if (!for_write) {
      return found.frame;  // Device reads: any resident chain page will do.
    }
    if (found.in_top) {
      if (pm.info(found.frame).output_refs > 0) {
        // Device store into a page with pending output: TCOW-copy so the
        // earlier output still reads the original (strong integrity).
        const FrameId copy = pm.TryAllocate();
        if (copy == kInvalidFrame) {
          ++counters_.io_errors;
          return kInvalidFrame;
        }
        std::memcpy(pm.Data(copy).data(), pm.Data(found.frame).data(), page_size_);
        const FrameId old = top.ReplacePage(index, copy);
        pm.Free(old);  // Zombie until the pending output unreferences it.
        RetargetPte(base, old, copy);
        ++counters_.tcow_copies;
        return copy;
      }
      return found.frame;
    }
    // Device store into a COW-shared page: copy up into the top object so
    // the DMA cannot become visible to other sharers (the write-access
    // verification of input page referencing, Section 3.3 reverse case).
    const FrameId copy = pm.TryAllocate();
    if (copy == kInvalidFrame) {
      ++counters_.io_errors;
      return kInvalidFrame;
    }
    std::memcpy(pm.Data(copy).data(), pm.Data(found.frame).data(), page_size_);
    top.InsertPage(index, copy);
    RetargetPte(base, found.frame, copy);
    ++counters_.cow_copies;
    return copy;
  }

  const FrameId frame = pm.TryAllocate();
  if (frame == kInvalidFrame) {
    ++counters_.io_errors;
    return kInvalidFrame;
  }
  std::memset(pm.Data(frame).data(), 0, page_size_);
  top.InsertPage(index, frame);
  ++counters_.zero_fills;
  return frame;
}

void AddressSpace::RetargetPte(Vaddr va, FrameId old_frame, FrameId new_frame) {
  if (Pte* pte = FindPte(va); pte != nullptr && pte->frame == old_frame) {
    pte->frame = new_frame;
  }
}

Pte* AddressSpace::FindPte(Vaddr va) {
  const Vaddr base = PageBase(va);
  // The caller can mutate the PTE through the returned pointer (TCOW
  // retargets, system-buffer page swaps, protection changes), so drop any
  // cached translation before handing it out.
  TlbInvalidate(base);
  auto it = page_table_.find(base);
  return it == page_table_.end() ? nullptr : &it->second;
}

void AddressSpace::MapPage(Vaddr va, FrameId frame, Prot prot) {
  GENIE_CHECK_EQ(va % page_size_, 0u);
  const Pte pte{frame, prot};
  page_table_[va] = pte;
  TlbFill(va, pte);
}

void AddressSpace::UnmapPage(Vaddr va) {
  const Vaddr base = PageBase(va);
  const std::size_t erased = page_table_.erase(base);
  GENIE_CHECK_EQ(erased, 1u) << "unmapping absent page";
  TlbInvalidate(base);
}

void AddressSpace::RemoveWrite(Vaddr va, std::uint64_t len) {
  // FindPte invalidates the TLB entry, so the downgrade is visible on the
  // very next access (TCOW depends on this).
  for (Vaddr p = PageBase(va); p < va + len; p += page_size_) {
    if (Pte* pte = FindPte(p); pte != nullptr && CanWrite(pte->prot)) {
      pte->prot = Prot::kRead;
    }
  }
}

void AddressSpace::RemoveAll(Vaddr va, std::uint64_t len) {
  for (Vaddr p = PageBase(va); p < va + len; p += page_size_) {
    if (Pte* pte = FindPte(p); pte != nullptr) {
      pte->prot = Prot::kNone;  // PTE retained: region hiding keeps pages.
    }
  }
}

void AddressSpace::Reinstate(Vaddr va, std::uint64_t len) {
  for (Vaddr p = PageBase(va); p < va + len; p += page_size_) {
    if (Pte* pte = FindPte(p); pte != nullptr) {
      pte->prot = Prot::kReadWrite;
    }
  }
}

AccessResult AddressSpace::WireRange(Vaddr va, std::uint64_t len, bool for_write) {
  const Vaddr end = va + len;
  Vaddr p = PageBase(va);
  while (p < end) {
    if (FaultIn(p, for_write) != AccessResult::kOk) {
      return AccessResult::kUnrecoverableFault;
    }
    Pte pte;
    const bool mapped = LookupPte(p, &pte);
    GENIE_CHECK(mapped);
    // Collect the run of physically contiguous pages already mapped with
    // sufficient access; pages that still need a fault close the run.
    FrameId count = 1;
    p += page_size_;
    while (p < end) {
      Pte npte;
      if (!LookupPte(p, &npte) || npte.frame != pte.frame + count ||
          !(for_write ? CanWrite(npte.prot) : CanRead(npte.prot))) {
        break;
      }
      ++count;
      p += page_size_;
    }
    if (count > 1) {
      ++counters_.coalesced_runs;
      counters_.coalesced_pages += count - 1;
    }
    for (FrameId i = 0; i < count; ++i) {
      vm_->pm().Wire(pte.frame + i);
    }
  }
  return AccessResult::kOk;
}

void AddressSpace::UnwireRange(Vaddr va, std::uint64_t len) {
  for (Vaddr p = PageBase(va); p < va + len; p += page_size_) {
    Pte pte;
    const bool mapped = LookupPte(p, &pte);
    GENIE_CHECK(mapped) << "unwiring unmapped page";
    vm_->pm().Unwire(pte.frame);
  }
}

AddressSpace::RegionCache& AddressSpace::CacheFor(RegionState state) {
  switch (state) {
    case RegionState::kMovedOut:
      return moved_out_cache_;
    case RegionState::kWeaklyMovedOut:
      return weakly_moved_out_cache_;
    default:
      GENIE_CHECK(false) << "no cache for state " << RegionStateName(state);
      __builtin_unreachable();
  }
}

void AddressSpace::EnqueueCachedRegion(Vaddr start) {
  Region* region = RegionAt(start);
  GENIE_CHECK(region != nullptr);
  CacheFor(region->state)[region->length].push_back(start);
}

Region* AddressSpace::DequeueCachedRegion(std::uint64_t length, RegionState state) {
  RegionCache& cache = CacheFor(state);
  auto bucket = cache.find(length);
  if (bucket == cache.end() || bucket->second.empty()) {
    return nullptr;
  }
  Region* region = RegionAt(bucket->second.front());
  GENIE_CHECK(region != nullptr && region->state == state) << "stale hidden-region cache entry";
  bucket->second.pop_front();
  return region;
}

std::size_t AddressSpace::cached_regions(RegionState state) const {
  std::size_t n = 0;
  for (const auto& [length, starts] : const_cast<AddressSpace*>(this)->CacheFor(state)) {
    n += starts.size();
  }
  return n;
}

void AddressSpace::AppendInvariantViolations(std::vector<std::string>& out) const {
  auto fail = [&](const std::string& what, Vaddr va) {
    std::ostringstream os;
    os << name_ << ": " << what << " at va 0x" << std::hex << va;
    out.push_back(os.str());
  };
  auto region_containing = [&](Vaddr base) -> const Region* {
    auto it = regions_.upper_bound(base);
    if (it == regions_.begin()) {
      return nullptr;
    }
    const Region& r = std::prev(it)->second;
    return r.Contains(base) ? &r : nullptr;
  };

  // Every PTE lies inside a region, names an allocated frame, and agrees
  // with what the region's object chain resolves to right now. Any path
  // that moves a page (eviction, TCOW replace, system-buffer swap) must
  // have retargeted or unmapped the PTE, or this trips.
  for (const auto& [base, pte] : page_table_) {
    const Region* region = region_containing(base);
    if (region == nullptr) {
      fail("PTE outside any region", base);
      continue;
    }
    const FrameInfo& fi = vm_->pm().info(pte.frame);
    if (!fi.allocated) {
      fail(fi.zombie ? "PTE maps zombie frame" : "PTE maps free frame", base);
      continue;
    }
    const std::uint64_t index = PageIndexInRegion(*region, base);
    FrameId resolved = kInvalidFrame;
    for (const MemoryObject* obj = region->object.get(); obj != nullptr;
         obj = obj->shadow_of().get()) {
      resolved = obj->PageAt(index);
      if (resolved != kInvalidFrame) {
        break;
      }
    }
    if (resolved != pte.frame) {
      fail("stale PTE: mapped frame not in object chain", base);
    }
  }

  // Every warm TLB entry must match the page table exactly: a mismatch is a
  // missed invalidation, i.e. a stale translation an MMU would still honor.
  for (const TlbEntry& entry : tlb_) {
    if (entry.base == kTlbEmpty) {
      continue;
    }
    auto it = page_table_.find(entry.base);
    if (it == page_table_.end()) {
      fail("TLB entry for unmapped page", entry.base);
    } else if (it->second.frame != entry.pte.frame || it->second.prot != entry.pte.prot) {
      fail("stale TLB entry (frame or protection mismatch)", entry.base);
    }
  }

  // Hidden-region caches: RemoveRegion drops the entry of every region it
  // removes, and only a dequeue takes a region out of a cached state, so every
  // entry must name a live region in its cache's state and bucket length. A
  // region cached twice would be handed out twice.
  const struct {
    const RegionCache& cache;
    RegionState state;
  } caches[] = {{moved_out_cache_, RegionState::kMovedOut},
                {weakly_moved_out_cache_, RegionState::kWeaklyMovedOut}};
  std::set<Vaddr> seen;
  for (const auto& [cache, state] : caches) {
    for (const auto& [length, starts] : cache) {
      for (const Vaddr start : starts) {
        if (!seen.insert(start).second) {
          fail("region cached twice", start);
        }
        auto it = regions_.find(start);
        if (it == regions_.end()) {
          fail("cache entry for a removed region", start);
        } else if (it->second.state != state) {
          fail("cached region in wrong state for its cache", start);
        } else if (it->second.length != length) {
          fail("cached region in wrong length bucket", start);
        }
      }
    }
  }
}

}  // namespace genie
