// A simulated process address space: region map, page table, fault handler
// (conventional COW, TCOW, page-in, zero-fill), region caching for the
// system-allocated semantics, and wiring.
//
// Applications access memory only through Read()/Write(), which enforce PTE
// permissions exactly like an MMU: a protection or missing-page fault enters
// HandleFault(), which recovers only in unmovable or moved-in regions
// (paper Section 4) and implements TCOW (Section 5.1).
//
// Hot-path translations go through a small direct-mapped software TLB that
// caches PTEs by value in front of the page-table hash. Every PTE mutation
// must invalidate the cached entry: TCOW and region hiding depend on
// protection downgrades (RemoveWrite/RemoveAll) and frame retargets being
// visible on the very next access. All mutations flow through MapPage /
// UnmapPage / FindPte (which surrenders a mutable PTE pointer and therefore
// conservatively invalidates), so the invariant is centralized there.
#ifndef GENIE_SRC_VM_ADDRESS_SPACE_H_
#define GENIE_SRC_VM_ADDRESS_SPACE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/vm/memory_object.h"
#include "src/vm/types.h"
#include "src/vm/vm.h"

namespace genie {

struct Region {
  Vaddr start = 0;
  std::uint64_t length = 0;  // bytes, page multiple
  std::shared_ptr<MemoryObject> object;
  RegionState state = RegionState::kUnmovable;

  Vaddr end() const { return start + length; }
  bool Contains(Vaddr va) const { return va >= start && va < end(); }
};

class AddressSpace {
 public:
  struct Counters {
    std::uint64_t faults = 0;                // recoverable faults handled
    std::uint64_t unrecoverable_faults = 0;  // would kill the application
    std::uint64_t tcow_copies = 0;           // write during pending output
    std::uint64_t tcow_reenables = 0;        // write after output completed
    std::uint64_t cow_copies = 0;            // conventional copy-up faults
    std::uint64_t pageins = 0;               // restored from backing store
    std::uint64_t zero_fills = 0;            // fresh anonymous pages
    std::uint64_t tlb_hits = 0;              // translations served by the TLB
    std::uint64_t tlb_misses = 0;            // page-table hash walks
    std::uint64_t tlb_invalidations = 0;     // cached entries dropped
    std::uint64_t coalesced_runs = 0;        // multi-page contiguous copies
    std::uint64_t coalesced_pages = 0;       // pages beyond the first per run
    std::uint64_t io_errors = 0;             // page-in/copy failures propagated
  };

  AddressSpace(Vm& vm, std::string name);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  Vm& vm() { return *vm_; }
  const std::string& name() const { return name_; }
  std::uint32_t page_size() const { return page_size_; }

  // --- Regions ---

  // Creates a region of `length` bytes (page multiple) at `start`
  // (page-aligned) backed by a fresh memory object.
  Region* CreateRegion(Vaddr start, std::uint64_t length,
                       RegionState state = RegionState::kUnmovable);

  // Creates a region mapping an existing object (input dispose when the
  // application removed the prepared region; COW sharing).
  Region* CreateRegionWithObject(Vaddr start, std::uint64_t length,
                                 std::shared_ptr<MemoryObject> object, RegionState state);

  // Finds a free page-aligned range of `length` bytes.
  Vaddr FindFreeRange(std::uint64_t length);

  // Removes the region starting at `start`: unmaps its pages and drops the
  // object reference (frames are freed when the object dies; deferred
  // deallocation protects pages with pending I/O).
  void RemoveRegion(Vaddr start);

  // Region containing `va`, or nullptr.
  Region* FindRegion(Vaddr va);
  // Region starting exactly at `start`, or nullptr.
  Region* RegionAt(Vaddr start);
  std::size_t region_count() const { return regions_.size(); }

  // --- Application access (MMU-checked) ---

  AccessResult Read(Vaddr va, std::span<std::byte> out);
  AccessResult Write(Vaddr va, std::span<const std::byte> in);

  // MMU-checked scatter read: resolves [va, va+len) page by page (faulting
  // as needed, coalescing physically contiguous runs) and hands each
  // resolved chunk to `sink` in address order. The single-pass integrated
  // data paths (copyin with checksum) are built on this.
  AccessResult ReadScatter(Vaddr va, std::uint64_t len,
                           const std::function<void(std::span<const std::byte>)>& sink);

  // --- Kernel-side page operations ---

  // Resolves the page containing `va` so it is mapped with at least the
  // requested access; runs the fault handler if needed.
  AccessResult FaultIn(Vaddr va, bool for_write);

  // Resolves the physical page backing `va` for device I/O (page
  // referencing, paper Section 3.1), regardless of region state and without
  // granting the application any new access: an existing PTE keeps its
  // protection (retargeted if the page is replaced by a TCOW or COW copy).
  // `for_write` marks input (the device will store into the page): a page
  // with pending output is TCOW-copied, and a COW page is copied up, so DMA
  // can never touch data another process depends on.
  // Returns kInvalidFrame if `va` lies outside any region.
  FrameId ResolvePageForIo(Vaddr va, bool for_write);

  // Returns a mutable pointer into the page table. The caller may change
  // the PTE through it, so the TLB entry for `va` is invalidated.
  Pte* FindPte(Vaddr va);
  void MapPage(Vaddr va, FrameId frame, Prot prot);
  void UnmapPage(Vaddr va);

  // Protection manipulation over [va, va+len) for pages that are mapped.
  // (Table 2's "read-only" = RemoveWrite, "invalidate" = RemoveAll.)
  void RemoveWrite(Vaddr va, std::uint64_t len);
  void RemoveAll(Vaddr va, std::uint64_t len);
  void Reinstate(Vaddr va, std::uint64_t len);  // restore read+write

  // --- Wiring (share / move / weak move semantics) ---

  // Faults in and wires every page of [va, va+len). `for_write` requests
  // write access (input buffers).
  AccessResult WireRange(Vaddr va, std::uint64_t len, bool for_write);
  void UnwireRange(Vaddr va, std::uint64_t len);

  // --- Region caching (weak move; emulated move region hiding, Section 4) ---

  // Enqueues the region starting at `start` on the cache matching its state
  // (kMovedOut or kWeaklyMovedOut). RemoveRegion drops the entry again if
  // the application removes the region while it is cached.
  void EnqueueCachedRegion(Vaddr start);

  // Dequeues the oldest cached region of exactly `length` bytes in the given
  // state; nullptr if none.
  Region* DequeueCachedRegion(std::uint64_t length, RegionState state);

  std::size_t cached_regions(RegionState state) const;

  // --- Invariant checking (used by VmInvariants::CheckAll) ---

  // Appends one message per violated per-address-space invariant:
  //   * every PTE lies inside a region, names an allocated frame, and that
  //     frame is what the region's object chain currently resolves to
  //     (catches stale PTEs left behind by eviction/swap/TCOW paths);
  //   * every warm software-TLB entry matches the page table exactly
  //     (catches missing invalidations — stale translations);
  //   * every hidden-region cache entry names a live region in that cache's
  //     state and of its bucket's length, and no region is cached twice.
  // Read-only: does not touch the TLB, counters, or caches.
  void AppendInvariantViolations(std::vector<std::string>& out) const;

  const Counters& counters() const { return counters_; }

 private:
  static constexpr std::size_t kTlbEntries = 64;  // direct-mapped, power of two
  static constexpr Vaddr kTlbEmpty = 1;           // odd: never a page base
  struct TlbEntry {
    Vaddr base = kTlbEmpty;
    Pte pte;
  };

  Vaddr PageBase(Vaddr va) const { return va & ~static_cast<Vaddr>(page_size_ - 1); }
  std::uint64_t PageIndexInRegion(const Region& r, Vaddr va) const {
    return (PageBase(va) - r.start) / page_size_;
  }
  std::size_t TlbIndex(Vaddr base) const {
    return (base >> page_shift_) & (kTlbEntries - 1);
  }
  // TLB-first translation (no fault). Fills the TLB from the page table on
  // a miss; returns false if the page is unmapped.
  bool LookupPte(Vaddr base, Pte* out);
  void TlbInvalidate(Vaddr base);
  void TlbFill(Vaddr base, Pte pte);

  AccessResult HandleFault(Vaddr va, bool for_write);
  // Emits `event` as a trace instant on the "<name>.vm" track, prefixed
  // with the trace's current transfer context; no-op without a trace.
  void TraceVmEvent(const char* event);
  // Walks the shadow chain for `index`, checking, at EACH level, residency
  // first and then that object's backing-store slot (paging it in if found).
  // A shadow's paged-out private copy must win over a resident page in a
  // deeper (backing) object, or a COW child's stale view would reappear.
  MemoryObject::Lookup LookupOrPageIn(MemoryObject& top, std::uint64_t index);
  // A hidden-region cache: exact region length -> starts of the cached
  // regions of that length, oldest first.
  using RegionCache = std::map<std::uint64_t, std::deque<Vaddr>>;
  RegionCache& CacheFor(RegionState state);
  // Points the PTE at `va` (if any) from `old_frame` to `new_frame`,
  // preserving its protection.
  void RetargetPte(Vaddr va, FrameId old_frame, FrameId new_frame);

  Vm* vm_;
  std::string name_;
  std::uint32_t page_size_;
  std::uint32_t page_shift_;
  std::map<Vaddr, Region> regions_;
  std::unordered_map<Vaddr, Pte> page_table_;  // keyed by page base address
  std::array<TlbEntry, kTlbEntries> tlb_;
  RegionCache moved_out_cache_;
  RegionCache weakly_moved_out_cache_;
  Counters counters_;
  Vaddr next_free_hint_;
};

}  // namespace genie

#endif  // GENIE_SRC_VM_ADDRESS_SPACE_H_
