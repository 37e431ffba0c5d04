// Simulated physical memory: a fixed arena of page frames with a free list,
// per-frame I/O reference counts, and I/O-deferred page deallocation
// (paper Section 3.1).
//
// Devices (DMA) read and write frame data directly through Data(), bypassing
// any address-space permissions — the property that makes page referencing
// necessary for safe in-place I/O.
//
// Frames are contiguous in the arena (frame f starts at byte f * page_size),
// so a run of adjacent FrameIds is one contiguous byte range; DataRun() and
// TryAllocateRun() let the data path exploit that with single memcpys and
// single-segment scatter/gather lists. The free list is kept as an ordered
// map of maximal free runs so contiguous allocation stays common over time.
#ifndef GENIE_SRC_MEM_PHYS_MEMORY_H_
#define GENIE_SRC_MEM_PHYS_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/mem/fault_plan.h"
#include "src/util/check.h"

namespace genie {

using FrameId = std::uint32_t;
inline constexpr FrameId kInvalidFrame = static_cast<FrameId>(-1);

// Identifies the memory object (or device pool) owning a frame.
using ObjectId = std::uint32_t;
inline constexpr ObjectId kNoOwner = static_cast<ObjectId>(-1);

struct FrameInfo {
  // Nonzero while a device input (write into memory) targets this frame.
  std::uint16_t input_refs = 0;
  // Nonzero while a device output (read from memory) sources from this frame.
  std::uint16_t output_refs = 0;
  // Frame is owned (by a memory object or device pool); not on the free list.
  bool allocated = false;
  // Free() was called while I/O references were outstanding; the frame will
  // join the free list when the last reference drops (deferred deallocation).
  bool zombie = false;
  // Wire count: pageout daemon must skip wired frames.
  std::uint16_t wire_count = 0;
  // Owning memory object and page index within it (kNoOwner if unowned,
  // e.g. device pool pages).
  ObjectId owner_object = kNoOwner;
  std::uint64_t owner_page = 0;
};

class PhysicalMemory {
 public:
  PhysicalMemory(std::size_t num_frames, std::uint32_t page_size);
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  std::uint32_t page_size() const { return page_size_; }
  std::size_t num_frames() const { return info_.size(); }
  std::size_t free_frames() const { return free_count_; }

  // Allocates a frame (contents indeterminate, as on real hardware: whatever
  // the previous owner left). Aborts if out of memory; use TryAllocate when
  // the caller can recover (e.g. by triggering pageout). Allocation is
  // lowest-address-first, which keeps frame ids deterministic and favors
  // contiguous runs.
  //
  // Allocate() is reserved for infrastructure that has no recovery path
  // (arena setup, device pools): it never consults the fault plan, so a
  // fault-injected run cannot turn a setup allocation into an abort. All
  // recoverable paths use TryAllocate/TryAllocateRun, which are injection
  // points (FaultSite::kFrameAllocate / kFrameAllocateRun).
  FrameId Allocate();
  FrameId TryAllocate();  // kInvalidFrame if none free.
  FrameId AllocateZeroed();

  // Allocates `count` physically contiguous frames (first-fit over the free
  // runs) and returns the first frame of the run, or kInvalidFrame if no
  // free run is long enough. Callers fall back to frame-at-a-time
  // allocation on failure.
  FrameId TryAllocateRun(std::size_t count);

  // Releases a frame. If I/O references are outstanding the frame becomes a
  // zombie and is reclaimed when the last reference drops — never while a
  // device may still touch it (I/O-deferred page deallocation).
  void Free(FrameId frame);

  // Raw frame bytes. Used by the CPU-side simulation (after permission
  // checks) and by devices (no checks — DMA bypasses the MMU).
  std::span<std::byte> Data(FrameId frame);
  std::span<const std::byte> Data(FrameId frame) const;

  // Raw bytes of a physically contiguous run: `length` bytes starting
  // `offset` bytes into frame `first`, possibly spanning multiple frames.
  // The range is bounds-checked against the arena.
  std::span<std::byte> DataRun(FrameId first, std::uint64_t offset, std::uint64_t length);
  std::span<const std::byte> DataRun(FrameId first, std::uint64_t offset,
                                     std::uint64_t length) const;

  // --- I/O referencing (paper Section 3.1) ---
  void AddInputRef(FrameId frame);
  void DropInputRef(FrameId frame);
  void AddOutputRef(FrameId frame);
  void DropOutputRef(FrameId frame);
  bool HasIoRefs(FrameId frame) const;

  // --- Wiring (share/move/weak-move semantics) ---
  void Wire(FrameId frame);
  void Unwire(FrameId frame);

  // --- Owner bookkeeping (reverse map for pageout) ---
  void SetOwner(FrameId frame, ObjectId object, std::uint64_t page_index);
  void ClearOwner(FrameId frame);

  const FrameInfo& info(FrameId frame) const {
    CheckValid(frame);
    return info_[frame];
  }

  // --- Multithreaded entry points (parallel host path) ---
  // Serialized on an internal mutex: safe to call concurrently with each
  // other, but NOT with the unlocked methods above. The parallel host path
  // uses them only while the simulation side is quiescent, so the
  // single-threaded sim/golden path never takes the lock. These are
  // infrastructure allocations in the Allocate() sense: they never consult
  // the fault plan (FaultPlan is not thread-safe, and a refill has no
  // recovery story beyond returning kInvalidFrame anyway). Allocation
  // points amortize the lock to one acquisition per arena refill.
  FrameId TryAllocateRunMt(std::size_t count);
  void FreeRunMt(FrameId first, std::size_t count);

  // --- Fault injection (tests, stress harness) ---
  // Attaches a fault plan consulted by TryAllocate/TryAllocateRun. Pass
  // nullptr to detach. Not owned; must outlive this object or be detached.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }
  FaultPlan* fault_plan() const { return fault_plan_; }

  // --- Statistics (tests, diagnostics) ---
  std::uint64_t total_allocations() const { return total_allocations_; }
  std::uint64_t deferred_frees() const { return deferred_frees_; }
  std::uint64_t completed_deferred_frees() const { return completed_deferred_frees_; }
  std::size_t allocated_frames() const { return num_frames() - free_frames() - zombie_count_; }
  std::size_t zombie_frames() const { return zombie_count_; }
  std::size_t free_runs() const { return free_runs_.size(); }  // fragmentation gauge
  // The raw free-run map (start frame -> length), for invariant checking:
  // runs must be sorted, non-overlapping, maximal, and sum to free_frames().
  const std::map<FrameId, FrameId>& free_run_map() const { return free_runs_; }

 private:
  void CheckValid(FrameId frame) const {
    GENIE_CHECK_LT(frame, info_.size()) << "bad frame id";
  }
  void MaybeReclaim(FrameId frame);
  // Takes the lowest free frame, bypassing fault injection.
  FrameId AllocateLowest();
  // Marks [first, first+count) allocated, removing it from its free run.
  void TakeFromRun(std::map<FrameId, FrameId>::iterator run, FrameId first, FrameId count);
  // Returns `frame` to the free runs, merging with adjacent runs.
  void ReleaseToFreeList(FrameId frame);

  std::uint32_t page_size_;
  // The frames' bytes (info_.size() * page_size_), calloc'd: the host's fresh
  // pages are already zero, so each faults in when a frame first touches it.
  std::unique_ptr<std::byte[], decltype(&std::free)> arena_{nullptr, &std::free};
  std::vector<FrameInfo> info_;
  // Maximal free runs: start frame -> run length (frames). Ordered so
  // allocation is lowest-first and merges are O(log runs).
  std::map<FrameId, FrameId> free_runs_;
  // Guards the *Mt entry points against each other; untouched by the
  // single-threaded paths.
  std::mutex mt_mutex_;
  FaultPlan* fault_plan_ = nullptr;
  std::size_t free_count_ = 0;
  std::size_t zombie_count_ = 0;
  std::uint64_t total_allocations_ = 0;
  std::uint64_t deferred_frees_ = 0;
  std::uint64_t completed_deferred_frees_ = 0;
};

}  // namespace genie

#endif  // GENIE_SRC_MEM_PHYS_MEMORY_H_
