#include "src/mem/phys_memory.h"

#include <algorithm>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;

TEST(PhysMemoryTest, InitialStateAllFree) {
  PhysicalMemory pm(8, kPage);
  EXPECT_EQ(pm.num_frames(), 8u);
  EXPECT_EQ(pm.free_frames(), 8u);
  EXPECT_EQ(pm.allocated_frames(), 0u);
  EXPECT_EQ(pm.page_size(), kPage);
}

TEST(PhysMemoryTest, AllocateReturnsDistinctFrames) {
  PhysicalMemory pm(8, kPage);
  std::set<FrameId> frames;
  for (int i = 0; i < 8; ++i) {
    frames.insert(pm.Allocate());
  }
  EXPECT_EQ(frames.size(), 8u);
  EXPECT_EQ(pm.free_frames(), 0u);
}

TEST(PhysMemoryTest, TryAllocateReturnsInvalidWhenExhausted) {
  PhysicalMemory pm(1, kPage);
  EXPECT_NE(pm.TryAllocate(), kInvalidFrame);
  EXPECT_EQ(pm.TryAllocate(), kInvalidFrame);
}

TEST(PhysMemoryDeathTest, AllocateAbortsWhenExhausted) {
  PhysicalMemory pm(1, kPage);
  pm.Allocate();
  EXPECT_DEATH(pm.Allocate(), "out of physical memory");
}

TEST(PhysMemoryTest, FreeReturnsFrameToFreeList) {
  PhysicalMemory pm(2, kPage);
  const FrameId f = pm.Allocate();
  pm.Free(f);
  EXPECT_EQ(pm.free_frames(), 2u);
}

TEST(PhysMemoryDeathTest, DoubleFreeAborts) {
  PhysicalMemory pm(2, kPage);
  const FrameId f = pm.Allocate();
  pm.Free(f);
  EXPECT_DEATH(pm.Free(f), "double free");
}

TEST(PhysMemoryTest, DataSpansAreDisjointAndPageSized) {
  PhysicalMemory pm(4, kPage);
  const FrameId a = pm.Allocate();
  const FrameId b = pm.Allocate();
  auto da = pm.Data(a);
  auto db = pm.Data(b);
  EXPECT_EQ(da.size(), kPage);
  EXPECT_EQ(db.size(), kPage);
  std::memset(da.data(), 0xAA, da.size());
  std::memset(db.data(), 0x55, db.size());
  EXPECT_EQ(static_cast<unsigned char>(da[0]), 0xAA);
  EXPECT_EQ(static_cast<unsigned char>(db[0]), 0x55);
}

TEST(PhysMemoryTest, NeverTouchedFramesReadZero) {
  // The arena is not written at construction, yet every frame starts zeroed,
  // even where the host reuses memory an earlier arena dirtied: simulated
  // results must not depend on what that memory held.
  constexpr std::size_t kFrames = 8;
  {
    PhysicalMemory dirty(kFrames, kPage);
    for (std::size_t i = 0; i < kFrames; ++i) {
      const auto data = dirty.Data(dirty.Allocate());
      std::memset(data.data(), 0xA5, data.size());
    }
  }
  PhysicalMemory pm(kFrames, kPage);
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto data = pm.Data(pm.Allocate());
    const auto is_zero = [](std::byte b) { return b == std::byte{0}; };
    EXPECT_TRUE(std::all_of(data.begin(), data.end(), is_zero)) << "frame " << i;
  }
}

TEST(PhysMemoryTest, AllocateZeroedClearsResidue) {
  PhysicalMemory pm(1, kPage);
  FrameId f = pm.Allocate();
  std::memset(pm.Data(f).data(), 0xFF, kPage);
  pm.Free(f);
  f = pm.AllocateZeroed();
  for (std::size_t i = 0; i < kPage; i += 512) {
    EXPECT_EQ(static_cast<unsigned char>(pm.Data(f)[i]), 0);
  }
}

TEST(PhysMemoryTest, PlainAllocateLeavesResidue) {
  // Documents that a recycled frame carries the previous owner's data —
  // why move semantics must zero-complete pages before mapping them.
  PhysicalMemory pm(1, kPage);
  FrameId f = pm.Allocate();
  std::memset(pm.Data(f).data(), 0xFF, kPage);
  pm.Free(f);
  f = pm.Allocate();
  EXPECT_EQ(static_cast<unsigned char>(pm.Data(f)[100]), 0xFF);
}

// --- I/O-deferred page deallocation (paper Section 3.1) ---

TEST(PhysMemoryTest, FreeWithPendingOutputRefDefers) {
  PhysicalMemory pm(2, kPage);
  const FrameId f = pm.Allocate();
  pm.AddOutputRef(f);
  pm.Free(f);
  EXPECT_EQ(pm.free_frames(), 1u);  // Not reusable yet.
  EXPECT_EQ(pm.zombie_frames(), 1u);
  EXPECT_EQ(pm.deferred_frees(), 1u);
  pm.DropOutputRef(f);
  EXPECT_EQ(pm.free_frames(), 2u);  // Reclaimed on last unref.
  EXPECT_EQ(pm.zombie_frames(), 0u);
  EXPECT_EQ(pm.completed_deferred_frees(), 1u);
}

TEST(PhysMemoryTest, FreeWithPendingInputRefDefers) {
  PhysicalMemory pm(2, kPage);
  const FrameId f = pm.Allocate();
  pm.AddInputRef(f);
  pm.Free(f);
  EXPECT_EQ(pm.free_frames(), 1u);
  pm.DropInputRef(f);
  EXPECT_EQ(pm.free_frames(), 2u);
}

TEST(PhysMemoryTest, ZombieFrameNotHandedToNewAllocations) {
  // The dangerous scenario of Section 3.1: a page freed during pending
  // output must not be allocated to another process while the device still
  // reads it.
  PhysicalMemory pm(2, kPage);
  const FrameId f = pm.Allocate();
  pm.AddOutputRef(f);
  std::memset(pm.Data(f).data(), 0x42, kPage);
  pm.Free(f);
  const FrameId g = pm.TryAllocate();
  EXPECT_NE(g, f);  // Got the other frame, never the zombie.
  EXPECT_EQ(pm.TryAllocate(), kInvalidFrame);
  // Device can still read the original data.
  EXPECT_EQ(static_cast<unsigned char>(pm.Data(f)[0]), 0x42);
  pm.DropOutputRef(f);
  EXPECT_EQ(pm.TryAllocate(), f);  // Now reusable.
}

TEST(PhysMemoryTest, MultipleRefsDeferUntilLastDrop) {
  PhysicalMemory pm(1, kPage);
  const FrameId f = pm.Allocate();
  pm.AddOutputRef(f);
  pm.AddOutputRef(f);
  pm.AddInputRef(f);
  pm.Free(f);
  pm.DropOutputRef(f);
  EXPECT_EQ(pm.free_frames(), 0u);
  pm.DropInputRef(f);
  EXPECT_EQ(pm.free_frames(), 0u);
  pm.DropOutputRef(f);
  EXPECT_EQ(pm.free_frames(), 1u);
}

TEST(PhysMemoryTest, HasIoRefs) {
  PhysicalMemory pm(1, kPage);
  const FrameId f = pm.Allocate();
  EXPECT_FALSE(pm.HasIoRefs(f));
  pm.AddInputRef(f);
  EXPECT_TRUE(pm.HasIoRefs(f));
  pm.DropInputRef(f);
  EXPECT_FALSE(pm.HasIoRefs(f));
}

TEST(PhysMemoryDeathTest, DropRefBelowZeroAborts) {
  PhysicalMemory pm(1, kPage);
  const FrameId f = pm.Allocate();
  EXPECT_DEATH(pm.DropInputRef(f), "");
}

TEST(PhysMemoryTest, WireCountTracked) {
  PhysicalMemory pm(1, kPage);
  const FrameId f = pm.Allocate();
  pm.Wire(f);
  pm.Wire(f);
  EXPECT_EQ(pm.info(f).wire_count, 2);
  pm.Unwire(f);
  pm.Unwire(f);
  EXPECT_EQ(pm.info(f).wire_count, 0);
}

TEST(PhysMemoryDeathTest, FreeingWiredFrameAborts) {
  PhysicalMemory pm(1, kPage);
  const FrameId f = pm.Allocate();
  pm.Wire(f);
  EXPECT_DEATH(pm.Free(f), "wired");
}

TEST(PhysMemoryTest, OwnerBookkeeping) {
  PhysicalMemory pm(1, kPage);
  const FrameId f = pm.Allocate();
  EXPECT_EQ(pm.info(f).owner_object, kNoOwner);
  pm.SetOwner(f, 7, 3);
  EXPECT_EQ(pm.info(f).owner_object, 7u);
  EXPECT_EQ(pm.info(f).owner_page, 3u);
  pm.ClearOwner(f);
  EXPECT_EQ(pm.info(f).owner_object, kNoOwner);
}

TEST(PhysMemoryTest, FreeClearsOwner) {
  PhysicalMemory pm(1, kPage);
  const FrameId f = pm.Allocate();
  pm.SetOwner(f, 7, 3);
  pm.AddOutputRef(f);
  pm.Free(f);
  // Zombie frame is ownerless: paper's unreference path checks "still
  // allocated to a memory object?" to decide reclamation.
  EXPECT_EQ(pm.info(f).owner_object, kNoOwner);
  pm.DropOutputRef(f);
}

TEST(PhysMemoryTest, AllocationCounterAdvances) {
  PhysicalMemory pm(2, kPage);
  pm.Free(pm.Allocate());
  pm.Free(pm.Allocate());
  EXPECT_EQ(pm.total_allocations(), 2u);
}

// --- Contiguous runs ---

TEST(PhysMemoryTest, AllocateRunIsContiguousAndLowestFirst) {
  PhysicalMemory pm(8, kPage);
  const FrameId run = pm.TryAllocateRun(4);
  EXPECT_EQ(run, 0u);
  for (FrameId f = run; f < run + 4; ++f) {
    EXPECT_TRUE(pm.info(f).allocated);
  }
  EXPECT_EQ(pm.free_frames(), 4u);
}

TEST(PhysMemoryTest, AllocateRunSkipsFragmentedGaps) {
  PhysicalMemory pm(8, kPage);
  const FrameId a = pm.Allocate();  // frame 0
  const FrameId b = pm.Allocate();  // frame 1
  pm.Free(a);                       // free: {0} and {2..7}
  const FrameId run = pm.TryAllocateRun(3);
  EXPECT_EQ(run, 2u);  // First fit past the single-frame hole.
  const FrameId single = pm.TryAllocate();
  EXPECT_EQ(single, 0u);  // The hole still serves single-frame requests.
  pm.Free(b);
  pm.Free(single);
  for (FrameId f = run; f < run + 3; ++f) {
    pm.Free(f);
  }
  EXPECT_EQ(pm.free_frames(), 8u);
}

TEST(PhysMemoryTest, FreeingMergesAdjacentRuns) {
  PhysicalMemory pm(8, kPage);
  std::vector<FrameId> all;
  for (int i = 0; i < 8; ++i) {
    all.push_back(pm.Allocate());
  }
  // Free in an order that exercises both-sided merging: 3 then 5 then 4.
  pm.Free(3);
  pm.Free(5);
  EXPECT_EQ(pm.free_runs(), 2u);
  pm.Free(4);
  EXPECT_EQ(pm.free_runs(), 1u);  // {3,4,5} merged into one run.
  EXPECT_EQ(pm.TryAllocateRun(3), 3u);
}

TEST(PhysMemoryTest, TryAllocateRunFailsWithoutContiguousSpace) {
  PhysicalMemory pm(4, kPage);
  pm.Allocate();  // 0
  const FrameId f1 = pm.Allocate();
  pm.Allocate();  // 2
  const FrameId f3 = pm.Allocate();
  pm.Free(f1);
  pm.Free(f3);  // free: {1} and {3}: two frames, but no pair.
  EXPECT_EQ(pm.free_frames(), 2u);
  EXPECT_EQ(pm.TryAllocateRun(2), kInvalidFrame);
}

TEST(PhysMemoryTest, DataRunSpansFrames) {
  PhysicalMemory pm(4, kPage);
  const FrameId run = pm.TryAllocateRun(3);
  ASSERT_NE(run, kInvalidFrame);
  auto span = pm.DataRun(run, 100, 2 * kPage);
  EXPECT_EQ(span.size(), 2 * kPage);
  EXPECT_EQ(span.data(), pm.Data(run).data() + 100);
  // Bytes stored through a whole-run span read back through per-frame spans.
  span[kPage] = std::byte{0x5A};
  EXPECT_EQ(pm.Data(run + 1)[100], std::byte{0x5A});
}

TEST(PhysMemoryDeathTest, DataRunPastArenaAborts) {
  PhysicalMemory pm(2, kPage);
  pm.Allocate();
  pm.Allocate();
  EXPECT_DEATH(pm.DataRun(1, 0, 2 * kPage), "out of bounds");
}

// Property: alloc/free churn conserves frames (no leaks, no duplication).
TEST(PhysMemoryTest, ChurnConservesFrames) {
  PhysicalMemory pm(16, kPage);
  std::vector<FrameId> held;
  for (int round = 0; round < 100; ++round) {
    if ((round % 3) != 0 && pm.free_frames() > 0) {
      held.push_back(pm.Allocate());
    } else if (!held.empty()) {
      pm.Free(held.back());
      held.pop_back();
    }
    EXPECT_EQ(pm.free_frames() + pm.allocated_frames() + pm.zombie_frames(), 16u);
  }
}

}  // namespace
}  // namespace genie
