#include "src/vm/address_space.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "src/vm/invariants.h"
#include "src/vm/vm.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
constexpr Vaddr kBase = 0x10000000;

std::vector<std::byte> Pattern(std::size_t n, unsigned char seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 31 + i) & 0xFF);
  }
  return v;
}

class AddressSpaceTest : public ::testing::Test {
 protected:
  Vm vm_{64, kPage};
  AddressSpace as_{vm_, "proc"};
};

TEST_F(AddressSpaceTest, CreateAndFindRegion) {
  Region* r = as_.CreateRegion(kBase, 4 * kPage);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(as_.FindRegion(kBase), r);
  EXPECT_EQ(as_.FindRegion(kBase + 4 * kPage - 1), r);
  EXPECT_EQ(as_.FindRegion(kBase + 4 * kPage), nullptr);
  EXPECT_EQ(as_.FindRegion(kBase - 1), nullptr);
  EXPECT_EQ(as_.region_count(), 1u);
}

TEST_F(AddressSpaceTest, RegionOverlapRejected) {
  as_.CreateRegion(kBase, 4 * kPage);
  EXPECT_DEATH(as_.CreateRegion(kBase + kPage, kPage), "overlap");
  EXPECT_DEATH(as_.CreateRegion(kBase - kPage, 2 * kPage), "overlap");
}

TEST_F(AddressSpaceTest, AdjacentRegionsAllowed) {
  as_.CreateRegion(kBase, kPage);
  as_.CreateRegion(kBase + kPage, kPage);
  EXPECT_EQ(as_.region_count(), 2u);
}

TEST_F(AddressSpaceTest, UnalignedRegionRejected) {
  EXPECT_DEATH(as_.CreateRegion(kBase + 17, kPage), "aligned");
  EXPECT_DEATH(as_.CreateRegion(kBase, kPage + 17), "multiple");
}

TEST_F(AddressSpaceTest, FindFreeRangeAvoidsRegions) {
  const Vaddr a = as_.FindFreeRange(2 * kPage);
  as_.CreateRegion(a, 2 * kPage);
  const Vaddr b = as_.FindFreeRange(2 * kPage);
  EXPECT_TRUE(b >= a + 2 * kPage || b + 2 * kPage <= a);
  as_.CreateRegion(b, 2 * kPage);
}

TEST_F(AddressSpaceTest, WriteThenReadRoundTrip) {
  as_.CreateRegion(kBase, 4 * kPage);
  const auto data = Pattern(3 * kPage + 123);
  ASSERT_EQ(as_.Write(kBase + 5, data), AccessResult::kOk);
  std::vector<std::byte> out(data.size());
  ASSERT_EQ(as_.Read(kBase + 5, out), AccessResult::kOk);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
}

TEST_F(AddressSpaceTest, FreshPagesReadAsZero) {
  as_.CreateRegion(kBase, kPage);
  std::vector<std::byte> out(kPage, std::byte{0xFF});
  ASSERT_EQ(as_.Read(kBase, out), AccessResult::kOk);
  for (std::size_t i = 0; i < kPage; i += 256) {
    EXPECT_EQ(static_cast<unsigned char>(out[i]), 0);
  }
  EXPECT_EQ(as_.counters().zero_fills, 1u);
}

TEST_F(AddressSpaceTest, AccessOutsideAnyRegionFaults) {
  std::vector<std::byte> buf(16);
  EXPECT_EQ(as_.Read(0x999000, buf), AccessResult::kUnrecoverableFault);
  EXPECT_EQ(as_.Write(0x999000, buf), AccessResult::kUnrecoverableFault);
  EXPECT_EQ(as_.counters().unrecoverable_faults, 2u);
}

TEST_F(AddressSpaceTest, AccessSpanningRegionEndFaults) {
  as_.CreateRegion(kBase, kPage);
  std::vector<std::byte> buf(2 * kPage);
  EXPECT_EQ(as_.Write(kBase + kPage / 2, buf), AccessResult::kUnrecoverableFault);
}

TEST_F(AddressSpaceTest, LazyAllocationOnlyTouchedPages) {
  as_.CreateRegion(kBase, 8 * kPage);
  const std::size_t before = vm_.pm().free_frames();
  std::vector<std::byte> buf(16);
  ASSERT_EQ(as_.Write(kBase + 3 * kPage, buf), AccessResult::kOk);
  EXPECT_EQ(before - vm_.pm().free_frames(), 1u);
}

TEST_F(AddressSpaceTest, RemoveRegionFreesFrames) {
  as_.CreateRegion(kBase, 2 * kPage);
  std::vector<std::byte> buf(2 * kPage, std::byte{1});
  ASSERT_EQ(as_.Write(kBase, buf), AccessResult::kOk);
  const std::size_t used = vm_.pm().allocated_frames();
  EXPECT_EQ(used, 2u);
  as_.RemoveRegion(kBase);
  EXPECT_EQ(vm_.pm().allocated_frames(), 0u);
  EXPECT_EQ(as_.region_count(), 0u);
  EXPECT_EQ(as_.FindRegion(kBase), nullptr);
}

TEST_F(AddressSpaceTest, DestructorReleasesEverything) {
  {
    AddressSpace other(vm_, "other");
    other.CreateRegion(kBase, 4 * kPage);
    std::vector<std::byte> buf(4 * kPage, std::byte{1});
    ASSERT_EQ(other.Write(kBase, buf), AccessResult::kOk);
    EXPECT_EQ(vm_.pm().allocated_frames(), 4u);
  }
  EXPECT_EQ(vm_.pm().allocated_frames(), 0u);
  EXPECT_EQ(vm_.live_objects(), 0u);
}

// --- Protection manipulation ---

TEST_F(AddressSpaceTest, RemoveWriteMakesPagesReadOnly) {
  as_.CreateRegion(kBase, 2 * kPage);
  std::vector<std::byte> buf(2 * kPage, std::byte{1});
  ASSERT_EQ(as_.Write(kBase, buf), AccessResult::kOk);
  as_.RemoveWrite(kBase, 2 * kPage);
  EXPECT_EQ(as_.FindPte(kBase)->prot, Prot::kRead);
  // Reads still fine.
  EXPECT_EQ(as_.Read(kBase, buf), AccessResult::kOk);
}

TEST_F(AddressSpaceTest, RemoveAllBlocksReadsUntilFaulted) {
  Region* r = as_.CreateRegion(kBase, kPage, RegionState::kMovedIn);
  std::vector<std::byte> buf(kPage, std::byte{1});
  ASSERT_EQ(as_.Write(kBase, buf), AccessResult::kOk);
  as_.RemoveAll(kBase, kPage);
  EXPECT_EQ(as_.FindPte(kBase)->prot, Prot::kNone);
  // Region hidden: simulate move-out; access is unrecoverable.
  r->state = RegionState::kMovedOut;
  EXPECT_EQ(as_.Read(kBase, buf), AccessResult::kUnrecoverableFault);
  // Un-hide: access recovers via fault (page still resident in object).
  r->state = RegionState::kMovedIn;
  EXPECT_EQ(as_.Read(kBase, buf), AccessResult::kOk);
}

TEST_F(AddressSpaceTest, ReinstateRestoresWrite) {
  as_.CreateRegion(kBase, kPage);
  std::vector<std::byte> buf(kPage, std::byte{1});
  ASSERT_EQ(as_.Write(kBase, buf), AccessResult::kOk);
  as_.RemoveAll(kBase, kPage);
  as_.Reinstate(kBase, kPage);
  EXPECT_EQ(as_.FindPte(kBase)->prot, Prot::kReadWrite);
}

// --- Fault semantics in region states (paper Section 4, region hiding) ---

TEST_F(AddressSpaceTest, FaultInMovedOutRegionIsUnrecoverable) {
  Region* r = as_.CreateRegion(kBase, kPage, RegionState::kMovedIn);
  std::vector<std::byte> buf(16, std::byte{1});
  ASSERT_EQ(as_.Write(kBase, buf), AccessResult::kOk);
  as_.RemoveAll(kBase, kPage);
  r->state = RegionState::kMovedOut;
  EXPECT_EQ(as_.Write(kBase, buf), AccessResult::kUnrecoverableFault);
  EXPECT_EQ(as_.counters().unrecoverable_faults, 1u);
}

TEST_F(AddressSpaceTest, WeaklyMovedOutRemainsAccessibleWithoutFault) {
  // Weak move: buffers stay mapped; the application "should not" access them
  // but doing so does not crash (weak integrity).
  Region* r = as_.CreateRegion(kBase, kPage, RegionState::kMovedIn);
  std::vector<std::byte> buf(16, std::byte{1});
  ASSERT_EQ(as_.Write(kBase, buf), AccessResult::kOk);
  r->state = RegionState::kWeaklyMovedOut;  // Pages stay mapped RW.
  EXPECT_EQ(as_.Write(kBase, buf), AccessResult::kOk);
  EXPECT_EQ(as_.counters().unrecoverable_faults, 0u);
}

TEST_F(AddressSpaceTest, FaultInMovingRegionIsUnrecoverable) {
  Region* r = as_.CreateRegion(kBase, kPage, RegionState::kMovedIn);
  r->state = RegionState::kMovingOut;
  std::vector<std::byte> buf(16);
  EXPECT_EQ(as_.Read(kBase, buf), AccessResult::kUnrecoverableFault);
  r->state = RegionState::kMovingIn;
  EXPECT_EQ(as_.Read(kBase, buf), AccessResult::kUnrecoverableFault);
}

// --- Wiring ---

TEST_F(AddressSpaceTest, WireRangeFaultsInAndWires) {
  as_.CreateRegion(kBase, 3 * kPage);
  ASSERT_EQ(as_.WireRange(kBase, 3 * kPage, /*for_write=*/true), AccessResult::kOk);
  for (int i = 0; i < 3; ++i) {
    Pte* pte = as_.FindPte(kBase + i * kPage);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(vm_.pm().info(pte->frame).wire_count, 1);
  }
  as_.UnwireRange(kBase, 3 * kPage);
  EXPECT_EQ(vm_.pm().info(as_.FindPte(kBase)->frame).wire_count, 0);
}

TEST_F(AddressSpaceTest, WireOutsideRegionFails) {
  EXPECT_EQ(as_.WireRange(0x999000, kPage, false), AccessResult::kUnrecoverableFault);
}

// --- Region caching (weak move / emulated move reuse) ---

TEST_F(AddressSpaceTest, CachedRegionRoundTrip) {
  Region* r = as_.CreateRegion(kBase, 2 * kPage, RegionState::kMovedIn);
  r->state = RegionState::kWeaklyMovedOut;
  as_.EnqueueCachedRegion(kBase);
  EXPECT_EQ(as_.cached_regions(RegionState::kWeaklyMovedOut), 1u);
  Region* got = as_.DequeueCachedRegion(2 * kPage, RegionState::kWeaklyMovedOut);
  EXPECT_EQ(got, r);
  EXPECT_EQ(as_.cached_regions(RegionState::kWeaklyMovedOut), 0u);
}

TEST_F(AddressSpaceTest, CachedRegionLengthMustMatch) {
  Region* r = as_.CreateRegion(kBase, 2 * kPage, RegionState::kMovedIn);
  r->state = RegionState::kMovedOut;
  as_.EnqueueCachedRegion(kBase);
  EXPECT_EQ(as_.DequeueCachedRegion(4 * kPage, RegionState::kMovedOut), nullptr);
  EXPECT_EQ(as_.DequeueCachedRegion(2 * kPage, RegionState::kMovedOut), r);
}

TEST_F(AddressSpaceTest, StaleCacheEntriesSkipped) {
  Region* r = as_.CreateRegion(kBase, kPage, RegionState::kMovedIn);
  r->state = RegionState::kMovedOut;
  as_.EnqueueCachedRegion(kBase);
  as_.RemoveRegion(kBase);  // Application (maliciously) removed it.
  EXPECT_EQ(as_.cached_regions(RegionState::kMovedOut), 0u);
  EXPECT_EQ(as_.DequeueCachedRegion(kPage, RegionState::kMovedOut), nullptr);
}

TEST_F(AddressSpaceTest, CacheIsFifo) {
  Region* r1 = as_.CreateRegion(kBase, kPage, RegionState::kMovedIn);
  Region* r2 = as_.CreateRegion(kBase + 4 * kPage, kPage, RegionState::kMovedIn);
  r1->state = RegionState::kWeaklyMovedOut;
  r2->state = RegionState::kWeaklyMovedOut;
  as_.EnqueueCachedRegion(kBase);
  as_.EnqueueCachedRegion(kBase + 4 * kPage);
  EXPECT_EQ(as_.DequeueCachedRegion(kPage, RegionState::kWeaklyMovedOut), r1);
  EXPECT_EQ(as_.DequeueCachedRegion(kPage, RegionState::kWeaklyMovedOut), r2);
}

// The caches must hand out what one FIFO per state always did: the first
// live entry of exactly that length and state in global enqueue order, where
// an entry dies when its region is dequeued or removed. A seeded run of
// enqueues, dequeues and removals (of cached and uncached regions) is checked
// against a model of that rule after every operation.
TEST_F(AddressSpaceTest, CacheMatchesFifoReferenceOverSeededOps) {
  struct Entry {
    Vaddr start;
    std::uint64_t length;
    RegionState state;
  };
  constexpr RegionState kCachedStates[] = {RegionState::kMovedOut,
                                           RegionState::kWeaklyMovedOut};
  std::vector<Entry> live;      // the model: live entries, oldest first
  std::vector<Vaddr> uncached;  // live regions in no cache
  SplitMix64 rng(0xcace);
  auto fresh_region = [&](RegionState state) {
    const std::uint64_t length = rng.Range(1, 15) * kPage;
    const Vaddr start = as_.FindFreeRange(length);
    as_.CreateRegion(start, length, state);
    return start;
  };
  auto take = [](auto& v, std::size_t i) {
    const auto value = v[i];
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
    return value;
  };
  int hits = 0;
  int misses = 0;
  int cached_removals = 0;
  int uncached_removals = 0;
  for (int op = 0; op < 12000; ++op) {
    const RegionState state = kCachedStates[rng.Below(2)];
    const std::uint64_t roll = rng.Below(100);
    if (roll < 45) {
      // Enqueue a region a dequeue handed out (as an unwound input does) or
      // a fresh one.
      const Vaddr start = !uncached.empty() && rng.Chance(0.5)
                              ? take(uncached, rng.Below(uncached.size()))
                              : fresh_region(state);
      Region* region = as_.RegionAt(start);
      region->state = state;
      as_.EnqueueCachedRegion(start);
      live.push_back({start, region->length, state});
    } else if (roll < 75) {
      const std::uint64_t length = rng.Range(1, 15) * kPage;
      const auto expected = std::find_if(live.begin(), live.end(), [&](const Entry& e) {
        return e.length == length && e.state == state;
      });
      Region* got = as_.DequeueCachedRegion(length, state);
      if (expected == live.end()) {
        ASSERT_EQ(got, nullptr) << "op " << op;
        ++misses;
      } else {
        ASSERT_NE(got, nullptr) << "op " << op;
        ASSERT_EQ(got->start, expected->start) << "op " << op;
        got->state = RegionState::kMovingIn;
        uncached.push_back(got->start);
        live.erase(expected);
        ++hits;
      }
    } else if (roll < 80) {
      uncached.push_back(fresh_region(state));  // Hidden but never enqueued.
    } else if (!live.empty() && rng.Chance(0.5)) {
      as_.RemoveRegion(take(live, rng.Below(live.size())).start);
      ++cached_removals;
    } else if (!uncached.empty()) {
      as_.RemoveRegion(take(uncached, rng.Below(uncached.size())));
      ++uncached_removals;
    }
    for (const RegionState s : kCachedStates) {
      const auto count = std::count_if(live.begin(), live.end(),
                                       [&](const Entry& e) { return e.state == s; });
      ASSERT_EQ(as_.cached_regions(s), static_cast<std::size_t>(count)) << "op " << op;
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  EXPECT_GT(cached_removals, 0);
  EXPECT_GT(uncached_removals, 0);
  const InvariantReport report = VmInvariants::CheckAll(vm_, as_, /*expect_quiescent=*/true);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- Sharing an object between address spaces ---

TEST_F(AddressSpaceTest, SharedObjectVisibleInBothSpaces) {
  AddressSpace other(vm_, "other");
  Region* r = as_.CreateRegion(kBase, kPage);
  const auto data = Pattern(64);
  ASSERT_EQ(as_.Write(kBase, data), AccessResult::kOk);
  other.CreateRegionWithObject(kBase, kPage, r->object, RegionState::kUnmovable);
  std::vector<std::byte> out(64);
  ASSERT_EQ(other.Read(kBase, out), AccessResult::kOk);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), 64), 0);
}

// Property sweep: round-trip writes at many offsets/lengths, including page
// boundaries.
class AddressSpaceRoundTripTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AddressSpaceRoundTripTest, RoundTrip) {
  Vm vm(64, kPage);
  AddressSpace as(vm, "proc");
  as.CreateRegion(kBase, 8 * kPage);
  const auto [offset, length] = GetParam();
  const auto data = Pattern(length, static_cast<unsigned char>(offset & 0xFF));
  ASSERT_EQ(as.Write(kBase + offset, data), AccessResult::kOk);
  std::vector<std::byte> out(length);
  ASSERT_EQ(as.Read(kBase + offset, out), AccessResult::kOk);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), length), 0);
}

INSTANTIATE_TEST_SUITE_P(OffsetsAndLengths, AddressSpaceRoundTripTest,
                         ::testing::Values(std::pair{0, 1}, std::pair{0, kPage},
                                           std::pair{1, kPage}, std::pair{kPage - 1, 2},
                                           std::pair{kPage - 1, kPage + 2},
                                           std::pair{123, 3 * kPage},
                                           std::pair{kPage / 2, kPage / 2},
                                           std::pair{2 * kPage + 7, 4 * kPage},
                                           std::pair{0, 8 * kPage}));

}  // namespace
}  // namespace genie
