// System-buffer allocation: the contiguous fast path, the frame-at-a-time
// fallback over a fragmented free list, an injected failure part way through
// that fallback, and AllocateSysBuffer, which dies where the Try form fails.
#include "src/genie/sys_buffer.h"

#include <initializer_list>

#include <gtest/gtest.h>

#include "src/mem/fault_plan.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;

// Allocates every frame of `pm`, then frees `free`, so the free list holds
// exactly those frames.
void LeaveFree(PhysicalMemory& pm, std::initializer_list<FrameId> free) {
  while (pm.free_frames() > 0) {
    (void)pm.Allocate();
  }
  for (const FrameId f : free) {
    pm.Free(f);
  }
}

TEST(SysBufferTest, ContiguousRequestIsOneSegment) {
  PhysicalMemory pm(16, kPage);
  SysBuffer buf;
  ASSERT_TRUE(TryAllocateSysBuffer(pm, 100, 3 * kPage, &buf));
  EXPECT_EQ(buf.length, 3 * kPage);
  EXPECT_EQ(buf.page_offset, 100u);
  // 100 + 3 pages of bytes span four frames, taken as one run.
  ASSERT_EQ(buf.frames.size(), 4u);
  for (std::size_t i = 0; i < buf.frames.size(); ++i) {
    EXPECT_EQ(buf.frames[i], buf.frames[0] + static_cast<FrameId>(i));
  }
  ASSERT_EQ(buf.iov.segments.size(), 1u);
  EXPECT_EQ(buf.iov.segments[0].frame, buf.frames[0]);
  EXPECT_EQ(buf.iov.segments[0].offset, 100u);
  EXPECT_EQ(buf.iov.segments[0].length, 3 * kPage);
  EXPECT_EQ(pm.free_frames(), 12u);
  FreeSysBuffer(pm, buf);
  EXPECT_EQ(pm.free_frames(), 16u);
}

TEST(SysBufferTest, FragmentedFreeListAllocatesFrameAtATimeAndMergesAdjacentFrames) {
  PhysicalMemory pm(12, kPage);
  LeaveFree(pm, {2, 3, 6, 9, 10});  // Free runs of 2, 1 and 2 frames.
  // Five pages' worth at offset 100, ending 50 bytes short of the fifth
  // frame's end: no run is long enough, so frames 2, 3, 6, 9 and 10 are
  // taken one at a time, and 2-3 and 9-10 merge into one segment each.
  const std::uint64_t len = 5 * kPage - 100 - 50;
  SysBuffer buf;
  ASSERT_TRUE(TryAllocateSysBuffer(pm, 100, len, &buf));
  EXPECT_EQ(buf.frames, (std::vector<FrameId>{2, 3, 6, 9, 10}));
  ASSERT_EQ(buf.iov.segments.size(), 3u);
  EXPECT_EQ(buf.iov.segments[0].frame, 2u);
  EXPECT_EQ(buf.iov.segments[0].offset, 100u);
  EXPECT_EQ(buf.iov.segments[0].length, 2 * kPage - 100);
  EXPECT_EQ(buf.iov.segments[1].frame, 6u);
  EXPECT_EQ(buf.iov.segments[1].offset, 0u);
  EXPECT_EQ(buf.iov.segments[1].length, kPage);
  EXPECT_EQ(buf.iov.segments[2].frame, 9u);
  EXPECT_EQ(buf.iov.segments[2].offset, 0u);
  EXPECT_EQ(buf.iov.segments[2].length, 2 * kPage - 50);
  EXPECT_EQ(buf.iov.total_bytes(), len);
  EXPECT_EQ(pm.free_frames(), 0u);
  FreeSysBuffer(pm, buf);
  EXPECT_EQ(pm.free_frames(), 5u);
}

TEST(SysBufferTest, InjectedFrameAllocateMidBufferFailsAndReleasesThePartialBuffer) {
  PhysicalMemory pm(12, kPage);
  LeaveFree(pm, {2, 3, 6, 9, 10});
  FaultPlan plan;
  FaultRule rule;
  rule.site = FaultSite::kFrameAllocate;
  rule.nth = 3;  // The fallback's third frame: two are already held.
  plan.AddRule(rule);
  pm.set_fault_plan(&plan);
  const std::size_t free_before = pm.free_frames();
  SysBuffer out;
  EXPECT_FALSE(TryAllocateSysBuffer(pm, 0, 4 * kPage, &out));
  EXPECT_EQ(plan.total_injected(), 1u);
  EXPECT_TRUE(out.frames.empty());
  EXPECT_TRUE(out.iov.segments.empty());
  EXPECT_EQ(out.length, 0u);
  EXPECT_EQ(pm.free_frames(), free_before);
  // The released frames are really back: the same request now succeeds.
  pm.set_fault_plan(nullptr);
  ASSERT_TRUE(TryAllocateSysBuffer(pm, 0, 4 * kPage, &out));
  EXPECT_EQ(out.frames, (std::vector<FrameId>{2, 3, 6, 9}));
  FreeSysBuffer(pm, out);
}

TEST(SysBufferDeathTest, AllocateDiesWhenMemoryIsExhausted) {
  PhysicalMemory pm(2, kPage);
  LeaveFree(pm, {});
  EXPECT_DEATH((void)AllocateSysBuffer(pm, 0, kPage), "out of physical memory");
}

}  // namespace
}  // namespace genie
