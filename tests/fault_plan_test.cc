// FaultPlan addressing modes (nth / probability / window / max_fires) and
// the invariant checker's ability to actually detect a planted violation.
#include <gtest/gtest.h>

#include "src/mem/fault_plan.h"
#include "src/vm/invariants.h"
#include "src/vm/vm.h"

namespace genie {
namespace {

TEST(FaultPlanTest, NthRuleFiresOnExactlyTheNthOp) {
  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kFrameAllocate;
  rule.nth = 3;
  plan.AddRule(rule);
  for (int op = 1; op <= 6; ++op) {
    EXPECT_EQ(plan.ShouldFail(FaultSite::kFrameAllocate), op == 3) << "op " << op;
  }
  EXPECT_EQ(plan.site_ops(FaultSite::kFrameAllocate), 6u);
  EXPECT_EQ(plan.injected(FaultSite::kFrameAllocate), 1u);
  EXPECT_EQ(plan.total_injected(), 1u);
}

TEST(FaultPlanTest, SitesAreIndependent) {
  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kBackingRead;
  rule.nth = 1;
  plan.AddRule(rule);
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kBackingWrite));
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kDeviceError));
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kBackingRead));
  EXPECT_EQ(plan.site_ops(FaultSite::kBackingWrite), 1u);
  EXPECT_EQ(plan.site_ops(FaultSite::kBackingRead), 1u);
  EXPECT_EQ(plan.injected(FaultSite::kBackingWrite), 0u);
}

TEST(FaultPlanTest, ProbabilityIsDeterministicInSeed) {
  const auto run = [](std::uint64_t seed) {
    FaultPlan plan(seed);
    FaultRule rule;
    rule.site = FaultSite::kDeviceError;
    rule.probability = 0.3;
    plan.AddRule(rule);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(plan.ShouldFail(FaultSite::kDeviceError));
    }
    return fires;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // astronomically unlikely to collide
  // Certainty and impossibility behave as advertised.
  FaultPlan always(7);
  FaultRule sure;
  sure.site = FaultSite::kDeviceError;
  sure.probability = 1.0;
  always.AddRule(sure);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(always.ShouldFail(FaultSite::kDeviceError));
  }
}

TEST(FaultPlanTest, WindowGatesRuleOnSimClock) {
  FaultPlan plan(1);
  SimTime now = 0;
  plan.set_clock([&now] { return now; });
  FaultRule rule;
  rule.site = FaultSite::kPageoutPressure;
  rule.probability = 1.0;
  rule.window_begin = 100;
  rule.window_end = 200;
  plan.AddRule(rule);
  now = 50;
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kPageoutPressure));
  now = 100;
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kPageoutPressure));
  now = 199;
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kPageoutPressure));
  now = 200;  // half-open interval
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kPageoutPressure));
}

TEST(FaultPlanTest, MaxFiresCapsARule) {
  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kBackingWrite;
  rule.probability = 1.0;
  rule.max_fires = 2;
  plan.AddRule(rule);
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kBackingWrite));
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kBackingWrite));
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kBackingWrite));
  EXPECT_EQ(plan.injected(FaultSite::kBackingWrite), 2u);
}

TEST(FaultPlanTest, ArgIsHandedToTheInjectionPoint) {
  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kDeviceShortTransfer;
  rule.nth = 1;
  rule.arg = 1234;
  plan.AddRule(rule);
  std::uint64_t arg = 0;
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kDeviceShortTransfer, &arg));
  EXPECT_EQ(arg, 1234u);
}

TEST(FaultPlanTest, ClearRemovesRulesButKeepsHistory) {
  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kFrameAllocate;
  rule.probability = 1.0;
  plan.AddRule(rule);
  EXPECT_TRUE(plan.ShouldFail(FaultSite::kFrameAllocate));
  plan.Clear();
  EXPECT_FALSE(plan.ShouldFail(FaultSite::kFrameAllocate));
  // Counters survive: the run's history stays coherent across rule swaps.
  EXPECT_EQ(plan.total_injected(), 1u);
  EXPECT_EQ(plan.site_ops(FaultSite::kFrameAllocate), 2u);
}

TEST(FaultPlanTest, EverySiteHasAName) {
  for (std::size_t i = 0; i < kNumFaultSites; ++i) {
    EXPECT_STRNE(FaultSiteName(static_cast<FaultSite>(i)), "unknown");
  }
}

// The stress harness is only as good as its checker: plant a real
// bookkeeping imbalance and make sure CheckAll reports it, then goes quiet
// once the imbalance is repaired.
TEST(InvariantSelfTest, DetectsPlantedReferenceImbalance) {
  Vm vm(16, 4096);
  AddressSpace as(vm, "app");
  const InvariantReport clean = VmInvariants::CheckAll(vm, as, /*expect_quiescent=*/true);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
  EXPECT_GT(clean.checks, 0u);

  // A frame input reference with no matching object input reference is the
  // signature of a half-unwound DMA (the bug class the harness hunts).
  const FrameId frame = vm.pm().Allocate();
  vm.pm().AddInputRef(frame);
  const InvariantReport planted = VmInvariants::CheckAll(vm, as, /*expect_quiescent=*/false);
  EXPECT_FALSE(planted.ok());

  vm.pm().DropInputRef(frame);
  vm.pm().Free(frame);
  const InvariantReport repaired = VmInvariants::CheckAll(vm, as, /*expect_quiescent=*/true);
  EXPECT_TRUE(repaired.ok()) << repaired.ToString();
}

// Every hidden-region cache entry must name a live region in its cache's
// state: a region cached twice would be handed out twice, and one whose state
// moved on without a dequeue would be handed out while in use.
constexpr Vaddr kRegion = 0x10000000;

TEST(InvariantSelfTest, DetectsRegionCachedTwice) {
  Vm vm(16, 4096);
  AddressSpace as(vm, "app");
  as.CreateRegion(kRegion, 4096, RegionState::kMovedOut);
  as.EnqueueCachedRegion(kRegion);
  const InvariantReport clean = VmInvariants::CheckAll(vm, as, /*expect_quiescent=*/true);
  EXPECT_TRUE(clean.ok()) << clean.ToString();

  as.EnqueueCachedRegion(kRegion);
  const InvariantReport planted = VmInvariants::CheckAll(vm, as, /*expect_quiescent=*/true);
  EXPECT_FALSE(planted.ok());
  EXPECT_NE(planted.ToString().find("region cached twice"), std::string::npos)
      << planted.ToString();

  ASSERT_NE(as.DequeueCachedRegion(4096, RegionState::kMovedOut), nullptr);
  const InvariantReport repaired = VmInvariants::CheckAll(vm, as, /*expect_quiescent=*/true);
  EXPECT_TRUE(repaired.ok()) << repaired.ToString();
}

TEST(InvariantSelfTest, DetectsCachedRegionMovedBackIn) {
  Vm vm(16, 4096);
  AddressSpace as(vm, "app");
  Region* region = as.CreateRegion(kRegion, 4096, RegionState::kMovedOut);
  as.EnqueueCachedRegion(kRegion);
  region->state = RegionState::kMovedIn;
  const InvariantReport planted = VmInvariants::CheckAll(vm, as, /*expect_quiescent=*/true);
  EXPECT_FALSE(planted.ok());
  EXPECT_NE(planted.ToString().find("wrong state"), std::string::npos) << planted.ToString();

  region->state = RegionState::kMovedOut;
  const InvariantReport repaired = VmInvariants::CheckAll(vm, as, /*expect_quiescent=*/true);
  EXPECT_TRUE(repaired.ok()) << repaired.ToString();
}

TEST(InvariantSelfTest, TotalChecksCountsEveryPredicate) {
  Vm vm(16, 4096);
  AddressSpace as(vm, "app");
  const std::uint64_t before = VmInvariants::total_checks();
  const InvariantReport report = VmInvariants::CheckAll(vm, as, /*expect_quiescent=*/true);
  EXPECT_EQ(VmInvariants::total_checks(), before + report.checks);
}

}  // namespace
}  // namespace genie
