#include "src/sim/resource.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/awaitable.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/util/rng.h"

namespace genie {
namespace {

Task<void> HoldFor(Engine& eng, Resource& res, SimTime dur, std::vector<SimTime>* grants) {
  co_await res.Acquire();
  if (grants != nullptr) {
    grants->push_back(eng.now());
  }
  co_await Delay(eng, dur);
  res.Release();
}

TEST(ResourceTest, UncontendedAcquireIsImmediate) {
  Engine eng;
  Resource res(eng, "cpu");
  std::vector<SimTime> grants;
  std::move(HoldFor(eng, res, 10, &grants)).Detach();
  eng.Run();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0], 0);
  EXPECT_FALSE(res.held());
}

TEST(ResourceTest, ContendersServedFifo) {
  Engine eng;
  Resource res(eng, "cpu");
  std::vector<SimTime> grants;
  std::move(HoldFor(eng, res, 10, &grants)).Detach();
  std::move(HoldFor(eng, res, 10, &grants)).Detach();
  std::move(HoldFor(eng, res, 10, &grants)).Detach();
  eng.Run();
  EXPECT_EQ(grants, (std::vector<SimTime>{0, 10, 20}));
}

TEST(ResourceTest, BusyTimeAccumulates) {
  Engine eng;
  Resource res(eng, "cpu");
  std::move(HoldFor(eng, res, 25, nullptr)).Detach();
  std::move(HoldFor(eng, res, 15, nullptr)).Detach();
  eng.Run();
  EXPECT_EQ(res.busy_time(), 40);
}

TEST(ResourceTest, BusyTimeExcludesIdleGaps) {
  Engine eng;
  Resource res(eng, "cpu");
  std::move(HoldFor(eng, res, 10, nullptr)).Detach();
  eng.Run();
  // Idle gap from t=10 to t=100.
  eng.ScheduleAt(100, [] {});
  eng.Run();
  std::move(HoldFor(eng, res, 5, nullptr)).Detach();
  eng.Run();
  EXPECT_EQ(res.busy_time(), 15);
  EXPECT_EQ(eng.now(), 105);
}

TEST(ResourceTest, BusyTimeIncludesInProgressGrant) {
  Engine eng;
  Resource res(eng, "cpu");
  std::move(HoldFor(eng, res, 100, nullptr)).Detach();
  eng.RunFor(40);
  EXPECT_EQ(res.busy_time(), 40);
}

TEST(ResourceTest, ResetBusyTimeStartsWindow) {
  Engine eng;
  Resource res(eng, "cpu");
  std::move(HoldFor(eng, res, 10, nullptr)).Detach();
  eng.Run();
  res.ResetBusyTime();
  EXPECT_EQ(res.busy_time(), 0);
  std::move(HoldFor(eng, res, 7, nullptr)).Detach();
  eng.Run();
  EXPECT_EQ(res.busy_time(), 7);
}

Task<void> UseRun(Resource& res, SimTime cost) { co_await res.Run(cost); }

TEST(ResourceTest, RunAcquiresHoldsReleases) {
  Engine eng;
  Resource res(eng, "cpu");
  std::move(UseRun(res, 33)).Detach();
  eng.Run();
  EXPECT_EQ(res.busy_time(), 33);
  EXPECT_FALSE(res.held());
  EXPECT_EQ(eng.now(), 33);
}

TEST(ResourceTest, RunSerializesWork) {
  Engine eng;
  Resource res(eng, "cpu");
  std::move(UseRun(res, 10)).Detach();
  std::move(UseRun(res, 20)).Detach();
  eng.Run();
  EXPECT_EQ(eng.now(), 30);
  EXPECT_EQ(res.busy_time(), 30);
}

TEST(ResourceTest, ZeroCostRunStillWorks) {
  Engine eng;
  Resource res(eng, "cpu");
  std::move(UseRun(res, 0)).Detach();
  eng.Run();
  EXPECT_EQ(res.busy_time(), 0);
  EXPECT_FALSE(res.held());
}

TEST(ResourceTest, QueueLengthVisible) {
  Engine eng;
  Resource res(eng, "cpu");
  std::move(HoldFor(eng, res, 50, nullptr)).Detach();
  std::move(HoldFor(eng, res, 50, nullptr)).Detach();
  std::move(HoldFor(eng, res, 50, nullptr)).Detach();
  EXPECT_TRUE(res.held());
  EXPECT_EQ(res.queue_length(), 2u);
  eng.Run();
  EXPECT_EQ(res.queue_length(), 0u);
}

TEST(ResourceDeathTest, ReleaseWithoutAcquireAborts) {
  Engine eng;
  Resource res(eng, "cpu");
  EXPECT_DEATH(res.Release(), "Release");
}

// Two resources used by interleaved tasks: utilization accounting stays
// independent.
Task<void> PingPong(Resource& a, Resource& b) {
  co_await a.Run(10);
  co_await b.Run(20);
  co_await a.Run(30);
}

TEST(ResourceTest, IndependentResources) {
  Engine eng;
  Resource a(eng, "a");
  Resource b(eng, "b");
  std::move(PingPong(a, b)).Detach();
  eng.Run();
  EXPECT_EQ(a.busy_time(), 40);
  EXPECT_EQ(b.busy_time(), 20);
  EXPECT_EQ(eng.now(), 60);
}

TEST(ResourceTest, RunDetachedHoldsAndSerializesWithoutAFrame) {
  Engine eng;
  Resource res(eng, "cpu");
  res.RunDetached(10);
  res.RunDetached(0);
  res.RunDetached(20);
  EXPECT_TRUE(res.held());
  EXPECT_EQ(res.queue_length(), 2u);
  eng.Run();
  EXPECT_EQ(eng.now(), 30);
  EXPECT_EQ(res.busy_time(), 30);
  EXPECT_FALSE(res.held());
  // Release at 10, the zero-cost charge's grant (it releases in the same
  // event), the third charge's grant, and its release at 30.
  EXPECT_EQ(eng.events_executed(), 4u);
}

// --- RunDetached against std::move(Run(cost)).Detach() ---

struct ChargeScriptOutcome {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  SimTime now = 0;
  SimTime busy = 0;
  std::vector<std::pair<int, SimTime>> grants;  // (holder id, grant time)
};

void DetachedCharge(Resource& res, SimTime cost, bool frame_free) {
  if (frame_free) {
    res.RunDetached(cost);
  } else {
    std::move(res.Run(cost)).Detach();
  }
}

Task<void> ScriptHolder(Engine& eng, Resource& res, int id, SimTime hold, SimTime nested,
                        bool frame_free, std::vector<std::pair<int, SimTime>>* grants) {
  co_await res.Acquire();
  grants->emplace_back(id, eng.now());
  if (nested >= 0) {
    DetachedCharge(res, nested, frame_free);  // Queues behind this holder.
  }
  co_await Delay(eng, hold);
  res.Release();
}

// One seeded script on one Resource: coroutine holders (Acquire, Delay,
// Release; some issue a charge while holding) mixed with detached charges of
// random cost, 0 included, many arriving at the same instant. The draws do
// not depend on `frame_free`, so both runs see the same script.
ChargeScriptOutcome RunChargeScript(std::uint64_t seed, bool frame_free) {
  Engine eng;
  Resource res(eng, "cpu");
  ChargeScriptOutcome out;
  SplitMix64 rng(seed);
  SimTime t = 0;
  const int steps = 20 + static_cast<int>(rng.Below(60));
  for (int i = 0; i < steps; ++i) {
    if (rng.Chance(0.6)) {
      t += static_cast<SimTime>(rng.Below(30));  // Otherwise: same instant.
    }
    const SimTime cost = rng.Chance(0.25) ? 0 : static_cast<SimTime>(rng.Range(1, 40));
    if (rng.Chance(0.35)) {
      SimTime nested = -1;
      if (rng.Chance(0.3)) {
        nested = rng.Chance(0.3) ? 0 : static_cast<SimTime>(rng.Range(1, 20));
      }
      eng.ScheduleAt(t, [&eng, &res, &out, i, cost, nested, frame_free] {
        std::move(ScriptHolder(eng, res, i, cost, nested, frame_free, &out.grants)).Detach();
      });
    } else {
      eng.ScheduleAt(t, [&res, cost, frame_free] { DetachedCharge(res, cost, frame_free); });
    }
  }
  eng.Run();
  EXPECT_FALSE(res.held());
  EXPECT_EQ(res.queue_length(), 0u);
  out.digest = eng.event_digest();
  out.events = eng.events_executed();
  out.now = eng.now();
  out.busy = res.busy_time();
  return out;
}

TEST(ResourceTest, RunDetachedSchedulesExactlyTheEventsOfADetachedRun) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(seed);
    const ChargeScriptOutcome task = RunChargeScript(seed, /*frame_free=*/false);
    const ChargeScriptOutcome frame_free = RunChargeScript(seed, /*frame_free=*/true);
    ASSERT_FALSE(task.grants.empty());
    EXPECT_EQ(frame_free.digest, task.digest);
    EXPECT_EQ(frame_free.events, task.events);
    EXPECT_EQ(frame_free.now, task.now);
    EXPECT_EQ(frame_free.busy, task.busy);
    EXPECT_EQ(frame_free.grants, task.grants);
  }
}

}  // namespace
}  // namespace genie
