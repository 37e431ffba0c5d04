#include "src/sim/engine.h"

#include <coroutine>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/awaitable.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"
#include "src/sim/timer.h"

namespace genie {
namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(EngineTest, StepOnEmptyQueueReturnsFalse) {
  Engine eng;
  EXPECT_FALSE(eng.Step());
}

TEST(EngineTest, EventsRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.ScheduleAt(30, [&] { order.push_back(3); });
  eng.ScheduleAt(10, [&] { order.push_back(1); });
  eng.ScheduleAt(20, [&] { order.push_back(2); });
  eng.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(EngineTest, SimultaneousEventsRunFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  eng.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, ScheduleAfterUsesCurrentTime) {
  Engine eng;
  SimTime observed = -1;
  eng.ScheduleAt(50, [&] { eng.ScheduleAfter(25, [&] { observed = eng.now(); }); });
  eng.Run();
  EXPECT_EQ(observed, 75);
}

TEST(EngineTest, EventsScheduledDuringRunAreExecuted) {
  Engine eng;
  int count = 0;
  eng.ScheduleAt(1, [&] {
    ++count;
    eng.ScheduleAfter(1, [&] { ++count; });
  });
  eng.Run();
  EXPECT_EQ(count, 2);
}

TEST(EngineTest, RunForStopsAtDeadline) {
  Engine eng;
  int count = 0;
  eng.ScheduleAt(10, [&] { ++count; });
  eng.ScheduleAt(20, [&] { ++count; });
  eng.ScheduleAt(30, [&] { ++count; });
  eng.RunFor(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(eng.now(), 20);
  eng.Run();
  EXPECT_EQ(count, 3);
}

TEST(EngineTest, RunForAdvancesClockEvenWithoutEvents) {
  Engine eng;
  eng.RunFor(1000);
  EXPECT_EQ(eng.now(), 1000);
}

TEST(EngineTest, RunUntilPredicate) {
  Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.ScheduleAt(i, [&] { ++count; });
  }
  EXPECT_TRUE(eng.RunUntil([&] { return count == 4; }));
  EXPECT_EQ(count, 4);
  EXPECT_EQ(eng.now(), 4);
}

TEST(EngineTest, RunUntilReturnsFalseIfQueueDrains) {
  Engine eng;
  eng.ScheduleAt(1, [] {});
  EXPECT_FALSE(eng.RunUntil([] { return false; }));
}

TEST(EngineTest, EventsExecutedCounter) {
  Engine eng;
  eng.ScheduleAt(1, [] {});
  eng.ScheduleAt(2, [] {});
  eng.Run();
  EXPECT_EQ(eng.events_executed(), 2u);
}

TEST(EngineDeathTest, SchedulingInThePastAborts) {
  Engine eng;
  eng.ScheduleAt(100, [] {});
  eng.Run();
  EXPECT_DEATH(eng.ScheduleAt(50, [] {}), "cannot schedule in the past");
}

// Suspends and hands its handle to the test, which resumes it through the
// engine; records `id` when resumed.
struct Park {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { *slot = h; }
  void await_resume() const noexcept {}
};

Task<void> ParkThenRecord(std::coroutine_handle<>* slot, std::vector<int>* order, int id) {
  co_await Park{slot};
  order->push_back(id);
}

TEST(EngineTest, SameInstantCallbacksResumesAndCallsRunInSchedulingOrder) {
  Engine eng;
  std::vector<int> order;
  std::vector<std::coroutine_handle<>> handles(4);
  for (int i = 0; i < 4; ++i) {
    std::move(ParkThenRecord(&handles[static_cast<std::size_t>(i)], &order, 100 + i)).Detach();
  }
  const Engine::RawFn record = [](void* v, std::uint64_t arg) {
    static_cast<std::vector<int>*>(v)->push_back(static_cast<int>(arg));
  };
  // Interleave the three event kinds at one instant.
  eng.ScheduleAt(50, [&] { order.push_back(0); });
  eng.ResumeAt(50, handles[0]);
  eng.CallAfter(50, record, &order, 200);
  eng.ResumeAt(50, handles[1]);
  eng.ScheduleAt(50, [&] { order.push_back(1); });
  eng.CallAfter(50, record, &order, 201);
  eng.ResumeAt(50, handles[2]);
  eng.ScheduleAt(50, [&] { order.push_back(2); });
  eng.ScheduleAt(40, [&] {
    // Scheduled during the run for the same instant: queued behind all of
    // the above.
    eng.ResumeAfter(10, handles[3]);
    eng.CallAfter(10, record, &order, 202);
    eng.ScheduleAfter(10, [&] { order.push_back(3); });
  });
  eng.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 100, 200, 101, 1, 201, 102, 2, 103, 202, 3}));
  EXPECT_EQ(eng.now(), 50);
  EXPECT_EQ(eng.events_executed(), 12u);
}

TEST(EngineTest, CallbackSchedulingTenThousandMoreRunsThemAllInOrder) {
  Engine eng;
  constexpr int kMore = 10000;
  std::vector<int> order;
  auto token = std::make_shared<int>(0);
  // Two references (16 bytes, trivially copyable): stored inside the
  // std::function itself, so if the callback ran from the slot table, the
  // table's growth below would free the captures under it (ASan flags this).
  eng.ScheduleAt(1, [&eng, &order] {
    for (int i = 0; i < kMore; ++i) {
      eng.ScheduleAt(2, [&order, i] { order.push_back(i); });
    }
    order.push_back(-1);
  });
  eng.ScheduleAt(3, [token] { *token = 1; });
  eng.Run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kMore) + 1);
  EXPECT_EQ(order.front(), -1);
  for (int i = 0; i < kMore; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i) + 1], i);
  }
  EXPECT_EQ(eng.events_executed(), static_cast<std::uint64_t>(kMore) + 2);
  // A callback's captures die once it has run, not when its slot is reused.
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

// A fixed script mixing every event kind: callbacks, coroutine resumes
// (Delay, SimEvent, the Resource hand-off, a direct ResumeAt), raw calls
// (TimerSet) and detached resource charges, many at one instant.
struct MixedScript {
  Engine eng;
  Resource cpu{eng, "cpu"};
  SimEvent ready{eng};
  TimerSet timers{eng};
  std::vector<int> log;
};

Task<void> MixedWorker(MixedScript& s, int id, SimTime work) {
  co_await s.ready.Wait();
  co_await s.cpu.Acquire();
  s.log.push_back(id);
  s.cpu.RunDetached(work / 2);  // Queues behind this holder.
  co_await Delay(s.eng, work);
  s.cpu.Release();
  co_await s.cpu.Run(work % 7);
  s.log.push_back(100 + id);
}

TEST(EngineTest, MixedScriptDigestMatchesPinnedSchedule) {
  MixedScript s;
  for (int i = 0; i < 8; ++i) {
    std::move(MixedWorker(s, i, 10 * (i % 3))).Detach();
  }
  std::coroutine_handle<> parked;
  std::move(ParkThenRecord(&parked, &s.log, 900)).Detach();
  s.eng.ScheduleAt(5, [&s] { s.ready.Set(); });
  for (int k = 0; k < 6; ++k) {
    s.eng.ScheduleAt(5, [&s, k] { s.cpu.RunDetached((k % 3) * 4); });
  }
  s.timers.ScheduleAfter(7, [&s] { s.log.push_back(700); });
  const TimerSet::Handle cancelled = s.timers.ScheduleAfter(12, [&s] { s.log.push_back(701); });
  s.timers.ScheduleAfter(12, [&s] { s.log.push_back(702); });
  s.eng.ScheduleAt(6, [&s, cancelled] { s.timers.Cancel(cancelled); });
  s.eng.ResumeAt(12, parked);
  s.eng.Run();
  // Pinned from the same script written with `[h] { h.resume(); }` callbacks
  // and std::move(Run(c)).Detach(): the event representation and
  // RunDetached leave every (time, seq) pair, and so the digest, unchanged.
  EXPECT_EQ(s.eng.event_digest(), 0xcbd35ba6532890bbull);
  EXPECT_EQ(s.eng.events_executed(), 67u);
  EXPECT_EQ(s.eng.now(), 155);
  EXPECT_EQ(s.log, (std::vector<int>{700, 702, 900, 0, 1, 2, 3, 4, 5, 6, 7, 100, 101, 102, 103,
                                      104, 105, 106, 107}));
  EXPECT_EQ(s.cpu.busy_time(), 150);
  EXPECT_FALSE(s.cpu.held());
}

}  // namespace
}  // namespace genie
