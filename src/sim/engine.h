// Discrete-event simulation engine.
//
// The engine owns a priority queue of (time, sequence) events and a
// monotonically advancing clock in integer nanoseconds. Events scheduled for
// the same instant run in scheduling order (FIFO), which makes every run of a
// simulation bit-for-bit deterministic.
//
// A queued event is a trivially copyable (time, seq, function pointer,
// context, argument) entry, so heap sifts move 40 plain bytes. A coroutine
// resume carries its handle in the entry itself (ResumeAt/ResumeAfter) and a
// raw call its context pointer and argument (CallAfter); neither stores
// anything else. A std::function callback (ScheduleAt/ScheduleAfter)
// lives in an out-of-line slot table and its entry carries only the slot
// index. All three kinds share one seq counter, so the kind of an event never
// changes the order in which it runs.
#ifndef GENIE_SRC_SIM_ENGINE_H_
#define GENIE_SRC_SIM_ENGINE_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "src/util/rng.h"
#include "src/util/units.h"

namespace genie {

class Engine {
 public:
  using Callback = std::function<void()>;
  // A raw event body: called as fn(ctx, arg).
  using RawFn = void (*)(void* ctx, std::uint64_t arg);

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current simulated time.
  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute time `t` (must be >= now()).
  void ScheduleAt(SimTime t, Callback fn);

  // Schedules `fn` to run `delay` ns from now (delay must be >= 0).
  void ScheduleAfter(SimTime delay, Callback fn);

  // Resumes the suspended coroutine `h` at absolute time `t` / `delay` ns
  // from now. Orders exactly like ScheduleAt(t, [h] { h.resume(); }).
  void ResumeAt(SimTime t, std::coroutine_handle<> h) { Push(t, &ResumeHandle, h.address(), 0); }
  void ResumeAfter(SimTime delay, std::coroutine_handle<> h);

  // Calls fn(ctx, arg) `delay` ns from now: an event with no closure to
  // store, for hot paths (Resource::RunDetached, TimerSet).
  void CallAfter(SimTime delay, RawFn fn, void* ctx, std::uint64_t arg);

  // Runs the earliest pending event. Returns false if none are pending.
  bool Step();

  // Runs until no events remain.
  void Run();

  // Runs events with time <= now() + duration; advances the clock to exactly
  // that bound even if the queue drains earlier. Returns the new time.
  SimTime RunFor(SimTime duration);

  // Runs until `pred` returns true (checked after each event) or the queue
  // drains. Returns true if the predicate was satisfied.
  bool RunUntil(const std::function<bool()>& pred);

  std::size_t pending_events() const { return queue_.size(); }

  // Total number of events executed so far (for tests and diagnostics).
  std::uint64_t events_executed() const { return events_executed_; }

  // Running FNV-1a digest over every executed event's (time, seq) pair. Two
  // runs of the same seeded simulation are bit-for-bit identical exactly when
  // their digests match after the same number of events — the fault-stress
  // harness uses this to prove a failing seed replays the same schedule.
  std::uint64_t event_digest() const { return digest_.value(); }

  // Mints a process-unique flow id (first id is 1; 0 means "no flow"). Flow
  // ids stamp trace events so cross-node spans of one transfer link into a
  // causal graph; minting one schedules nothing and draws no randomness, so
  // it never perturbs the event schedule or digest.
  std::uint64_t NextFlowId() { return ++next_flow_id_; }

  // Probe invoked by Step() once per executed event, after the clock advances
  // and the digest mixes but before the event callback runs. A probe must not
  // schedule events or draw randomness: it exists so observers (the telemetry
  // sampler) can watch the clock cross sampling boundaries without adding
  // queue entries, which would shift every later event's seq and change the
  // digest. Installing over an existing probe is a bug; pass nullptr to clear.
  using Probe = std::function<void(SimTime)>;
  void set_probe(Probe probe);
  bool has_probe() const { return static_cast<bool>(probe_); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    RawFn fn;
    void* ctx;
    std::uint64_t arg;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  void Push(SimTime t, RawFn fn, void* ctx, std::uint64_t arg);
  static void ResumeHandle(void* address, std::uint64_t);
  // Runs and frees the callback in slot `slot` of engine `self`.
  static void RunCallback(void* self, std::uint64_t slot);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_flow_id_ = 0;
  std::uint64_t events_executed_ = 0;
  Probe probe_;
  Fnv1a64 digest_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Out-of-line storage for pending std::function callbacks. A slot is
  // reused once its callback has run; the table grows to the peak number of
  // callbacks pending at once and never shrinks.
  std::vector<Callback> callbacks_;
  std::vector<std::uint64_t> free_slots_;
};

}  // namespace genie

#endif  // GENIE_SRC_SIM_ENGINE_H_
