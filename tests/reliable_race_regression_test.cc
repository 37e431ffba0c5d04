// Regression tests for same-instant resolution races in the reliable layer:
// a give-up verdict (retransmit budget exhausted) or a watchdog cancellation
// landing in the same simulated instant as the final successful ack must be
// accounted as exactly one delivery — never as a give-up AND a completion,
// or a watchdog cancel AND a completion, for the same transfer.
//
// The racing schedules are engineered, not sampled: the kLinkReorder fault
// holds the frame and redelivers it R ns late, so the ack-arrival event is
// inserted into the engine *after* the already-armed retransmit timer. With
// timeout == R + kCtl both events fire in the same instant with the timer
// first — exactly the FIFO interleaving that used to count a transfer as
// both `giveups` and `completed`. The watchdog variant runs end-to-end
// through the endpoint (whose watch callback owns the fix) with a scan
// aligned to the measured ack instant.
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/cost/cost_model.h"
#include "src/genie/reliable.h"
#include "src/net/iovec_io.h"
#include "src/net/switch_link.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"
#include "tests/genie_test_util.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
// One page-frame's wire time at OC-3 (matches the adapter timing tests).
const SimTime kWire = MicrosToSimTime(kPage * 0.0598);
const SimTime kCtl = 5 * kMicrosecond;  // control-cell (ack/credit) latency
const SimTime kHold = 100 * kMicrosecond;  // reorder fault's redelivery delay

// Two adapters wired bidirectionally, as in reliable_backoff_test; the
// receive side mirrors the sender's window so windowed runs use SACK trains.
class RaceRig {
 public:
  RaceRig()
      : cost_(MachineProfile::MicronP166()),
        pm_(128, kPage),
        fwd_(eng_, "fwd", kMaxAal5Payload),
        back_(eng_, "back", kMaxAal5Payload),
        tx_(eng_, pm_, cost_, "tx", Adapter::Config{}),
        rx_(eng_, pm_, cost_, "rx", Adapter::Config{}),
        rel_(eng_, tx_, "tx.xfer") {
    tx_.ConnectTo(&rx_, &fwd_);
    rx_.ConnectTo(&tx_, &back_);
    plan_.set_clock([this] { return eng_.now(); });
    tx_.set_fault_plan(&plan_);
    rel_.set_metrics(&metrics_);
  }

  ~RaceRig() {
    for (const FrameId f : frames_) {
      pm_.Free(f);
    }
  }

  void Configure(ReliableOptions opts) {
    rel_.Configure(opts);
    tx_.set_arq_window(opts.window);
    rx_.set_arq_window(opts.window);
  }

  IoVec MakeBuffer(std::size_t bytes, unsigned char seed) {
    IoVec iov;
    std::size_t remaining = bytes;
    std::size_t produced = 0;
    while (remaining > 0) {
      const FrameId f = pm_.Allocate();
      frames_.push_back(f);
      const std::uint32_t n = static_cast<std::uint32_t>(std::min<std::size_t>(kPage, remaining));
      auto data = pm_.Data(f);
      for (std::uint32_t i = 0; i < n; ++i) {
        data[i] = static_cast<std::byte>((seed + produced + i) & 0xFF);
      }
      iov.segments.push_back(IoSegment{f, 0, n});
      remaining -= n;
      produced += n;
    }
    return iov;
  }

  // Drives one reliable transmission to completion; reports outcome and
  // finish time.
  ReliableDelivery::TxReport Transmit(std::uint64_t channel, const IoVec& iov,
                                      SimTime* done_at = nullptr) {
    std::optional<ReliableDelivery::TxReport> report;
    SimTime done = -1;
    auto drive = [](RaceRig* rig, std::uint64_t ch, IoVec frame,
                    std::optional<ReliableDelivery::TxReport>* out,
                    SimTime* when) -> Task<void> {
      *out = co_await rig->rel_.TransmitReliably(ch, frame, 0, 0, "xfer", nullptr);
      *when = rig->eng_.now();
    };
    std::move(drive(this, channel, iov, &report, &done)).Detach();
    eng_.Run();
    GENIE_CHECK(report.has_value()) << "transmission never completed";
    if (done_at != nullptr) {
      *done_at = done;
    }
    return *report;
  }

  // Holds the next frame on the wire and redelivers it kHold later: the ack
  // event is then inserted long after the retransmit timer, so a timer with
  // timeout == kHold + kCtl fires first in the collision instant.
  void HoldNextFrame() {
    FaultRule rule;
    rule.site = FaultSite::kLinkReorder;
    rule.nth = 1;
    rule.arg = static_cast<std::uint64_t>(kHold);
    plan_.AddRule(rule);
  }

  Engine eng_;
  CostModel cost_;
  PhysicalMemory pm_;
  SwitchLink fwd_;
  SwitchLink back_;
  Adapter tx_;
  Adapter rx_;
  ReliableDelivery rel_;
  MetricsRegistry metrics_;
  FaultPlan plan_{1};
  std::vector<FrameId> frames_;
};

ReliableOptions RaceOptions(std::uint32_t window) {
  ReliableOptions opts;
  opts.arq = true;
  opts.window = window;
  // The only retransmit timer fires exactly when the held frame's ack
  // arrives; with no retries left it renders a give-up verdict in the same
  // instant the ack resolves the transfer.
  opts.initial_timeout = kHold + kCtl;
  opts.max_retransmits = 0;
  opts.jitter_frac = 0.0;
  return opts;
}

TEST(ReliableRaceRegressionTest, WindowOneSackRacingGiveUpCountsOneDelivery) {
  RaceRig rig;
  rig.Configure(RaceOptions(1));
  rig.HoldNextFrame();
  const IoVec src = rig.MakeBuffer(kPage, 9);
  const IoVec dst = rig.MakeBuffer(kPage, 0);
  int completions = 0;
  rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) {
                                                  ++completions;
                                                  EXPECT_EQ(c.seq, 1u);
                                                }});
  SimTime done = -1;
  const auto report = rig.Transmit(1, src, &done);

  // The wire finishes at kWire (timer armed), the held frame lands at
  // kWire + kHold, and its SACK train collides with the give-up timer at
  // kWire + kHold + kCtl — timer event first. The ack must win.
  EXPECT_EQ(done, kWire + kHold + kCtl);
  EXPECT_EQ(report.outcome, ReliableDelivery::TxOutcome::kDelivered);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(completions, 1);
  // Counted once, as a delivery: no give-up, no timeout, no retransmit.
  EXPECT_EQ(rig.rel_.stats().giveups, 0u);
  EXPECT_EQ(rig.rel_.stats().timeouts, 0u);
  EXPECT_EQ(rig.rel_.stats().retransmits, 0u);
  EXPECT_EQ(rig.rel_.stats().acks, 1u);
  EXPECT_EQ(rig.rel_.stats().stale_acks, 0u);
}

TEST(ReliableRaceRegressionTest, WindowedSackRacingGiveUpCountsOneDelivery) {
  RaceRig rig;
  rig.Configure(RaceOptions(4));
  rig.HoldNextFrame();
  const IoVec src = rig.MakeBuffer(kPage, 9);
  const IoVec dst = rig.MakeBuffer(kPage, 0);
  int completions = 0;
  rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) {
                                                  ++completions;
                                                  EXPECT_EQ(c.seq, 1u);
                                                }});
  SimTime done = -1;
  const auto report = rig.Transmit(1, src, &done);

  // Same collision with a wider window: the entry timer (armed at kWire)
  // marks the entry kGiveUp, then the SACK train from the late delivery —
  // same instant, inserted later — overrides it to kAcked before the owning
  // coroutine consumes the verdict.
  EXPECT_EQ(done, kWire + kHold + kCtl);
  EXPECT_EQ(report.outcome, ReliableDelivery::TxOutcome::kDelivered);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(rig.rel_.stats().giveups, 0u);
  EXPECT_EQ(rig.rel_.stats().timeouts, 0u);
  EXPECT_EQ(rig.rel_.stats().retransmits, 0u);
  EXPECT_EQ(rig.rel_.stats().acks, 1u);
  EXPECT_EQ(rig.rel_.stats().stale_acks, 0u);
}

// --- Watchdog cancellation racing the final ack, end to end ---------------
//
// The endpoint's watch callback is the code under test, so these runs go
// through the full two-node rig. A probe run (watchdog off) measures the
// transfer's exact schedule; the race run then aligns a watchdog scan with
// the measured ack instant. Scan events are inserted one period ahead, and
// the ack control cell one control-latency ahead — with the period below
// kCtl the ack is processed first, and the callback must report the already
// resolved transfer as completed, not cancel it.

struct ProbeTiming {
  SimTime watch_at = 0;  // when TransmitAndDispose registers its watch
  SimTime ack_at = 0;    // when the ack resolves the transfer
};

ReliableOptions E2eOptions() {
  ReliableOptions opts;
  opts.arq = true;
  opts.initial_timeout = 50 * kMillisecond;  // never fires
  opts.jitter_frac = 0.0;
  return opts;
}

// One kEmulatedCopy page transfer on a fresh rig; returns the receiver-side
// result. `timing` (optional) is filled from an attached trace.
InputResult RunE2eTransfer(const ReliableOptions& opts, ProbeTiming* timing,
                           Endpoint::Stats* tx_stats, ReliableDelivery::Stats* rel_stats) {
  Rig rig;
  rig.sender.EnableReliableDelivery(opts);
  TraceLog trace;
  if (timing != nullptr) {
    rig.sender.set_trace(&trace);
  }
  constexpr Vaddr kSrc = 0x20000000;
  constexpr Vaddr kDst = 0x30000000;
  rig.tx_app.CreateRegion(kSrc, 4 * kPage, RegionState::kUnmovable);
  rig.rx_app.CreateRegion(kDst, 4 * kPage);
  const auto payload = TestPattern(kPage, 7);
  GENIE_CHECK(rig.tx_app.Write(kSrc, payload) == AccessResult::kOk);
  const InputResult result = rig.Transfer(kSrc, kDst, kPage, Semantics::kEmulatedCopy);
  if (result.ok) {
    const auto got = rig.ReadBack(result.addr, kPage);
    GENIE_CHECK(std::memcmp(got.data(), payload.data(), kPage) == 0) << "payload corrupted";
  }
  if (timing != nullptr) {
    const SimTime hw_fixed = rig.sender.Cost(OpKind::kHardwareFixed, 0);
    for (const TraceLog::Event& e : trace.events()) {
      if (e.name.ends_with(".transmit")) {
        // The watch registers one fixed hardware delay after the transmit
        // span opens (device setup, before the reliable layer is entered).
        timing->watch_at = e.start + hw_fixed;
      } else if (e.name.ends_with(".ack_wait")) {
        timing->ack_at = e.end;
      }
    }
    rig.sender.set_trace(nullptr);
  }
  if (tx_stats != nullptr) {
    *tx_stats = rig.tx_ep.stats();
  }
  if (rel_stats != nullptr) {
    *rel_stats = rig.sender.reliable().stats();
  }
  rig.ExpectQuiescent();
  return result;
}

TEST(ReliableRaceRegressionTest, WatchdogScanRacingFinalAckCompletesOnce) {
  // Probe: measure when the watch registers and when the ack lands.
  ProbeTiming timing;
  const InputResult probe = RunE2eTransfer(E2eOptions(), &timing, nullptr, nullptr);
  ASSERT_TRUE(probe.ok);
  ASSERT_GT(timing.watch_at, 0);
  ASSERT_GT(timing.ack_at, timing.watch_at);
  const SimTime lead = timing.ack_at - timing.watch_at;

  // A scan period below the control-cell latency that divides the lead puts
  // one scan exactly on the ack instant, inserted after the ack event.
  SimTime period = 1;
  for (SimTime p = kCtl - 1; p >= 2; --p) {
    if (lead % p == 0) {
      period = p;
      break;
    }
  }

  // Race run: the deadline expires exactly at the ack instant. The ack is
  // processed first (earlier insertion), so the scan's callback sees a
  // resolved transfer and must return kCompleted — one delivery, no cancel.
  ReliableOptions race = E2eOptions();
  race.watchdog_timeout = lead;
  race.watchdog_period = period;
  Endpoint::Stats tx_stats;
  ReliableDelivery::Stats rel_stats;
  const InputResult result = RunE2eTransfer(race, nullptr, &tx_stats, &rel_stats);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, kPage);
  EXPECT_EQ(tx_stats.watchdog_cancels, 0u);
  EXPECT_EQ(tx_stats.failed_outputs, 0u);
  EXPECT_EQ(rel_stats.watchdog_cancels, 0u);
  EXPECT_EQ(rel_stats.giveups, 0u);
  EXPECT_EQ(rel_stats.acks, 1u);
  // The scan chain ran from the watch to the ack instant and then stopped —
  // evidence that the final scan really landed on the collision instant.
  EXPECT_EQ(rel_stats.watchdog_scans, static_cast<std::uint64_t>(lead / period));

  // Control run: one period earlier the same schedule is a genuine cancel
  // (the ack has not arrived yet), which pins the probe's timing model: if
  // the measured watch/ack instants drifted, this run would not cancel.
  ReliableOptions cancel = E2eOptions();
  cancel.watchdog_timeout = lead - period;
  cancel.watchdog_period = period;
  const InputResult cancelled = RunE2eTransfer(cancel, nullptr, &tx_stats, &rel_stats);
  // The frame itself arrived before the cancel; only the sender's bookkeeping
  // is cancelled, and the late ack is counted stale.
  EXPECT_TRUE(cancelled.ok);
  EXPECT_EQ(tx_stats.watchdog_cancels, 1u);
  EXPECT_EQ(tx_stats.failed_outputs, 1u);
  EXPECT_EQ(rel_stats.watchdog_cancels, 1u);
  EXPECT_EQ(rel_stats.giveups, 0u);
  EXPECT_EQ(rel_stats.stale_acks, 1u);
}

}  // namespace
}  // namespace genie
