// Selective-repeat windowed ARQ tests: pipelined delivery, admission stalls
// when the window fills, per-entry retransmit timers under loss, nack fast
// retransmit, bounded give-up, out-of-order SACK resolution, cancellation
// under a partially-acked window, and schedule determinism. The rig mirrors
// reliable_backoff_test's: two adapters wired bidirectionally, the receive
// side configured for the same window as the sender.
#include "src/genie/reliable.h"

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/cost/cost_model.h"
#include "src/net/iovec_io.h"
#include "src/net/switch_link.h"
#include "src/sim/engine.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
// One page-frame's wire time at OC-3 (matches the adapter timing tests).
const SimTime kWire = MicrosToSimTime(kPage * 0.0598);
const SimTime kCtl = 5 * kMicrosecond;  // control-cell (ack/credit) latency

class WindowRig {
 public:
  WindowRig()
      : cost_(MachineProfile::MicronP166()),
        pm_(192, kPage),
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

  ~WindowRig() {
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

  // Launches `count` concurrent reliable transmissions on `channel` (each
  // into its own pre-posted receive buffer) and runs the engine dry.
  // Returns the reports in launch order.
  std::vector<ReliableDelivery::TxReport> TransmitBurst(std::uint64_t channel, int count,
                                                        std::vector<std::uint64_t>* rx_seqs) {
    std::vector<std::optional<ReliableDelivery::TxReport>> reports(count);
    const IoVec src = MakeBuffer(kPage, 9);
    for (int i = 0; i < count; ++i) {
      const IoVec dst = MakeBuffer(kPage, 0);
      rx_.PostReceive(channel, Adapter::PostedReceive{dst, [rx_seqs](const RxCompletion& c) {
                                                       if (rx_seqs != nullptr) {
                                                         rx_seqs->push_back(c.seq);
                                                       }
                                                     }});
    }
    auto drive = [](WindowRig* rig, std::uint64_t ch, IoVec frame,
                    std::optional<ReliableDelivery::TxReport>* out) -> Task<void> {
      *out = co_await rig->rel_.TransmitReliably(ch, frame, 0, 0, "xfer", nullptr);
      rig->last_done_ = std::max(rig->last_done_, rig->eng_.now());
    };
    for (int i = 0; i < count; ++i) {
      std::move(drive(this, channel, src, &reports[i])).Detach();
    }
    eng_.Run();
    std::vector<ReliableDelivery::TxReport> out;
    for (auto& r : reports) {
      GENIE_CHECK(r.has_value()) << "transmission never completed";
      out.push_back(*r);
    }
    return out;
  }

  Engine eng_;
  // Wall-clock of the last transmission's completion. Timing assertions use
  // this, not eng_.now() after Run(): cancelled retransmit timers still pop
  // as no-op engine events (see TimerSet), so quiescence time trails the
  // last armed timeout rather than the last useful event.
  SimTime last_done_ = 0;
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

ReliableOptions WindowedNoJitter(std::uint32_t window) {
  ReliableOptions opts;
  opts.arq = true;
  opts.window = window;
  opts.initial_timeout = 1 * kMillisecond;
  opts.max_timeout = 8 * kMillisecond;
  opts.backoff_factor = 2.0;
  opts.jitter_frac = 0.0;
  opts.nack_delay = 100 * kMicrosecond;
  return opts;
}

void AddDropRule(FaultPlan& plan, std::uint64_t nth) {
  FaultRule rule;
  rule.site = FaultSite::kLinkDrop;
  rule.nth = nth;
  plan.AddRule(rule);
}

TEST(ReliableWindowTest, PipelinesFramesBackToBack) {
  WindowRig rig;
  rig.Configure(WindowedNoJitter(8));
  std::vector<std::uint64_t> rx_seqs;
  const auto reports = rig.TransmitBurst(1, 4, &rx_seqs);
  for (const auto& r : reports) {
    EXPECT_EQ(r.outcome, ReliableDelivery::TxOutcome::kDelivered);
    EXPECT_EQ(r.attempts, 1u);
  }
  EXPECT_EQ(rx_seqs, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(rig.rel_.stats().retransmits, 0u);
  EXPECT_EQ(rig.rel_.stats().giveups, 0u);
  // Pipelined: all four frames clock out back to back, and the last SACK
  // flush lands one control-cell latency after the last frame. A window of
  // one would have taken 4 * (kWire + kCtl).
  EXPECT_LE(rig.last_done_, 4 * kWire + 2 * kCtl);
  // Every resolution came from a SACK train (page frames are wider than the
  // 5 us accumulation window, so here each accept gets its own flush; the
  // batching win for short frames is covered in net_adapter_test).
  EXPECT_LE(rig.rx_.sack_flushes(), 4u);
  EXPECT_GE(rig.rel_.stats().acks, 4u);
}

TEST(ReliableWindowTest, AdmissionStallsWhenWindowFull) {
  WindowRig rig;
  rig.Configure(WindowedNoJitter(2));
  std::vector<std::uint64_t> rx_seqs;
  const auto reports = rig.TransmitBurst(1, 5, &rx_seqs);
  for (const auto& r : reports) {
    EXPECT_EQ(r.outcome, ReliableDelivery::TxOutcome::kDelivered);
  }
  // Exactly once, in order (the wire is clean and the link is FIFO).
  EXPECT_EQ(rx_seqs, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(rig.rel_.stats().sequenced_frames, 5u);
  // With a window of 2 the fifth frame cannot leave before the third's ack:
  // the total run is longer than the fully-pipelined case but far shorter
  // than a window of one.
  EXPECT_GT(rig.last_done_, 5 * kWire);
  EXPECT_LT(rig.last_done_, 5 * (kWire + 2 * kCtl));
}

TEST(ReliableWindowTest, LostFrameResolvedSelectively) {
  WindowRig rig;
  rig.Configure(WindowedNoJitter(8));
  AddDropRule(rig.plan_, 2);  // second frame vanishes on the wire
  std::vector<std::uint64_t> rx_seqs;
  const auto reports = rig.TransmitBurst(1, 4, &rx_seqs);
  for (const auto& r : reports) {
    EXPECT_EQ(r.outcome, ReliableDelivery::TxOutcome::kDelivered);
  }
  // Frames 1, 3, 4 deliver on the first attempt and are acked out of order
  // past the hole; only frame 2 is retransmitted, on its own timer.
  EXPECT_EQ(reports[0].attempts, 1u);
  EXPECT_EQ(reports[1].attempts, 2u);
  EXPECT_EQ(reports[2].attempts, 1u);
  EXPECT_EQ(reports[3].attempts, 1u);
  EXPECT_EQ(rig.rel_.stats().retransmits, 1u);
  EXPECT_EQ(rig.rel_.stats().timeouts, 1u);
  EXPECT_EQ(rig.rel_.stats().giveups, 0u);
  ASSERT_EQ(rx_seqs.size(), 4u);
  EXPECT_EQ(rx_seqs, (std::vector<std::uint64_t>{1, 3, 4, 2}));
  // The retransmission waited out the initial timeout, so the run finishes
  // shortly after it: timeout + retransmitted wire + ack train.
  EXPECT_GT(rig.last_done_, 1 * kMillisecond);
  EXPECT_LT(rig.last_done_, 2 * kMillisecond);
}

TEST(ReliableWindowTest, CorruptedFrameNackFastRetransmit) {
  WindowRig rig;
  rig.Configure(WindowedNoJitter(4));
  FaultRule rule;
  rule.site = FaultSite::kDeviceError;
  rule.nth = 2;
  rig.plan_.AddRule(rule);
  std::vector<std::uint64_t> rx_seqs;
  const auto reports = rig.TransmitBurst(1, 3, &rx_seqs);
  for (const auto& r : reports) {
    EXPECT_EQ(r.outcome, ReliableDelivery::TxOutcome::kDelivered);
  }
  EXPECT_EQ(reports[1].attempts, 2u);
  EXPECT_EQ(rig.rel_.stats().nacks, 1u);
  EXPECT_EQ(rig.rel_.stats().retransmits, 1u);
  EXPECT_EQ(rig.rel_.stats().timeouts, 0u);  // the nack beat the timer
  // Nack fast path: finished long before the 1 ms retransmit timeout.
  EXPECT_LT(rig.last_done_, 1 * kMillisecond);
  ASSERT_EQ(rx_seqs.size(), 3u);
}

TEST(ReliableWindowTest, GivesUpPerEntryAfterMaxRetransmits) {
  WindowRig rig;
  ReliableOptions opts = WindowedNoJitter(4);
  opts.max_retransmits = 2;
  rig.Configure(opts);
  // Frame 2 is dropped on every attempt (original + both retries); the rest
  // of the window is untouched and delivers normally.
  AddDropRule(rig.plan_, 2);
  AddDropRule(rig.plan_, 4);
  AddDropRule(rig.plan_, 5);
  std::vector<std::uint64_t> rx_seqs;
  const auto reports = rig.TransmitBurst(1, 3, &rx_seqs);
  EXPECT_EQ(reports[0].outcome, ReliableDelivery::TxOutcome::kDelivered);
  EXPECT_EQ(reports[1].outcome, ReliableDelivery::TxOutcome::kGiveUp);
  EXPECT_EQ(reports[1].attempts, 3u);  // original + 2 retries
  EXPECT_EQ(reports[2].outcome, ReliableDelivery::TxOutcome::kDelivered);
  EXPECT_EQ(rig.rel_.stats().giveups, 1u);
  EXPECT_EQ(rx_seqs, (std::vector<std::uint64_t>{1, 3}));
}

TEST(ReliableWindowTest, WindowedScheduleIsDeterministic) {
  auto run = [](std::uint64_t* digest) {
    WindowRig rig;
    ReliableOptions opts = WindowedNoJitter(8);
    opts.jitter_frac = 0.25;
    opts.seed = 7;
    rig.Configure(opts);
    FaultRule rule;
    rule.site = FaultSite::kLinkDrop;
    rule.probability = 0.3;
    rig.plan_.AddRule(rule);
    std::vector<std::uint64_t> rx_seqs;
    const auto reports = rig.TransmitBurst(1, 6, &rx_seqs);
    for (const auto& r : reports) {
      EXPECT_EQ(r.outcome, ReliableDelivery::TxOutcome::kDelivered);
    }
    EXPECT_EQ(rx_seqs.size(), 6u);
    *digest = rig.eng_.event_digest();
    return rig.rel_.stats();
  };
  std::uint64_t digest_a = 0;
  std::uint64_t digest_b = 0;
  const auto stats_a = run(&digest_a);
  const auto stats_b = run(&digest_b);
  EXPECT_EQ(digest_a, digest_b);
  EXPECT_EQ(stats_a.retransmits, stats_b.retransmits);
  EXPECT_EQ(stats_a.acks, stats_b.acks);
}

TEST(ReliableWindowTest, CancellationUnderPartiallyAckedWindow) {
  WindowRig rig;
  rig.Configure(WindowedNoJitter(4));
  // Frame 2 is lost on the wire; we cancel it via its token before its
  // retransmit timer (1 ms) fires, exercising the unwind path while the
  // window is partially acked (frames 1 and 3 resolved around it).
  AddDropRule(rig.plan_, 2);
  const IoVec src = rig.MakeBuffer(kPage, 3);
  for (int i = 0; i < 3; ++i) {
    const IoVec dst = rig.MakeBuffer(kPage, 0);
    rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, nullptr});
  }
  auto token = std::make_shared<ReliableDelivery::CancelToken>();
  std::vector<std::optional<ReliableDelivery::TxReport>> reports(3);
  auto drive = [](WindowRig* rig_ptr, IoVec frame,
                  std::shared_ptr<ReliableDelivery::CancelToken> tok,
                  std::optional<ReliableDelivery::TxReport>* out) -> Task<void> {
    *out = co_await rig_ptr->rel_.TransmitReliably(1, frame, 0, 0, "xfer", std::move(tok));
  };
  std::move(drive(&rig, src, nullptr, &reports[0])).Detach();
  std::move(drive(&rig, src, token, &reports[1])).Detach();
  std::move(drive(&rig, src, nullptr, &reports[2])).Detach();
  // Cancel the stuck transfer at 0.5 ms — frames 1 and 3 are long since
  // acked, frame 2's first retransmit timer (1 ms) has not fired yet.
  rig.eng_.ScheduleAfter(500 * kMicrosecond, [&] {
    token->cancelled = true;
    if (token->ctl != nullptr) {
      rig.tx_.AbortCreditWait(1, token->ctl);
    }
    if (token->wake != nullptr) {
      token->wake->Set();
    }
  });
  rig.eng_.Run();
  ASSERT_TRUE(reports[0].has_value());
  ASSERT_TRUE(reports[1].has_value());
  ASSERT_TRUE(reports[2].has_value());
  EXPECT_EQ(reports[0]->outcome, ReliableDelivery::TxOutcome::kDelivered);
  EXPECT_EQ(reports[1]->outcome, ReliableDelivery::TxOutcome::kCancelled);
  EXPECT_EQ(reports[2]->outcome, ReliableDelivery::TxOutcome::kDelivered);
  EXPECT_EQ(rig.rel_.stats().cancelled_transmits, 1u);
  EXPECT_EQ(rig.rel_.stats().giveups, 0u);
  // The engine went quiescent: no timer left armed for the cancelled entry.
  EXPECT_LT(rig.eng_.now(), 2 * kMillisecond);
}

TEST(ReliableWindowTest, WindowOneScheduleIsDeterministic) {
  // window=1 is a selective-repeat window of one frame per channel: the
  // same seed replays the identical event schedule under loss.
  auto run = [](std::uint32_t window, std::uint64_t* digest) {
    WindowRig rig;
    ReliableOptions opts;
    opts.arq = true;
    opts.window = window;
    opts.initial_timeout = 1 * kMillisecond;
    opts.jitter_frac = 0.25;
    opts.seed = 11;
    rig.Configure(opts);
    FaultRule rule;
    rule.site = FaultSite::kLinkDrop;
    rule.probability = 0.4;
    rig.plan_.AddRule(rule);
    std::vector<std::uint64_t> rx_seqs;
    const auto reports = rig.TransmitBurst(1, 3, &rx_seqs);
    for (const auto& r : reports) {
      EXPECT_EQ(r.outcome, ReliableDelivery::TxOutcome::kDelivered);
    }
    *digest = rig.eng_.event_digest();
  };
  std::uint64_t w1_a = 0;
  std::uint64_t w1_b = 0;
  run(1, &w1_a);
  run(1, &w1_b);
  EXPECT_EQ(w1_a, w1_b);
}

}  // namespace
}  // namespace genie
