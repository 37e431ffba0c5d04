// ReliableDelivery unit tests: deterministic retransmit schedules (timeout,
// exponential backoff, cap, jitter), nack fast-retransmit, bounded give-up,
// and the transfer watchdog's verdict protocol. Two adapters are wired
// bidirectionally (the reverse link carries ack/nack control cells); all
// timings below are exact because the simulation is bit-for-bit
// deterministic and jitter is either disabled or drawn from a fixed seed.
#include "src/genie/reliable.h"

#include <cstring>
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

class ReliableRig {
 public:
  ReliableRig()
      : cost_(MachineProfile::MicronP166()),
        pm_(128, kPage),
        fwd_(eng_, "fwd", kMaxAal5Payload),
        back_(eng_, "back", kMaxAal5Payload),
        tx_(eng_, pm_, cost_, "tx", Adapter::Config{}),
        rx_(eng_, pm_, cost_, "rx", RxConfig()),
        rel_(eng_, tx_, "tx.xfer") {
    tx_.ConnectTo(&rx_, &fwd_);
    rx_.ConnectTo(&tx_, &back_);
    plan_.set_clock([this] { return eng_.now(); });
    tx_.set_fault_plan(&plan_);
    rel_.set_metrics(&metrics_);
  }

  ~ReliableRig() {
    for (const FrameId f : frames_) {
      pm_.Free(f);
    }
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

  // Drives one reliable transmission to completion and reports outcome and
  // finish time.
  ReliableDelivery::TxReport Transmit(std::uint64_t channel, const IoVec& iov,
                                      SimTime* done_at = nullptr) {
    std::optional<ReliableDelivery::TxReport> report;
    SimTime done = -1;
    auto drive = [](ReliableRig* rig, std::uint64_t ch, IoVec frame,
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

  static Adapter::Config RxConfig() {
    Adapter::Config cfg;
    cfg.rx_buffering = InputBuffering::kEarlyDemux;
    return cfg;
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

ReliableOptions ArqNoJitter() {
  ReliableOptions opts;
  opts.arq = true;
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

TEST(ReliableBackoffTest, CleanWireDeliversFirstAttempt) {
  ReliableRig rig;
  rig.rel_.Configure(ArqNoJitter());
  const IoVec src = rig.MakeBuffer(kPage, 9);
  const IoVec dst = rig.MakeBuffer(kPage, 0);
  std::optional<RxCompletion> completion;
  rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) {
                                                  completion = c;
                                                }});
  SimTime done = -1;
  const auto report = rig.Transmit(1, src, &done);
  EXPECT_EQ(report.outcome, ReliableDelivery::TxOutcome::kDelivered);
  EXPECT_EQ(report.attempts, 1u);
  // Frame on the wire, then the ack control cell back; no timer ever fires.
  EXPECT_EQ(done, kWire + kCtl);
  EXPECT_EQ(rig.rel_.stats().sequenced_frames, 1u);
  EXPECT_EQ(rig.rel_.stats().retransmits, 0u);
  EXPECT_EQ(rig.rel_.stats().timeouts, 0u);
  EXPECT_EQ(rig.rel_.stats().acks, 1u);
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->seq, 1u);

  // The ack-RTT histogram saw exactly the one control-cell round trip; a
  // single-sample histogram reports the sample itself at every quantile.
  const LatencyHistogram& rtt = rig.metrics_.Histogram("reliable.ack_rtt_us");
  EXPECT_EQ(rtt.count(), 1u);
  EXPECT_DOUBLE_EQ(rtt.Quantile(50), SimTimeToMicros(kCtl));
  EXPECT_DOUBLE_EQ(rtt.Quantile(99), SimTimeToMicros(kCtl));
  EXPECT_EQ(rig.metrics_.Histogram("reliable.retransmit_delay_us").count(), 0u);

  std::vector<std::byte> sent(kPage);
  std::vector<std::byte> got(kPage);
  ReadFromIoVec(rig.pm_, src, 0, sent);
  ReadFromIoVec(rig.pm_, dst, 0, got);
  EXPECT_EQ(std::memcmp(sent.data(), got.data(), sent.size()), 0);
}

TEST(ReliableBackoffTest, TimeoutScheduleBacksOffExponentially) {
  ReliableRig rig;
  rig.rel_.Configure(ArqNoJitter());
  AddDropRule(rig.plan_, 1);
  AddDropRule(rig.plan_, 2);
  const IoVec src = rig.MakeBuffer(kPage, 3);
  const IoVec dst = rig.MakeBuffer(kPage, 0);
  int completions = 0;
  rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion&) { ++completions; }});

  SimTime done = -1;
  const auto report = rig.Transmit(1, src, &done);
  EXPECT_EQ(report.outcome, ReliableDelivery::TxOutcome::kDelivered);
  EXPECT_EQ(report.attempts, 3u);
  EXPECT_EQ(rig.rel_.stats().retransmits, 2u);
  EXPECT_EQ(rig.rel_.stats().timeouts, 2u);
  EXPECT_EQ(rig.tx_.link_frames_dropped(), 2u);
  EXPECT_EQ(completions, 1);
  // Attempt 1 dropped -> wait 1 ms; attempt 2 dropped -> wait 2 ms (doubled);
  // attempt 3 lands and is acked one control-cell latency later.
  EXPECT_EQ(done, 3 * kWire + 1 * kMillisecond + 2 * kMillisecond + kCtl);

  // Each timeout recorded its full backoff delay; quantiles resolve to the
  // log-bucket boundary, clamped to the observed [1 ms, 2 ms] range.
  const LatencyHistogram& delay = rig.metrics_.Histogram("reliable.retransmit_delay_us");
  EXPECT_EQ(delay.count(), 2u);
  EXPECT_DOUBLE_EQ(delay.min(), 1000.0);
  EXPECT_DOUBLE_EQ(delay.max(), 2000.0);
  EXPECT_GE(delay.Quantile(50), 1000.0);
  EXPECT_LE(delay.Quantile(50), 1200.0);
  EXPECT_DOUBLE_EQ(delay.Quantile(99), 2000.0);
  EXPECT_EQ(rig.metrics_.Histogram("reliable.ack_rtt_us").count(), 1u);
}

TEST(ReliableBackoffTest, BackoffCapsAtMaxTimeout) {
  ReliableRig rig;
  ReliableOptions opts = ArqNoJitter();
  opts.backoff_factor = 4.0;
  opts.max_timeout = 2 * kMillisecond;
  rig.rel_.Configure(opts);
  AddDropRule(rig.plan_, 1);
  AddDropRule(rig.plan_, 2);
  AddDropRule(rig.plan_, 3);
  const IoVec src = rig.MakeBuffer(kPage, 3);
  const IoVec dst = rig.MakeBuffer(kPage, 0);
  rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, nullptr});

  SimTime done = -1;
  const auto report = rig.Transmit(1, src, &done);
  EXPECT_EQ(report.outcome, ReliableDelivery::TxOutcome::kDelivered);
  EXPECT_EQ(report.attempts, 4u);
  // 1 ms, then min(4 ms, cap) = 2 ms, then 2 ms again: the cap holds.
  EXPECT_EQ(done, 4 * kWire + (1 + 2 + 2) * kMillisecond + kCtl);
}

TEST(ReliableBackoffTest, JitterStretchesTimeoutsDeterministically) {
  auto run = [](double jitter) {
    ReliableRig rig;
    ReliableOptions opts = ArqNoJitter();
    opts.jitter_frac = jitter;
    opts.seed = 42;
    rig.rel_.Configure(opts);
    AddDropRule(rig.plan_, 1);
    const IoVec src = rig.MakeBuffer(kPage, 3);
    const IoVec dst = rig.MakeBuffer(kPage, 0);
    rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, nullptr});
    SimTime done = -1;
    rig.Transmit(1, src, &done);
    return done;
  };
  const SimTime base = run(0.0);
  const SimTime jittered_a = run(0.5);
  const SimTime jittered_b = run(0.5);
  // Same seed, same stretch — and never more than jitter_frac of the timeout.
  EXPECT_EQ(jittered_a, jittered_b);
  EXPECT_GE(jittered_a, base);
  EXPECT_LT(jittered_a, base + kMillisecond / 2);
}

TEST(ReliableBackoffTest, NackTriggersFastRetransmit) {
  ReliableRig rig;
  rig.rel_.Configure(ArqNoJitter());
  FaultRule rule;
  rule.site = FaultSite::kDeviceError;
  rule.nth = 1;
  rig.plan_.AddRule(rule);
  const IoVec src = rig.MakeBuffer(kPage, 5);
  const IoVec dst = rig.MakeBuffer(kPage, 0);
  std::optional<RxCompletion> completion;
  rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) {
                                                  completion = c;
                                                }});

  SimTime done = -1;
  const auto report = rig.Transmit(1, src, &done);
  EXPECT_EQ(report.outcome, ReliableDelivery::TxOutcome::kDelivered);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(rig.rel_.stats().nacks, 1u);
  EXPECT_EQ(rig.rel_.stats().retransmits, 1u);
  EXPECT_EQ(rig.rel_.stats().timeouts, 0u);  // nack beat the timer
  // Corrupted frame arrives at kWire, nack lands kCtl later, retransmit goes
  // out after nack_delay — far sooner than the 1 ms timeout.
  EXPECT_EQ(done, 2 * kWire + 2 * kCtl + 100 * kMicrosecond);
  ASSERT_TRUE(completion.has_value());
  EXPECT_TRUE(completion->crc_ok);
}

TEST(ReliableBackoffTest, GivesUpAfterMaxRetransmits) {
  ReliableRig rig;
  ReliableOptions opts = ArqNoJitter();
  opts.max_retransmits = 2;
  rig.rel_.Configure(opts);
  FaultRule rule;
  rule.site = FaultSite::kLinkDrop;
  rule.probability = 1.0;  // black-hole wire
  rig.plan_.AddRule(rule);
  const IoVec src = rig.MakeBuffer(kPage, 5);
  const IoVec dst = rig.MakeBuffer(kPage, 0);
  int completions = 0;
  rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion&) { ++completions; }});

  const auto report = rig.Transmit(1, src);
  EXPECT_EQ(report.outcome, ReliableDelivery::TxOutcome::kGiveUp);
  EXPECT_EQ(report.attempts, 3u);  // original + 2 retries
  EXPECT_EQ(rig.rel_.stats().giveups, 1u);
  EXPECT_EQ(rig.rel_.stats().retransmits, 2u);
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(rig.rx_.posted_receives(1), 1u);  // buffer untouched
}

TEST(ReliableBackoffTest, SequenceNumbersAdvancePerChannel) {
  ReliableRig rig;
  rig.rel_.Configure(ArqNoJitter());
  const IoVec src = rig.MakeBuffer(kPage, 1);
  const IoVec dst = rig.MakeBuffer(kPage, 0);
  std::vector<std::uint64_t> seqs;
  auto note = [&](const RxCompletion& c) { seqs.push_back(c.seq); };
  for (int i = 0; i < 3; ++i) {
    rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, note});
    rig.Transmit(1, src);
  }
  // A second channel starts its own sequence space at 1.
  rig.rx_.PostReceive(2, Adapter::PostedReceive{dst, note});
  rig.Transmit(2, src);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3, 1}));
  EXPECT_EQ(rig.rel_.stats().sequenced_frames, 4u);
  EXPECT_EQ(rig.rel_.stats().retransmits, 0u);
}

TEST(ReliableBackoffTest, SameSeedReplaysIdenticalSchedule) {
  auto run = [](std::uint64_t* digest) {
    ReliableRig rig;
    ReliableOptions opts = ArqNoJitter();
    opts.jitter_frac = 0.25;
    opts.seed = 7;
    rig.rel_.Configure(opts);
    FaultRule rule;
    rule.site = FaultSite::kLinkDrop;
    rule.probability = 0.4;
    rig.plan_.AddRule(rule);
    const IoVec src = rig.MakeBuffer(kPage, 1);
    const IoVec dst = rig.MakeBuffer(kPage, 0);
    ReliableDelivery::Stats totals;
    for (int i = 0; i < 4; ++i) {
      rig.rx_.PostReceive(1, Adapter::PostedReceive{dst, nullptr});
      const auto report = rig.Transmit(1, src);
      EXPECT_EQ(report.outcome, ReliableDelivery::TxOutcome::kDelivered);
    }
    *digest = rig.eng_.event_digest();
    return rig.rel_.stats();
  };
  std::uint64_t digest_a = 0;
  std::uint64_t digest_b = 0;
  const auto stats_a = run(&digest_a);
  const auto stats_b = run(&digest_b);
  EXPECT_EQ(digest_a, digest_b);
  EXPECT_EQ(stats_a.retransmits, stats_b.retransmits);
  EXPECT_EQ(stats_a.timeouts, stats_b.timeouts);
  EXPECT_EQ(stats_a.acks, stats_b.acks);
}

TEST(ReliableBackoffTest, WatchdogVerdictProtocol) {
  ReliableRig rig;
  ReliableOptions opts;
  opts.watchdog_timeout = 1 * kMillisecond;  // period defaults to timeout/4
  rig.rel_.Configure(opts);
  EXPECT_TRUE(rig.rel_.watchdog_enabled());

  // kBusy pushes the deadline a full timeout out; the third expiry cancels.
  int calls = 0;
  rig.rel_.Watch("stuck-xfer", [&] {
    ++calls;
    return calls < 3 ? ReliableDelivery::WatchVerdict::kBusy
                     : ReliableDelivery::WatchVerdict::kCancelled;
  });
  EXPECT_EQ(rig.rel_.watched(), 1u);
  rig.eng_.Run();  // terminates: the scan re-arms only while entries remain
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(rig.rel_.watched(), 0u);
  EXPECT_EQ(rig.rel_.stats().watchdog_cancels, 1u);
  EXPECT_GE(rig.rel_.stats().watchdog_scans, 3u);
  // Expiries at 1, 2 and 3 ms of deadline; the last scan lands on a 250 us
  // grid tick at or after 3 ms.
  EXPECT_GE(rig.eng_.now(), 3 * kMillisecond);
}

TEST(ReliableBackoffTest, WatchdogCompletedVerdictRetiresQuietly) {
  ReliableRig rig;
  ReliableOptions opts;
  opts.watchdog_timeout = 1 * kMillisecond;
  rig.rel_.Configure(opts);
  rig.rel_.Watch("done-xfer", [] { return ReliableDelivery::WatchVerdict::kCompleted; });
  rig.eng_.Run();
  EXPECT_EQ(rig.rel_.watched(), 0u);
  EXPECT_EQ(rig.rel_.stats().watchdog_cancels, 0u);
}

TEST(ReliableBackoffTest, UnwatchRetiresEntryBeforeExpiry) {
  ReliableRig rig;
  ReliableOptions opts;
  opts.watchdog_timeout = 1 * kMillisecond;
  rig.rel_.Configure(opts);
  bool expired = false;
  const std::uint64_t id = rig.rel_.Watch("fast-xfer", [&] {
    expired = true;
    return ReliableDelivery::WatchVerdict::kCancelled;
  });
  rig.rel_.Unwatch(id);
  rig.rel_.Unwatch(id);  // idempotent
  rig.eng_.Run();
  EXPECT_FALSE(expired);
  EXPECT_EQ(rig.rel_.stats().watchdog_cancels, 0u);
}

TEST(ReliableBackoffTest, WatchIsNoOpWhenWatchdogOff) {
  ReliableRig rig;
  const std::uint64_t id = rig.rel_.Watch("ignored", [] {
    ADD_FAILURE() << "callback must never run with the watchdog off";
    return ReliableDelivery::WatchVerdict::kCancelled;
  });
  EXPECT_NE(id, 0u);
  EXPECT_EQ(rig.rel_.watched(), 0u);
  rig.eng_.Run();  // no scan timer was armed; returns immediately
  EXPECT_EQ(rig.rel_.stats().watchdog_scans, 0u);
}

}  // namespace
}  // namespace genie
