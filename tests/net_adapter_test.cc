// Adapter + link tests: timing, three receive-buffering schemes, streaming
// visibility of racing stores, drops, and fault injection.
#include "src/net/adapter.h"

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

class AdapterTest : public ::testing::Test {
 protected:
  AdapterTest()
      : cost_(MachineProfile::MicronP166()),
        pm_(128, kPage),
        link_(eng_, "link", kMaxAal5Payload) {}

  std::unique_ptr<Adapter> MakeTx() {
    return std::make_unique<Adapter>(eng_, pm_, cost_, "tx", Adapter::Config{});
  }
  std::unique_ptr<Adapter> MakeRx(InputBuffering mode, std::size_t pool_pages = 16) {
    Adapter::Config cfg;
    cfg.rx_buffering = mode;
    cfg.pool_pages = pool_pages;
    return std::make_unique<Adapter>(eng_, pm_, cost_, "rx", cfg);
  }

  // Builds an iovec over freshly allocated frames filled with a pattern.
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

  void TearDown() override {
    for (const FrameId f : frames_) {
      pm_.Free(f);
    }
  }

  Engine eng_;
  CostModel cost_;
  PhysicalMemory pm_;
  SwitchLink link_;
  std::vector<FrameId> frames_;
};

TEST_F(AdapterTest, EarlyDemuxDeliversIntoPostedBuffer) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);

  const IoVec src = MakeBuffer(2 * kPage, 10);
  const IoVec dst = MakeBuffer(2 * kPage, 0);
  std::optional<RxCompletion> completion;
  rx->PostReceive(7, Adapter::PostedReceive{dst, [&](const RxCompletion& c) { completion = c; }});

  std::move(tx->TransmitFrame(7, src)).Detach();
  eng_.Run();

  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->channel, 7u);
  EXPECT_EQ(completion->bytes, 2 * kPage);
  EXPECT_TRUE(completion->crc_ok);
  EXPECT_FALSE(completion->truncated);

  std::vector<std::byte> sent(2 * kPage);
  std::vector<std::byte> got(2 * kPage);
  ReadFromIoVec(pm_, src, 0, sent);
  ReadFromIoVec(pm_, dst, 0, got);
  EXPECT_EQ(std::memcmp(sent.data(), got.data(), sent.size()), 0);
  EXPECT_EQ(tx->frames_sent(), 1u);
  EXPECT_EQ(rx->frames_received(), 1u);
}

TEST_F(AdapterTest, TransferTimeMatchesLinkRate) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  const std::size_t bytes = 8 * kPage;
  const IoVec src = MakeBuffer(bytes, 1);
  const IoVec dst = MakeBuffer(bytes, 0);
  SimTime done_at = -1;
  rx->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion&) {
                                              done_at = eng_.now();
                                            }});
  std::move(tx->TransmitFrame(1, src)).Detach();
  eng_.Run();
  // 0.0598 us/B at OC-3, chunked per page.
  const SimTime expected = 8 * MicrosToSimTime(kPage * 0.0598);
  EXPECT_EQ(done_at, expected);
}

TEST_F(AdapterTest, UnalignedScatterGather) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  // Source: offset segments; destination offset differently.
  IoVec src = MakeBuffer(2 * kPage, 42);
  src.segments[0].offset = 100;
  src.segments[0].length = kPage - 100;
  IoVec dst = MakeBuffer(2 * kPage, 0);
  dst.segments[1].offset = 50;
  dst.segments[1].length = kPage - 50;
  const std::uint64_t n = std::min(src.total_bytes(), dst.total_bytes());

  std::optional<RxCompletion> completion;
  rx->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) { completion = c; }});
  std::move(tx->TransmitFrame(1, src)).Detach();
  eng_.Run();

  ASSERT_TRUE(completion.has_value());
  std::vector<std::byte> sent(n);
  std::vector<std::byte> got(n);
  ReadFromIoVec(pm_, src, 0, sent);
  ReadFromIoVec(pm_, dst, 0, got);
  EXPECT_EQ(std::memcmp(sent.data(), got.data(), n), 0);
}

TEST_F(AdapterTest, NoPostedBufferDropsFrame) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  const IoVec src = MakeBuffer(kPage, 1);
  std::move(tx->TransmitFrame(9, src)).Detach();
  eng_.Run();
  EXPECT_EQ(rx->frames_dropped_no_buffer(), 1u);
  EXPECT_EQ(rx->drops_no_posted_buffer(), 1u);  // attributed to its cause
  EXPECT_EQ(rx->frames_received(), 0u);
}

TEST_F(AdapterTest, PostedBuffersConsumedFifoPerChannel) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  const IoVec dst1 = MakeBuffer(kPage, 0);
  const IoVec dst2 = MakeBuffer(kPage, 0);
  std::vector<int> order;
  rx->PostReceive(3, Adapter::PostedReceive{dst1, [&](const RxCompletion&) { order.push_back(1); }});
  rx->PostReceive(3, Adapter::PostedReceive{dst2, [&](const RxCompletion&) { order.push_back(2); }});
  EXPECT_EQ(rx->posted_receives(3), 2u);
  const IoVec src = MakeBuffer(kPage, 5);
  std::move(tx->TransmitFrame(3, src)).Detach();
  std::move(tx->TransmitFrame(3, src)).Detach();
  eng_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(rx->posted_receives(3), 0u);
}

TEST_F(AdapterTest, LongerFrameThanBufferTruncates) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  const IoVec src = MakeBuffer(2 * kPage, 1);
  const IoVec dst = MakeBuffer(kPage, 0);
  std::optional<RxCompletion> completion;
  rx->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) { completion = c; }});
  std::move(tx->TransmitFrame(1, src)).Detach();
  eng_.Run();
  ASSERT_TRUE(completion.has_value());
  EXPECT_TRUE(completion->truncated);
  EXPECT_EQ(completion->bytes, kPage);
}

TEST_F(AdapterTest, MidTransmissionStoreVisibleOnLaterPagesOnly) {
  // Cut-through hazard: a store racing with the DMA corrupts pages not yet
  // transmitted but never pages already on the wire.
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  const IoVec src = MakeBuffer(4 * kPage, 0x00);
  const IoVec dst = MakeBuffer(4 * kPage, 0x00);
  rx->PostReceive(1, Adapter::PostedReceive{dst, nullptr});

  std::move(tx->TransmitFrame(1, src)).Detach();
  // Tamper all four source pages midway through the transfer (after two
  // page-times).
  const SimTime page_time = MicrosToSimTime(kPage * 0.0598);
  eng_.ScheduleAt(2 * page_time + 1, [&] {
    for (const IoSegment& seg : src.segments) {
      std::memset(pm_.Data(seg.frame).data(), 0xEE, kPage);
    }
  });
  eng_.Run();

  std::vector<std::byte> got(4 * kPage);
  ReadFromIoVec(pm_, dst, 0, got);
  // Pages 0-2 were snapshotted by the DMA engine at 0, 1 and 2 page-times —
  // all before the store; original pattern (not 0xEE).
  EXPECT_NE(static_cast<unsigned char>(got[0]), 0xEE);
  EXPECT_NE(static_cast<unsigned char>(got[kPage]), 0xEE);
  EXPECT_NE(static_cast<unsigned char>(got[2 * kPage]), 0xEE);
  // Page 3 was still in host memory when the store landed: corrupted.
  EXPECT_EQ(static_cast<unsigned char>(got[3 * kPage]), 0xEE);
}

TEST_F(AdapterTest, PooledReceiveFillsOverlayPages) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kPooled, 8);
  tx->ConnectTo(rx.get(), &link_);
  const IoVec src = MakeBuffer(2 * kPage + 100, 3);
  std::optional<RxCompletion> got;
  rx->PostReceive(4, Adapter::PostedReceive{{}, [&](RxCompletion c) { got = std::move(c); }});
  std::move(tx->TransmitFrame(4, src)).Detach();
  eng_.Run();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, 2 * kPage + 100);
  ASSERT_EQ(got->overlay_pages.size(), 3u);
  EXPECT_EQ(rx->pool()->available(), 8u - 3u);
  // Verify content.
  std::vector<std::byte> sent(got->bytes);
  ReadFromIoVec(pm_, src, 0, sent);
  EXPECT_EQ(std::memcmp(pm_.Data(got->overlay_pages[0]).data(), sent.data(), kPage), 0);
  EXPECT_EQ(std::memcmp(pm_.Data(got->overlay_pages[2]).data(), sent.data() + 2 * kPage, 100), 0);
  for (const FrameId f : got->overlay_pages) {
    rx->pool()->Free(f);
  }
  EXPECT_EQ(rx->pool()->available(), 8u);
}

TEST_F(AdapterTest, PoolDepletionDropsFrameAndRecyclesPages) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kPooled, 2);
  tx->ConnectTo(rx.get(), &link_);
  const IoVec src = MakeBuffer(4 * kPage, 3);  // Needs 4 overlay pages; pool has 2.
  bool handler_called = false;
  rx->PostReceive(4, Adapter::PostedReceive{{}, [&](RxCompletion) { handler_called = true; }});
  std::move(tx->TransmitFrame(4, src)).Detach();
  eng_.Run();
  EXPECT_FALSE(handler_called);
  EXPECT_EQ(rx->posted_receives(4), 1u);  // The dropped frame consumed no posting.
  EXPECT_EQ(rx->frames_dropped_no_buffer(), 1u);
  EXPECT_EQ(rx->drops_pool_exhausted(), 1u);
  EXPECT_EQ(rx->pool()->available(), 2u);  // Pages returned.
}

TEST_F(AdapterTest, OutboardReceiveStagesFrame) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kOutboard);
  tx->ConnectTo(rx.get(), &link_);
  const IoVec src = MakeBuffer(kPage + 17, 9);
  std::optional<RxCompletion> got;
  rx->PostReceive(2, Adapter::PostedReceive{{}, [&](RxCompletion c) { got = std::move(c); }});
  std::move(tx->TransmitFrame(2, src)).Detach();
  eng_.Run();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, kPage + 17);
  std::vector<std::byte> sent(kPage + 17);
  ReadFromIoVec(pm_, src, 0, sent);
  auto data = rx->OutboardData(got->outboard_handle);
  ASSERT_EQ(data.size(), sent.size());
  EXPECT_EQ(std::memcmp(data.data(), sent.data(), sent.size()), 0);
  rx->FreeOutboard(got->outboard_handle);
  EXPECT_EQ(rx->outboard_frames_held(), 0u);
}

TEST_F(AdapterTest, CrcErrorInjectionReported) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kDeviceError;
  rule.nth = 1;
  rule.max_fires = 1;
  plan.AddRule(rule);
  tx->set_fault_plan(&plan);
  const IoVec src = MakeBuffer(kPage, 1);
  const IoVec dst = MakeBuffer(kPage, 0);
  std::optional<RxCompletion> c1;
  std::optional<RxCompletion> c2;
  rx->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) { c1 = c; }});
  rx->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) { c2 = c; }});
  std::move(tx->TransmitFrame(1, src)).Detach();
  std::move(tx->TransmitFrame(1, src)).Detach();
  eng_.Run();
  ASSERT_TRUE(c1.has_value());
  ASSERT_TRUE(c2.has_value());
  EXPECT_FALSE(c1->crc_ok);  // Only the first frame is corrupted.
  EXPECT_TRUE(c2->crc_ok);
}

TEST_F(AdapterTest, FramesSerializeOnLink) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  const IoVec src = MakeBuffer(kPage, 1);
  const IoVec dst = MakeBuffer(kPage, 0);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    rx->PostReceive(1, Adapter::PostedReceive{
                           dst, [&](const RxCompletion&) { completions.push_back(eng_.now()); }});
    std::move(tx->TransmitFrame(1, src)).Detach();
  }
  eng_.Run();
  ASSERT_EQ(completions.size(), 3u);
  const SimTime page_time = MicrosToSimTime(kPage * 0.0598);
  EXPECT_EQ(completions[0], page_time);
  EXPECT_EQ(completions[1], 2 * page_time);
  EXPECT_EQ(completions[2], 3 * page_time);
}

TEST_F(AdapterTest, OutboardCapacityOverflowDropsFrame) {
  Adapter::Config cfg;
  cfg.rx_buffering = InputBuffering::kOutboard;
  cfg.outboard_capacity_bytes = 3 * kPage;  // Tiny staging RAM.
  auto tx = MakeTx();
  auto rx = std::make_unique<Adapter>(eng_, pm_, cost_, "rx", cfg);
  tx->ConnectTo(rx.get(), &link_);
  int delivered = 0;
  std::vector<std::uint32_t> handles;
  for (int i = 0; i < 2; ++i) {
    rx->PostReceive(1, Adapter::PostedReceive{{}, [&](RxCompletion c) {
                                                ++delivered;
                                                handles.push_back(c.outboard_handle);
                                              }});
  }
  const IoVec two_pages = MakeBuffer(2 * kPage, 1);
  // First frame fits (2 pages <= 3); second would exceed held+incoming.
  std::move(tx->TransmitFrame(1, two_pages)).Detach();
  std::move(tx->TransmitFrame(1, two_pages)).Detach();
  eng_.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rx->frames_dropped_no_buffer(), 1u);
  EXPECT_EQ(rx->drops_outboard_overflow(), 1u);
  // Freeing the staged frame makes room again.
  rx->FreeOutboard(handles[0]);
  std::move(tx->TransmitFrame(1, two_pages)).Detach();
  eng_.Run();
  EXPECT_EQ(delivered, 2);
  rx->FreeOutboard(handles[1]);
}

TEST_F(AdapterTest, OversizedFrameRejected) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  const IoVec src = MakeBuffer(16 * kPage, 1);  // 64 KB > AAL5 max.
  EXPECT_DEATH(std::move(tx->TransmitFrame(1, src)).Detach(), "");
}

TEST_F(AdapterTest, CrcErrorViaFaultPlanRule) {
  // The supported injection path: a kDeviceError rule on the transmit-side
  // plan corrupts exactly the scheduled frame.
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kDeviceError;
  rule.nth = 2;
  plan.AddRule(rule);
  tx->set_fault_plan(&plan);

  const IoVec src = MakeBuffer(kPage, 1);
  const IoVec dst = MakeBuffer(kPage, 0);
  std::vector<bool> crc;
  for (int i = 0; i < 3; ++i) {
    rx->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) {
                                                crc.push_back(c.crc_ok);
                                              }});
    std::move(tx->TransmitFrame(1, src)).Detach();
  }
  eng_.Run();
  EXPECT_EQ(crc, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(rx->rx_crc_errors(), 1u);
  EXPECT_EQ(plan.injected(FaultSite::kDeviceError), 1u);
}

TEST_F(AdapterTest, CrcErrorRulesQueueConsecutiveFrames) {
  // Two single-shot kDeviceError rules on consecutive frames corrupt exactly
  // the next two arrivals (the idiom the removed InjectCrcError shim offered).
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  FaultPlan plan(1);
  for (std::uint64_t nth = 1; nth <= 2; ++nth) {
    FaultRule rule;
    rule.site = FaultSite::kDeviceError;
    rule.nth = nth;
    rule.max_fires = 1;
    plan.AddRule(rule);
  }
  tx->set_fault_plan(&plan);
  const IoVec src = MakeBuffer(kPage, 1);
  const IoVec dst = MakeBuffer(kPage, 0);
  std::vector<bool> crc;
  for (int i = 0; i < 3; ++i) {
    rx->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) {
                                                crc.push_back(c.crc_ok);
                                              }});
    std::move(tx->TransmitFrame(1, src)).Detach();
  }
  eng_.Run();
  EXPECT_EQ(crc, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(rx->rx_crc_errors(), 2u);
}

struct AckRecord {
  std::uint64_t channel;
  std::uint64_t seq;
  bool ok;
};

TEST_F(AdapterTest, SequencedFrameAckedAndDuplicateSuppressed) {
  SwitchLink back(eng_, "back", kMaxAal5Payload);
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  rx->ConnectTo(tx.get(), &back);  // control-cell return path for acks

  std::vector<AckRecord> acks;
  std::vector<std::vector<SackCell>> sacks;
  tx->set_cell_handler([&](const ControlCell& cell) {
    if (cell.kind == ControlCell::Kind::kSack) {
      EXPECT_EQ(cell.channel, 5u);
      sacks.push_back(cell.sack);
    } else {
      acks.push_back({cell.channel, cell.seq, cell.kind == ControlCell::Kind::kAck});
    }
  });

  const IoVec src = MakeBuffer(kPage, 7);
  const IoVec dst1 = MakeBuffer(kPage, 0);
  const IoVec dst2 = MakeBuffer(kPage, 0);
  int completions = 0;
  rx->PostReceive(5, Adapter::PostedReceive{dst1, [&](const RxCompletion& c) {
                                              ++completions;
                                              EXPECT_EQ(c.seq, 1u);
                                            }});
  rx->PostReceive(5, Adapter::PostedReceive{dst2, [&](const RxCompletion&) { ++completions; }});

  auto ctl = std::make_shared<TxControl>();
  ctl->seq = 1;
  std::move(tx->TransmitFrame(5, src, 0, 0, ctl)).Detach();
  eng_.Run();
  EXPECT_EQ(completions, 1);
  // The accept is acknowledged by one SACK train, cumulative through seq 1.
  ASSERT_EQ(sacks.size(), 1u);
  ASSERT_EQ(sacks[0].size(), 1u);
  EXPECT_EQ(sacks[0][0].cum, 1u);
  EXPECT_TRUE(acks.empty());

  // Retransmission of the same sequence number (as after a lost ack): the
  // receive side suppresses it without consuming the second posted buffer,
  // and re-acks so the sender can stop.
  auto ctl2 = std::make_shared<TxControl>();
  ctl2->seq = 1;
  ctl2->skip_credit = true;
  std::move(tx->TransmitFrame(5, src, 0, 0, ctl2)).Detach();
  eng_.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(rx->rx_duplicate_frames(), 1u);
  EXPECT_EQ(rx->posted_receives(5), 1u);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].ok);
  EXPECT_EQ(acks[0].seq, 1u);
  EXPECT_EQ(sacks.size(), 1u);  // the duplicate arms no SACK flush
  EXPECT_EQ(rx->acks_sent(), 2u);
}

TEST_F(AdapterTest, CorruptedSequencedFrameNackedAndBufferRestored) {
  SwitchLink back(eng_, "back", kMaxAal5Payload);
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  rx->ConnectTo(tx.get(), &back);

  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kDeviceError;
  rule.nth = 1;
  plan.AddRule(rule);
  tx->set_fault_plan(&plan);

  std::vector<AckRecord> acks;
  std::vector<std::vector<SackCell>> sacks;
  tx->set_cell_handler([&](const ControlCell& cell) {
    if (cell.kind == ControlCell::Kind::kSack) {
      EXPECT_EQ(cell.channel, 2u);
      sacks.push_back(cell.sack);
    } else {
      acks.push_back({cell.channel, cell.seq, cell.kind == ControlCell::Kind::kAck});
    }
  });

  const IoVec src = MakeBuffer(kPage, 3);
  const IoVec dst = MakeBuffer(kPage, 0);
  std::optional<RxCompletion> completion;
  rx->PostReceive(2, Adapter::PostedReceive{dst, [&](const RxCompletion& c) { completion = c; }});

  auto ctl = std::make_shared<TxControl>();
  ctl->seq = 1;
  std::move(tx->TransmitFrame(2, src, 0, 0, ctl)).Detach();
  eng_.Run();
  // Link layer owns recovery: the host never sees the damaged frame, the
  // consumed posted buffer is back at the front of the queue, and a nack
  // went out.
  EXPECT_FALSE(completion.has_value());
  EXPECT_EQ(rx->rx_crc_errors(), 1u);
  EXPECT_EQ(rx->posted_receives(2), 1u);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_FALSE(acks[0].ok);
  EXPECT_EQ(rx->nacks_sent(), 1u);
  EXPECT_TRUE(sacks.empty());

  // Retransmission (same seq, clean wire) lands in the restored buffer.
  auto ctl2 = std::make_shared<TxControl>();
  ctl2->seq = 1;
  ctl2->skip_credit = true;
  std::move(tx->TransmitFrame(2, src, 0, 0, ctl2)).Detach();
  eng_.Run();
  ASSERT_TRUE(completion.has_value());
  EXPECT_TRUE(completion->crc_ok);
  EXPECT_EQ(completion->seq, 1u);
  // The accept is acknowledged by one SACK train, cumulative through seq 1.
  EXPECT_EQ(acks.size(), 1u);
  ASSERT_EQ(sacks.size(), 1u);
  ASSERT_EQ(sacks[0].size(), 1u);
  EXPECT_EQ(sacks[0][0].cum, 1u);

  std::vector<std::byte> sent(kPage);
  std::vector<std::byte> got(kPage);
  ReadFromIoVec(pm_, src, 0, sent);
  ReadFromIoVec(pm_, dst, 0, got);
  EXPECT_EQ(std::memcmp(sent.data(), got.data(), sent.size()), 0);
}

// The rules a control cell meets on arrival, kind by kind: a crashed adapter
// drops and counts every cell; an ack, nack or SACK train stamped below the
// channel's learned peer epoch is a dead incarnation's and is dropped as
// stale; a fence or resync-ack from an older epoch is never dropped as
// stale. Each cell is provoked through the wire protocol and observed
// through counters only.
TEST_F(AdapterTest, ControlCellsMeetTheirDropRulesByKind) {
  struct CellRig {
    CellRig(Engine& eng, PhysicalMemory& pm, const CostModel& cost, bool flow_control = false)
        : fwd(eng, "fwd", kMaxAal5Payload),
          back(eng, "back", kMaxAal5Payload),
          tx(eng, pm, cost, "tx", Adapter::Config{}),
          rx(eng, pm, cost, "rx", Adapter::Config{.flow_control = flow_control}) {
      tx.ConnectTo(&rx, &fwd);
      rx.ConnectTo(&tx, &back);
    }
    // Sends sequenced frame `seq`, addressed to the receiver's incarnation
    // `dst_epoch` (0 = unfenced).
    void Send(const IoVec& src, std::uint64_t seq, std::uint32_t dst_epoch = 0) {
      auto ctl = std::make_shared<TxControl>();
      ctl->seq = seq;
      ctl->skip_credit = true;
      ctl->src_epoch = dst_epoch == 0 ? 0 : 1;
      ctl->dst_epoch = dst_epoch;
      std::move(tx.TransmitFrame(1, src, 0, 0, ctl)).Detach();
    }
    SwitchLink fwd;
    SwitchLink back;
    Adapter tx;
    Adapter rx;
  };
  const IoVec src = MakeBuffer(64, 3);
  const IoVec dst = MakeBuffer(64, 0);

  // Crashed receiver of the cell, one kind at a time.
  {
    CellRig credit(eng_, pm_, cost_, /*flow_control=*/true);
    credit.rx.PostReceive(1, Adapter::PostedReceive{dst, nullptr});
    credit.tx.Crash(2);
    eng_.Run();
    EXPECT_EQ(credit.tx.crash_cell_drops(), 1u) << "credit";
    EXPECT_EQ(credit.tx.tx_credits(1), 0u);
  }
  {
    CellRig ack(eng_, pm_, cost_);
    ack.rx.PostReceive(1, Adapter::PostedReceive{dst, nullptr});
    ack.Send(src, 1);
    eng_.Run();
    ack.Send(src, 1);  // A duplicate: re-acked.
    eng_.RunUntil([&] { return ack.rx.acks_sent() == 2; });
    ack.tx.Crash(2);
    eng_.Run();
    EXPECT_EQ(ack.rx.rx_duplicate_frames(), 1u);
    EXPECT_EQ(ack.tx.crash_cell_drops(), 1u) << "ack";
  }
  {
    CellRig nack(eng_, pm_, cost_);
    nack.Send(src, 1);  // No posted buffer: nacked.
    eng_.RunUntil([&] { return nack.rx.nacks_sent() == 1; });
    nack.tx.Crash(2);
    eng_.Run();
    EXPECT_EQ(nack.tx.crash_cell_drops(), 1u) << "nack";
  }
  {
    CellRig sack(eng_, pm_, cost_);
    sack.rx.PostReceive(1, Adapter::PostedReceive{dst, nullptr});
    sack.Send(src, 1);
    eng_.RunUntil([&] { return sack.rx.frames_received() == 1; });
    sack.tx.Crash(2);
    eng_.Run();
    EXPECT_EQ(sack.rx.sack_cells_sent(), 1u);
    EXPECT_EQ(sack.tx.crash_cell_drops(), 1u) << "SACK train";
  }
  {
    CellRig fence(eng_, pm_, cost_);
    fence.rx.Crash(2);
    fence.rx.Restart();
    fence.Send(src, 1, /*dst_epoch=*/1);  // Addressed to the dead incarnation.
    eng_.RunUntil([&] { return fence.rx.fences_sent() == 1; });
    fence.tx.Crash(2);
    eng_.Run();
    EXPECT_EQ(fence.tx.crash_cell_drops(), 1u) << "fence";
  }
  {
    CellRig resync(eng_, pm_, cost_);
    resync.tx.SendResync(1, 9);
    resync.rx.Crash(2);
    eng_.Run();
    EXPECT_EQ(resync.rx.crash_cell_drops(), 1u) << "resync";
    EXPECT_EQ(resync.tx.crash_cell_drops(), 0u);  // No resync-ack came back.
  }
  {
    CellRig resync_ack(eng_, pm_, cost_);
    resync_ack.tx.SendResync(1, 9);
    resync_ack.tx.Crash(2);  // The resync is already on its way.
    eng_.Run();
    EXPECT_EQ(resync_ack.rx.crash_cell_drops(), 0u);
    EXPECT_EQ(resync_ack.tx.crash_cell_drops(), 1u) << "resync-ack";
  }

  // Cells from the peer's dead incarnation 1, after the sender learned 2.
  {
    CellRig acks(eng_, pm_, cost_);
    acks.tx.NotePeerEpoch(1, 2);
    acks.rx.PostReceive(1, Adapter::PostedReceive{dst, nullptr});
    acks.Send(src, 1);
    eng_.Run();
    EXPECT_EQ(acks.rx.sack_cells_sent(), 1u);
    EXPECT_EQ(acks.tx.stale_epoch_cell_drops(), 1u) << "SACK train";
    acks.Send(src, 1);  // A duplicate: re-acked.
    eng_.Run();
    EXPECT_EQ(acks.tx.stale_epoch_cell_drops(), 2u) << "ack";
    acks.Send(src, 2);  // No posted buffer: nacked.
    eng_.Run();
    EXPECT_EQ(acks.rx.nacks_sent(), 1u);
    EXPECT_EQ(acks.tx.stale_epoch_cell_drops(), 3u) << "nack";
    EXPECT_EQ(acks.tx.crash_cell_drops(), 0u);
  }
  {
    CellRig fence(eng_, pm_, cost_);
    fence.rx.Crash(2);
    fence.rx.Restart();
    fence.tx.NotePeerEpoch(1, 3);  // Fenced by incarnation 2, below the floor.
    fence.Send(src, 1, /*dst_epoch=*/1);
    fence.tx.SendResync(1, 9);     // Acked by incarnation 2, below the floor.
    eng_.Run();
    EXPECT_EQ(fence.rx.fences_sent(), 1u);
    EXPECT_EQ(fence.tx.stale_epoch_cell_drops(), 0u) << "fence or resync-ack";
    EXPECT_EQ(fence.tx.crash_cell_drops(), 0u);
  }
}

TEST_F(AdapterTest, LinkDropLosesFrameWithoutConsumingBuffer) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);

  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kLinkDrop;
  rule.nth = 1;
  plan.AddRule(rule);
  tx->set_fault_plan(&plan);

  const IoVec src = MakeBuffer(kPage, 4);
  const IoVec dst = MakeBuffer(kPage, 0);
  int completions = 0;
  rx->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion&) { ++completions; }});

  std::move(tx->TransmitFrame(1, src)).Detach();
  eng_.Run();
  // The frame occupied the wire but never reached the peer.
  EXPECT_EQ(tx->frames_sent(), 1u);
  EXPECT_EQ(tx->link_frames_dropped(), 1u);
  EXPECT_EQ(rx->frames_received(), 0u);
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(rx->posted_receives(1), 1u);

  // The next frame goes through into the untouched buffer.
  std::move(tx->TransmitFrame(1, src)).Detach();
  eng_.Run();
  EXPECT_EQ(completions, 1);
}

TEST_F(AdapterTest, LinkDuplicateDeliversUnsequencedFrameTwice) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);

  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kLinkDuplicate;
  rule.nth = 1;
  plan.AddRule(rule);
  tx->set_fault_plan(&plan);

  const IoVec src = MakeBuffer(kPage, 6);
  const IoVec dst1 = MakeBuffer(kPage, 0);
  const IoVec dst2 = MakeBuffer(kPage, 0);
  int completions = 0;
  rx->PostReceive(1, Adapter::PostedReceive{dst1, [&](const RxCompletion&) { ++completions; }});
  rx->PostReceive(1, Adapter::PostedReceive{dst2, [&](const RxCompletion&) { ++completions; }});

  std::move(tx->TransmitFrame(1, src)).Detach();
  eng_.Run();
  // Without a sequence number there is no dedup: both copies land, each
  // consuming a posted buffer — exactly the hazard the ARQ layer removes.
  EXPECT_EQ(tx->link_frames_duplicated(), 1u);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(rx->frames_received(), 2u);

  // Both copies carry the same bytes (snapshotted at the DMA instants).
  std::vector<std::byte> sent(kPage);
  std::vector<std::byte> got(kPage);
  ReadFromIoVec(pm_, src, 0, sent);
  ReadFromIoVec(pm_, dst2, 0, got);
  EXPECT_EQ(std::memcmp(sent.data(), got.data(), sent.size()), 0);
}

TEST_F(AdapterTest, LinkDuplicateOfSequencedFrameSuppressed) {
  SwitchLink back(eng_, "back", kMaxAal5Payload);
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  rx->ConnectTo(tx.get(), &back);

  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kLinkDuplicate;
  rule.nth = 1;
  plan.AddRule(rule);
  tx->set_fault_plan(&plan);

  const IoVec src = MakeBuffer(kPage, 6);
  const IoVec dst1 = MakeBuffer(kPage, 0);
  const IoVec dst2 = MakeBuffer(kPage, 0);
  int completions = 0;
  rx->PostReceive(1, Adapter::PostedReceive{dst1, [&](const RxCompletion&) { ++completions; }});
  rx->PostReceive(1, Adapter::PostedReceive{dst2, [&](const RxCompletion&) { ++completions; }});

  auto ctl = std::make_shared<TxControl>();
  ctl->seq = 1;
  std::move(tx->TransmitFrame(1, src, 0, 0, ctl)).Detach();
  eng_.Run();
  // The dedup window absorbs the wire-level duplicate: one host delivery,
  // one spare buffer, and a re-ack for the suppressed copy.
  EXPECT_EQ(tx->link_frames_duplicated(), 1u);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(rx->rx_duplicate_frames(), 1u);
  EXPECT_EQ(rx->posted_receives(1), 1u);
  EXPECT_EQ(rx->acks_sent(), 2u);
}

TEST_F(AdapterTest, LinkReorderDeliversHeldFrameBehindYounger) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);

  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kLinkReorder;
  rule.nth = 1;
  plan.AddRule(rule);
  tx->set_fault_plan(&plan);

  const IoVec src_a = MakeBuffer(kPage, 0x11);
  const IoVec src_b = MakeBuffer(kPage, 0x22);
  const IoVec dst1 = MakeBuffer(kPage, 0);
  const IoVec dst2 = MakeBuffer(kPage, 0);
  std::vector<std::uint32_t> arrival_headers;
  auto note = [&](const RxCompletion& c) { arrival_headers.push_back(c.header); };
  rx->PostReceive(1, Adapter::PostedReceive{dst1, note});
  rx->PostReceive(1, Adapter::PostedReceive{dst2, note});

  std::move(tx->TransmitFrame(1, src_a, /*header=*/0xA)).Detach();
  std::move(tx->TransmitFrame(1, src_b, /*header=*/0xB)).Detach();
  eng_.Run();
  // Frame A was held back and delivered late, behind the younger frame B.
  EXPECT_EQ(tx->link_frames_reordered(), 1u);
  EXPECT_EQ(arrival_headers, (std::vector<std::uint32_t>{0xB, 0xA}));

  // The late copy carries A's bytes even though it landed second.
  std::vector<std::byte> sent(kPage);
  std::vector<std::byte> got(kPage);
  ReadFromIoVec(pm_, src_a, 0, sent);
  ReadFromIoVec(pm_, dst2, 0, got);
  EXPECT_EQ(std::memcmp(sent.data(), got.data(), sent.size()), 0);
}

TEST_F(AdapterTest, LinkReorderFlushTimerDeliversLoneHeldFrame) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);

  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kLinkReorder;
  rule.nth = 1;
  rule.arg = 30'000;  // flush after 30 us if no younger frame shows up
  plan.AddRule(rule);
  tx->set_fault_plan(&plan);

  const IoVec src = MakeBuffer(kPage, 5);
  const IoVec dst = MakeBuffer(kPage, 0);
  SimTime done_at = -1;
  rx->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion&) {
                                              done_at = eng_.now();
                                            }});
  std::move(tx->TransmitFrame(1, src)).Detach();
  eng_.Run();
  // Delivered by the flush timer: wire time + the injected hold delay.
  const SimTime wire = MicrosToSimTime(kPage * 0.0598);
  EXPECT_EQ(done_at, wire + 30'000);
  EXPECT_EQ(rx->frames_received(), 1u);
}

TEST_F(AdapterTest, HeldFrameIsDroppedWhenItsLinkIsDownAtReplay) {
  // A held frame replays over the path it went out on. The point-to-point
  // link goes down after the frame left the wire and before the flush timer
  // fires, so the replay finds its path down and drops the frame.
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);

  FaultPlan plan(1);
  FaultRule rule;
  rule.site = FaultSite::kLinkReorder;
  rule.nth = 1;
  rule.arg = 30'000;
  plan.AddRule(rule);
  tx->set_fault_plan(&plan);

  const IoVec src = MakeBuffer(kPage, 5);
  const IoVec dst = MakeBuffer(kPage, 0);
  bool delivered = false;
  rx->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion&) { delivered = true; }});
  std::move(tx->TransmitFrame(1, src)).Detach();
  const SimTime wire = MicrosToSimTime(kPage * 0.0598);
  eng_.ScheduleAfter(wire + 10'000, [this] { link_.SetDown(); });
  eng_.Run();
  EXPECT_EQ(tx->link_frames_reordered(), 1u);
  EXPECT_EQ(tx->link_down_drops(), 1u);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(rx->frames_received(), 0u);
  EXPECT_EQ(rx->posted_receives(1), 1u);
}

TEST_F(AdapterTest, CancelPostedReceiveRemovesQueuedBuffer) {
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  const IoVec dst1 = MakeBuffer(kPage, 0);
  const IoVec dst2 = MakeBuffer(kPage, 0);
  std::vector<int> order;
  rx->PostReceive(3, Adapter::PostedReceive{dst1, [&](const RxCompletion&) { order.push_back(1); },
                                            /*cancel_id=*/11});
  rx->PostReceive(3, Adapter::PostedReceive{dst2, [&](const RxCompletion&) { order.push_back(2); },
                                            /*cancel_id=*/22});

  EXPECT_FALSE(rx->CancelPostedReceive(3, 0));   // 0 is never a valid id
  EXPECT_FALSE(rx->CancelPostedReceive(9, 11));  // wrong channel
  EXPECT_TRUE(rx->CancelPostedReceive(3, 11));
  EXPECT_FALSE(rx->CancelPostedReceive(3, 11));  // idempotent: already gone
  EXPECT_EQ(rx->posted_receives(3), 1u);

  // The next frame lands in the surviving buffer, not the cancelled one.
  const IoVec src = MakeBuffer(kPage, 8);
  std::move(tx->TransmitFrame(3, src)).Detach();
  eng_.Run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST_F(AdapterTest, AbortCreditWaitBreaksCreditDeadlock) {
  Adapter::Config tx_cfg;
  tx_cfg.flow_control = true;
  auto tx = std::make_unique<Adapter>(eng_, pm_, cost_, "tx", tx_cfg);
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);

  // No posted buffer -> no credit -> the transmission parks forever. This is
  // the credit deadlock the transfer watchdog breaks.
  const IoVec src = MakeBuffer(kPage, 2);
  auto ctl = std::make_shared<TxControl>();
  ctl->seq = 1;
  std::move(tx->TransmitFrame(4, src, 0, 0, ctl)).Detach();
  eng_.Run();
  EXPECT_EQ(tx->frames_sent(), 0u);
  EXPECT_EQ(tx->credit_waiters(4), 1u);

  EXPECT_FALSE(tx->AbortCreditWait(4, nullptr));  // must name the waiter
  EXPECT_TRUE(tx->AbortCreditWait(4, ctl));
  eng_.Run();
  EXPECT_TRUE(ctl->aborted);
  EXPECT_EQ(tx->credit_waiters(4), 0u);
  EXPECT_EQ(tx->frames_sent(), 0u);  // nothing ever went out
  EXPECT_FALSE(tx->AbortCreditWait(4, ctl));  // idempotent: waiter gone
}

TEST_F(AdapterTest, WideWindowDuplicateStillSuppressed) {
  // Regression: the legacy dedup pruned its seen-set below max_seq - 128
  // regardless of the configured window, so with a window wider than 128 a
  // laggard retransmission of an old frame was re-delivered to the host.
  // The windowed receiver keeps a cumulative mark instead: anything at or
  // below it is recognized as a duplicate no matter how far the window has
  // advanced.
  SwitchLink back(eng_, "back", kMaxAal5Payload);
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  rx->ConnectTo(tx.get(), &back);
  tx->set_arq_window(256);
  rx->set_arq_window(256);

  const IoVec src = MakeBuffer(kPage, 7);
  const IoVec dst = MakeBuffer(kPage, 0);
  int completions = 0;
  auto note = [&](const RxCompletion&) { ++completions; };
  // Advance the receive window far past the legacy 128-deep prune horizon.
  constexpr std::uint64_t kFrames = 200;
  for (std::uint64_t seq = 1; seq <= kFrames; ++seq) {
    rx->PostReceive(3, Adapter::PostedReceive{dst, note});
    auto ctl = std::make_shared<TxControl>();
    ctl->seq = seq;
    std::move(tx->TransmitFrame(3, src, 0, 0, ctl)).Detach();
    eng_.Run();
  }
  EXPECT_EQ(completions, static_cast<int>(kFrames));
  EXPECT_EQ(rx->rx_duplicate_frames(), 0u);

  // A very late retransmission of seq 1 (as after a lost ack plus maximal
  // backoff) must be suppressed, not delivered into the posted buffer.
  rx->PostReceive(3, Adapter::PostedReceive{dst, note});
  auto replay = std::make_shared<TxControl>();
  replay->seq = 1;
  replay->skip_credit = true;
  std::move(tx->TransmitFrame(3, src, 0, 0, replay)).Detach();
  eng_.Run();
  EXPECT_EQ(completions, static_cast<int>(kFrames));  // no re-delivery
  EXPECT_EQ(rx->rx_duplicate_frames(), 1u);
  EXPECT_EQ(rx->posted_receives(3), 1u);  // buffer not consumed
}

TEST_F(AdapterTest, WindowedReceiverBatchesSackAcks) {
  // With a window configured, per-frame ack cells are replaced by batched
  // SACK trains: frames accepted within one control-cell latency of each
  // other share a single flush.
  SwitchLink back(eng_, "back", kMaxAal5Payload);
  auto tx = MakeTx();
  auto rx = MakeRx(InputBuffering::kEarlyDemux);
  tx->ConnectTo(rx.get(), &link_);
  rx->ConnectTo(tx.get(), &back);
  tx->set_arq_window(8);
  rx->set_arq_window(8);

  std::vector<SackCell> last_train;
  int trains = 0;
  tx->set_cell_handler([&](const ControlCell& cell) {
    ASSERT_EQ(cell.kind, ControlCell::Kind::kSack);
    EXPECT_EQ(cell.channel, 2u);
    last_train = cell.sack;
    ++trains;
  });

  // Frames short enough that several clear the wire within one control-cell
  // latency (5 us ~ 83 wire-bytes at OC-3): they must share a flush.
  const IoVec src = MakeBuffer(64, 5);
  const IoVec dst = MakeBuffer(64, 0);
  for (int i = 0; i < 4; ++i) {
    rx->PostReceive(2, Adapter::PostedReceive{dst, nullptr});
  }
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    auto ctl = std::make_shared<TxControl>();
    ctl->seq = seq;
    std::move(tx->TransmitFrame(2, src, 0, 0, ctl)).Detach();
  }
  eng_.Run();
  // Four frames, but far fewer flushes than frames (back-to-back arrivals
  // accumulate under the armed flush); the final train covers all of them.
  EXPECT_EQ(rx->frames_received(), 4u);
  EXPECT_GE(trains, 1);
  EXPECT_LT(trains, 4);
  EXPECT_EQ(rx->sack_flushes(), static_cast<std::uint64_t>(trains));
  ASSERT_FALSE(last_train.empty());
  EXPECT_EQ(last_train.back().cum, 4u);
}

}  // namespace
}  // namespace genie
