// The posted-input lifecycle, in every input-buffering mode. An input waits
// for its frame as a posting on the receiving adapter, whatever the device
// then does with the frame's bytes (DMA into the posting, overlay pages, or
// outboard staging). Endpoint teardown, a node crash and the transfer
// watchdog must each revoke that posting, so no later frame reaches a dead
// input, and each must leave the device's buffers as it found them.
#include <memory>

#include <gtest/gtest.h>

#include "tests/genie_test_util.h"

namespace genie {
namespace {

constexpr Vaddr kSrc = 0x100000;
constexpr Vaddr kDst = 0x200000;
constexpr std::uint64_t kLen = 3 * 4096 + 100;

Task<void> AwaitInput(Endpoint& ep, AddressSpace& app, InputResult* out) {
  *out = co_await ep.Input(app, kDst, kLen, Semantics::kCopy);
}

class PostedInputTest : public ::testing::TestWithParam<InputBuffering> {};

// A receive endpoint destroyed with its input still posted takes the posting
// with it, and the input's watchdog entry when the watchdog is on, and gives
// back the frames the input's prepare took. The waiting input stays parked
// forever (nothing can complete it once its endpoint is gone), so leak
// checkers report its coroutine frame.
void DestroyEndpointWhilePosted(InputBuffering mode, bool watchdog) {
  Engine engine;
  Node sender(engine, "tx", Node::Config{});
  Node::Config rx_cfg;
  rx_cfg.rx_buffering = mode;
  Node receiver(engine, "rx", rx_cfg);
  if (watchdog) {
    ReliableOptions opts;
    opts.watchdog_timeout = 1 * kMillisecond;
    receiver.EnableReliableDelivery(opts);
  }
  Network network(engine, sender, receiver);
  Endpoint tx_ep(sender, 1);
  AddressSpace& tx_app = sender.CreateProcess("app");
  AddressSpace& rx_app = receiver.CreateProcess("app");
  tx_app.CreateRegion(kSrc, 4 * 4096);
  rx_app.CreateRegion(kDst, 4 * 4096);
  ASSERT_EQ(tx_app.Write(kSrc, TestPattern(kLen, 5)), AccessResult::kOk);
  const std::size_t free_frames = receiver.vm().pm().free_frames();

  InputResult result;
  {
    auto rx_ep = std::make_unique<Endpoint>(receiver, 1);
    std::move(AwaitInput(*rx_ep, rx_app, &result)).Detach();
    // Stop once the prepare has run and the input is posted, well before
    // the watchdog's 1 ms deadline.
    ASSERT_TRUE(engine.RunUntil([&] { return rx_ep->HasPreparedInput(); }));
  }
  EXPECT_EQ(receiver.adapter().posted_receives(1), 0u);
  EXPECT_EQ(receiver.vm().pm().free_frames(), free_frames);

  // A frame sent afterwards finds no posting: early demux drops it for want
  // of a buffer; pooled and outboard devices discard it uncounted. The
  // watchdog scan armed for the input still fires, finds nothing to watch
  // and stops.
  std::move(tx_ep.Output(tx_app, kSrc, kLen, Semantics::kCopy)).Detach();
  engine.Run();
  EXPECT_EQ(result.completed_at, 0);
  Adapter& nic = receiver.adapter();
  EXPECT_EQ(nic.drops_no_posted_buffer(), mode == InputBuffering::kEarlyDemux ? 1u : 0u);
  EXPECT_EQ(nic.frames_received(), mode == InputBuffering::kEarlyDemux ? 0u : 1u);
  ExpectDeviceBuffersFree(nic);
  EXPECT_EQ(receiver.vm().pm().free_frames(), free_frames);
  if (watchdog) {
    EXPECT_EQ(receiver.reliable().stats().watchdog_scans, 1u);
  }
}

TEST_P(PostedInputTest, DestroyedEndpointRevokesItsPosting) {
  DestroyEndpointWhilePosted(GetParam(), /*watchdog=*/false);
}

TEST_P(PostedInputTest, DestroyedWatchedEndpointRevokesItsPostingAndWatch) {
  DestroyEndpointWhilePosted(GetParam(), /*watchdog=*/true);
}

TEST_P(PostedInputTest, CrashFailsPostedInputAndRestartDelivers) {
  Rig rig(GetParam());
  rig.tx_app.CreateRegion(kSrc, 4 * 4096);
  rig.rx_app.CreateRegion(kDst, 4 * 4096);

  InputResult aborted;
  std::move(AwaitInput(rig.rx_ep, rig.rx_app, &aborted)).Detach();
  rig.engine.Run();
  ASSERT_TRUE(rig.rx_ep.HasPreparedInput());
  rig.receiver.Crash();
  rig.engine.Run();
  EXPECT_FALSE(aborted.ok);
  EXPECT_EQ(aborted.status, IoStatus::kPeerCrashed);
  EXPECT_FALSE(rig.rx_ep.HasPreparedInput());
  EXPECT_EQ(rig.receiver.adapter().posted_receives(1), 0u);
  ExpectDeviceBuffersFree(rig.receiver.adapter());

  rig.receiver.Restart();
  const auto payload = TestPattern(kLen, 6);
  ASSERT_EQ(rig.tx_app.Write(kSrc, payload), AccessResult::kOk);
  const InputResult r = rig.Transfer(kSrc, kDst, kLen, Semantics::kCopy);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(rig.ReadBack(r.addr, kLen), payload);
  ExpectDeviceBuffersFree(rig.receiver.adapter());
  rig.ExpectQuiescent();
}

// A crash that lands once an input's dispose has started lets that dispose
// finish: the device handed the frame over before the crash (into the posted
// buffer, overlay pages or outboard staging), so nothing is left to unwind,
// and the dispose gives the frame's device buffers back as usual.
TEST_P(PostedInputTest, CrashDuringDisposeLetsItFinish) {
  Rig rig(GetParam());
  rig.tx_app.CreateRegion(kSrc, 4 * 4096);
  rig.rx_app.CreateRegion(kDst, 4 * 4096);
  const auto payload = TestPattern(kLen, 7);
  ASSERT_EQ(rig.tx_app.Write(kSrc, payload), AccessResult::kOk);
  bool crashed = false;
  rig.rx_ep.set_op_probe([&](OpKind op, std::uint64_t, SimTime) {
    if (op == OpKind::kReceiverKernelFixed && !crashed) {
      crashed = true;  // The dispose's first charge.
      rig.engine.ScheduleAfter(0, [&] { rig.receiver.Crash(); });
      rig.engine.ScheduleAfter(1 * kMillisecond, [&] { rig.receiver.Restart(); });
    }
  });

  const InputResult r = rig.Transfer(kSrc, kDst, kLen, Semantics::kCopy);
  ASSERT_TRUE(crashed);
  EXPECT_EQ(rig.receiver.crashes(), 1u);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(rig.ReadBack(r.addr, kLen), payload);
  ExpectDeviceBuffersFree(rig.receiver.adapter());
  rig.ExpectQuiescent();
}

TEST_P(PostedInputTest, WatchdogCancelsStuckInputAndRevokesPosting) {
  Rig rig(GetParam());
  rig.rx_app.CreateRegion(kDst, 4 * 4096);
  ReliableOptions opts;
  opts.watchdog_timeout = 1 * kMillisecond;
  rig.receiver.EnableReliableDelivery(opts);

  InputResult stuck;
  std::move(AwaitInput(rig.rx_ep, rig.rx_app, &stuck)).Detach();
  rig.engine.Run();  // No frame ever comes; the watchdog ends the wait.
  EXPECT_FALSE(stuck.ok);
  EXPECT_EQ(stuck.status, IoStatus::kCancelled);
  EXPECT_EQ(rig.rx_ep.stats().watchdog_cancels, 1u);
  EXPECT_FALSE(rig.rx_ep.HasPreparedInput());
  EXPECT_EQ(rig.receiver.adapter().posted_receives(1), 0u);
  ExpectDeviceBuffersFree(rig.receiver.adapter());
  rig.ExpectQuiescent();
}

INSTANTIATE_TEST_SUITE_P(AllModes, PostedInputTest,
                         ::testing::Values(InputBuffering::kEarlyDemux, InputBuffering::kPooled,
                                           InputBuffering::kOutboard),
                         [](const ::testing::TestParamInfo<InputBuffering>& param_info) {
                           return BufferingTestName(param_info.param);
                         });

}  // namespace
}  // namespace genie
