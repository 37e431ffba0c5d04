// Endpoint bulk lifecycle: a fabric workload creates endpoints by the
// thousand, so (a) construction must be cheap — GenieOptions::register_metrics
// = false adds nothing to the node's metrics registry — and (b) destruction
// must leave every per-channel table empty: gauges and fabric routes. A
// single stale entry here is a dangling `this` capture waiting for the next
// snapshot or frame arrival. Revoking the posting of an input still waiting
// at teardown is covered, per input-buffering mode, by
// genie_posted_input_test.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/fabric.h"
#include "tests/genie_test_util.h"

namespace genie {
namespace {

constexpr std::size_t kNodes = 4;
constexpr std::uint64_t kChannels = 1000;  // 2 endpoints each

TEST(EndpointScaleTest, RegisterMetricsOffAddsNoGauges) {
  Engine engine;
  Node node(engine, "n", Node::Config{});
  const std::size_t baseline = node.metrics().gauge_count();

  GenieOptions quiet;
  quiet.register_metrics = false;
  {
    Endpoint ep(node, 1, quiet);
    EXPECT_EQ(node.metrics().gauge_count(), baseline);
  }
  // The default still registers per-endpoint gauges — and removes them.
  {
    Endpoint ep(node, 2);
    EXPECT_GT(node.metrics().gauge_count(), baseline);
  }
  EXPECT_EQ(node.metrics().gauge_count(), baseline);
}

TEST(EndpointScaleTest, BulkQuietEndpointsRegisterNothingWhileAlive) {
  Engine engine;
  Fabric fabric(engine, Fabric::Config{});
  std::vector<std::unique_ptr<Node>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<Node>(engine, "n" + std::to_string(i), Node::Config{}));
    fabric.Attach(nodes.back()->adapter());
  }
  std::vector<std::size_t> baseline;
  for (const auto& n : nodes) {
    baseline.push_back(n->metrics().gauge_count());
  }

  GenieOptions quiet;
  quiet.register_metrics = false;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  for (std::uint64_t ch = 1; ch <= kChannels; ++ch) {
    Node& tx = *nodes[ch % kNodes];
    Node& rx = *nodes[(ch + 1) % kNodes];
    fabric.OpenChannel(ch, tx.adapter(), rx.adapter());
    endpoints.push_back(std::make_unique<Endpoint>(tx, ch, quiet));
    endpoints.push_back(std::make_unique<Endpoint>(rx, ch, quiet));
  }
  ASSERT_EQ(endpoints.size(), 2 * kChannels);
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(nodes[i]->metrics().gauge_count(), baseline[i]) << "node " << i;
  }
  EXPECT_EQ(fabric.channels(), kChannels);
}

// The full teardown property, per input-buffering mode: populate a 4-node
// fabric with 2000 endpoints, pass live traffic through a sample of them,
// destroy everything, and count the registry entries left behind.
TEST(EndpointScaleTest, ThousandsOfEndpointsTearDownClean) {
  for (const InputBuffering mode :
       {InputBuffering::kEarlyDemux, InputBuffering::kPooled, InputBuffering::kOutboard}) {
    Engine engine;
    Fabric fabric(engine, Fabric::Config{});
    Node::Config node_cfg;
    node_cfg.rx_buffering = mode;
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<AddressSpace*> apps;
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(
          std::make_unique<Node>(engine, "n" + std::to_string(i), node_cfg));
      fabric.Attach(nodes.back()->adapter());
      apps.push_back(&nodes.back()->CreateProcess("app"));
    }
    std::vector<std::size_t> baseline;
    for (const auto& n : nodes) {
      baseline.push_back(n->metrics().gauge_count());
    }

    std::vector<std::unique_ptr<Endpoint>> endpoints;
    for (std::uint64_t ch = 1; ch <= kChannels; ++ch) {
      Node& tx = *nodes[ch % kNodes];
      Node& rx = *nodes[(ch + 1) % kNodes];
      fabric.OpenChannel(ch, tx.adapter(), rx.adapter());
      endpoints.push_back(std::make_unique<Endpoint>(tx, ch));
      endpoints.push_back(std::make_unique<Endpoint>(rx, ch));
    }

    // The population is live, not inert: drive golden transfers through a
    // sample of channels spread across the id space.
    constexpr std::uint64_t kLen = 3000;
    constexpr Vaddr kSrc = 0x100000;
    constexpr Vaddr kDst = 0x200000;
    auto input_driver = [](Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t n,
                           InputResult* out) -> Task<void> {
      *out = co_await ep.Input(app, va, n, Semantics::kCopy);
    };
    for (const std::uint64_t ch : {std::uint64_t{1}, kChannels / 2, kChannels}) {
      Endpoint& tx_ep = *endpoints[2 * (ch - 1)];
      Endpoint& rx_ep = *endpoints[2 * (ch - 1) + 1];
      AddressSpace& tx_app = *apps[ch % kNodes];
      AddressSpace& rx_app = *apps[(ch + 1) % kNodes];
      tx_app.CreateRegion(kSrc, 4096);
      rx_app.CreateRegion(kDst, 4096);
      const auto payload = TestPattern(kLen, static_cast<unsigned char>(ch));
      ASSERT_EQ(tx_app.Write(kSrc, payload), AccessResult::kOk);
      InputResult result;
      std::move(input_driver(rx_ep, rx_app, kDst, kLen, &result)).Detach();
      std::move(tx_ep.Output(tx_app, kSrc, kLen, Semantics::kCopy)).Detach();
      engine.Run();
      ASSERT_TRUE(result.ok) << "channel " << ch;
      std::vector<std::byte> got(kLen);
      ASSERT_EQ(rx_app.Read(result.addr, got), AccessResult::kOk);
      EXPECT_EQ(got, payload) << "channel " << ch;
      tx_app.RemoveRegion(kSrc);
      rx_app.RemoveRegion(kDst);
    }

    // Teardown: destroy all 2000 endpoints and close every route.
    endpoints.clear();
    for (std::uint64_t ch = 1; ch <= kChannels; ++ch) {
      fabric.CloseChannel(ch);
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      EXPECT_EQ(nodes[i]->metrics().gauge_count(), baseline[i])
          << "node " << i << " mode " << static_cast<int>(mode);
      // A snapshot after teardown must not touch freed endpoints.
      (void)nodes[i]->metrics().Snapshot();
    }
    EXPECT_EQ(fabric.channels(), 0u);
  }
}

}  // namespace
}  // namespace genie
