// Shared fixture for Genie end-to-end tests: two nodes joined by a network,
// one endpoint and one application process on each side.
#ifndef GENIE_TESTS_GENIE_TEST_UTIL_H_
#define GENIE_TESTS_GENIE_TEST_UTIL_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/genie/endpoint.h"
#include "src/genie/node.h"
#include "src/sim/engine.h"

namespace genie {

inline std::vector<std::byte> TestPattern(std::size_t n, unsigned char seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xFF);
  }
  return v;
}

// "EarlyDemux", "Pooled" or "Outboard": a gtest parameter name.
inline std::string BufferingTestName(InputBuffering buffering) {
  switch (buffering) {
    case InputBuffering::kEarlyDemux:
      return "EarlyDemux";
    case InputBuffering::kPooled:
      return "Pooled";
    case InputBuffering::kOutboard:
      return "Outboard";
  }
  return "Unknown";
}

// Every overlay page back in the pool, no frame held in outboard memory.
inline void ExpectDeviceBuffersFree(Adapter& adapter) {
  if (BufferPool* pool = adapter.pool(); pool != nullptr) {
    EXPECT_EQ(pool->available(), pool->capacity());
  }
  EXPECT_EQ(adapter.outboard_frames_held(), 0u);
}

struct Rig {
  explicit Rig(InputBuffering rx = InputBuffering::kEarlyDemux,
               GenieOptions options = GenieOptions{},
               MachineProfile profile = MachineProfile::MicronP166(),
               std::size_t mem_frames = 512)
      : sender(engine, "tx", Node::Config{.profile = profile, .mem_frames = mem_frames}),
        receiver(engine, "rx",
                 Node::Config{.profile = profile, .mem_frames = mem_frames, .rx_buffering = rx}),
        network(engine, sender, receiver),
        tx_ep(sender, 1, options),
        rx_ep(receiver, 1, options),
        tx_app(sender.CreateProcess("app")),
        rx_app(receiver.CreateProcess("app")) {}

  // Runs one datagram: sender outputs [src_va, len) with `sem`; receiver
  // preposts a matching input. Returns the receiver-side result.
  InputResult Transfer(Vaddr src_va, Vaddr dst_va, std::uint64_t len, Semantics sem) {
    InputResult result;
    auto input_driver = [](Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t n,
                           Semantics s, InputResult* out) -> Task<void> {
      if (IsSystemAllocated(s)) {
        *out = co_await ep.InputSystemAllocated(app, n, s);
      } else {
        *out = co_await ep.Input(app, va, n, s);
      }
    };
    std::move(input_driver(rx_ep, rx_app, dst_va, len, sem, &result)).Detach();
    std::move(tx_ep.Output(tx_app, src_va, len, sem)).Detach();
    engine.Run();
    return result;
  }

  // Reads the received payload back out of the receiver application.
  std::vector<std::byte> ReadBack(Vaddr addr, std::uint64_t len) {
    std::vector<std::byte> out(static_cast<std::size_t>(len));
    const AccessResult res = rx_app.Read(addr, out);
    GENIE_CHECK(res == AccessResult::kOk);
    return out;
  }

  // No leaked I/O refs, zombie frames, or pending operations.
  void ExpectQuiescent() const;

  Engine engine;
  Node sender;
  Node receiver;
  Network network;
  Endpoint tx_ep;
  Endpoint rx_ep;
  AddressSpace& tx_app;
  AddressSpace& rx_app;
};

inline void Rig::ExpectQuiescent() const {
  GENIE_CHECK_EQ(tx_ep.pending_operations(), 0u);
  GENIE_CHECK_EQ(rx_ep.pending_operations(), 0u);
}

// Test helper replacing the removed Adapter::InjectCrcError() shim: attaches
// a private FaultPlan to the *transmitting* adapter and queues single-shot
// kDeviceError rules. Each CorruptNextFrame() call corrupts exactly one more
// frame (the next one not already scheduled for corruption) — the old shim's
// queueing semantics, expressed as the one supported injection mechanism.
// Detaches the plan on destruction; do not combine with another plan on the
// same adapter.
class CrcErrorInjector {
 public:
  explicit CrcErrorInjector(Adapter& tx) : tx_(&tx) { tx_->set_fault_plan(&plan_); }
  ~CrcErrorInjector() { tx_->set_fault_plan(nullptr); }
  CrcErrorInjector(const CrcErrorInjector&) = delete;
  CrcErrorInjector& operator=(const CrcErrorInjector&) = delete;

  void CorruptNextFrame() {
    next_ = std::max(next_, plan_.site_ops(FaultSite::kDeviceError)) + 1;
    FaultRule rule;
    rule.site = FaultSite::kDeviceError;
    rule.nth = next_;
    rule.max_fires = 1;
    plan_.AddRule(rule);
  }

 private:
  Adapter* tx_;
  FaultPlan plan_{1};
  std::uint64_t next_ = 0;
};

}  // namespace genie

#endif  // GENIE_TESTS_GENIE_TEST_UTIL_H_
