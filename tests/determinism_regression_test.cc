// Determinism regression gate for the parallel host path PR: the golden
// constants below were captured on the seed tree (before allocation points,
// the sharded pool, SIMD checksums, or any <thread> code existed in the
// build). With all of that compiled in — but unused by the simulation —
// every semantics must still produce the bit-identical event digest and the
// byte-identical critical-path JSON. Any drift means the parallel plumbing
// leaked into the deterministic path: a new event, an extra RNG draw, a
// checksum that is no longer value-identical, or sim allocations routed
// through the MT entry points.
//
// To regenerate after an *intentional* schedule change, rebuild the capture
// at the new baseline (see the PR that added this file) — never hand-edit
// the table to make a red test green.

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/genie/host_path.h"
#include "src/net/checksum.h"
#include "src/obs/critical_path.h"
#include "src/sim/trace.h"
#include "tests/genie_test_util.h"

namespace genie {
namespace {

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  Semantics sem;
  std::uint64_t event_digest;
  std::uint64_t json_fnv1a;
  std::size_t json_len;
};

// Captured at seed commit d49b881 (pooled input buffering, 32-page tx
// region, 10*4096+77-byte transfer, TestPattern seed 3).
constexpr Golden kSeedGoldens[] = {
    {Semantics::kCopy, 0x4283f7aa3d06e884ull, 0xeffb73a0033c34b3ull, 278},
    {Semantics::kEmulatedCopy, 0xda1d81c46ae955e5ull, 0xa8bba4da569dcdfeull, 295},
    {Semantics::kShare, 0x7888b065fa856783ull, 0x111e6dcda1ef2343ull, 276},
    {Semantics::kEmulatedShare, 0x88377dc9535b484aull, 0xef3d35b1ab429afcull, 298},
    {Semantics::kMove, 0xe662826a0ec4b13bull, 0x3668612bfe5ec1ddull, 274},
    {Semantics::kEmulatedMove, 0x2ed4e35be93c8006ull, 0x9092d871ded8afcbull, 295},
    {Semantics::kWeakMove, 0x9f56459c93b89961ull, 0xbf0a9ed2eb83302eull, 284},
    {Semantics::kEmulatedWeakMove, 0xc15a35c68752696aull, 0x451a2b2dedd080b0ull, 304},
};

// Outboard input buffering, otherwise the scenario above. Captured at commit
// 5d0881d, before pooled and outboard inputs posted to the adapter the way
// early-demultiplexed ones do.
constexpr Golden kOutboardGoldens[] = {
    {Semantics::kCopy, 0xf217a5442d538bffull, 0xd3111a1b16c29c70ull, 279},
    {Semantics::kEmulatedCopy, 0xe7dbf4105ac09752ull, 0x0afc30d3178da4b1ull, 295},
    {Semantics::kShare, 0x33d6a59198480481ull, 0x3a99a9f27d37c491ull, 276},
    {Semantics::kEmulatedShare, 0xfb60bf64f4bb0e7bull, 0x1df7cc8294229024ull, 297},
    {Semantics::kMove, 0x72cca49a6a6641b0ull, 0xf0804563c863d6c1ull, 274},
    {Semantics::kEmulatedMove, 0x468d9806fd655f9bull, 0x54c204685abc60caull, 295},
    {Semantics::kWeakMove, 0x737d7189b919ac86ull, 0xb380cdfda7397e2bull, 284},
    {Semantics::kEmulatedWeakMove, 0x48d16b413ce6fe77ull, 0x839446c20f2bdce4ull, 305},
};

std::string GoldenName(const ::testing::TestParamInfo<Golden>& param_info) {
  std::string name(SemanticsName(param_info.param.sem));
  for (char& c : name) {
    if (c == ' ') {
      c = '_';
    }
  }
  return name;
}

void ExpectGolden(InputBuffering mode, const Golden& g) {
  const Semantics sem = g.sem;
  TraceLog trace;
  Rig rig(mode);
  rig.sender.set_trace(&trace);
  rig.receiver.set_trace(&trace);
  constexpr Vaddr kBuf = 0x20000000;
  rig.tx_app.CreateRegion(kBuf, 32 * 4096,
                          IsSystemAllocated(sem) ? RegionState::kMovedIn
                                                 : RegionState::kUnmovable);
  if (IsApplicationAllocated(sem)) {
    rig.rx_app.CreateRegion(kBuf, 32 * 4096);
  }
  ASSERT_EQ(rig.tx_app.Write(kBuf, TestPattern(10 * 4096, 3)), AccessResult::kOk);
  const InputResult r = rig.Transfer(IsSystemAllocated(sem) ? kBuf : kBuf + 100, kBuf + 100,
                                     10 * 4096 + 77, sem);
  ASSERT_TRUE(r.ok);

  EXPECT_EQ(rig.engine.event_digest(), g.event_digest)
      << SemanticsName(sem) << ": simulation schedule drifted from the seed";

  std::ostringstream os;
  WriteBreakdownJson(os, AnalyzeTrace(trace));
  const std::string json = os.str();
  EXPECT_EQ(json.size(), g.json_len) << SemanticsName(sem);
  EXPECT_EQ(Fnv1a(json), g.json_fnv1a)
      << SemanticsName(sem) << ": critical-path JSON changed:\n" << json;
}

class DeterminismRegressionTest : public ::testing::TestWithParam<Golden> {};

TEST_P(DeterminismRegressionTest, MatchesSeedGolden) {
  ExpectGolden(InputBuffering::kPooled, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, DeterminismRegressionTest,
                         ::testing::ValuesIn(kSeedGoldens), GoldenName);

class OutboardDeterminismTest : public ::testing::TestWithParam<Golden> {};

TEST_P(OutboardDeterminismTest, MatchesGolden) {
  ExpectGolden(InputBuffering::kOutboard, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, OutboardDeterminismTest,
                         ::testing::ValuesIn(kOutboardGoldens), GoldenName);

// The goldens above hold even after the parallel machinery has actually
// *run* in the same process: a prior RunParallelFused must leave no global
// state behind (no cached allocator state, no checksum mode flip, nothing)
// that could bend a later simulation.
TEST(DeterminismRegressionTest, GoldenHoldsAfterParallelRunInSameProcess) {
  {
    PhysicalMemory scratch(256, 4096);
    ParallelFusedConfig cfg;
    cfg.threads = 2;
    cfg.ops_per_thread = 50;
    cfg.bytes_per_op = 8 * 1024 + 9;
    cfg.arena_frames = 16;
    cfg.pool_pages = 8;
    cfg.seed = 3;
    cfg.verify = true;
    RunParallelFused(scratch, cfg);
  }
  const Golden& g = kSeedGoldens[0];  // kCopy
  TraceLog trace;
  Rig rig(InputBuffering::kPooled);
  rig.sender.set_trace(&trace);
  rig.receiver.set_trace(&trace);
  constexpr Vaddr kBuf = 0x20000000;
  rig.tx_app.CreateRegion(kBuf, 32 * 4096, RegionState::kUnmovable);
  rig.rx_app.CreateRegion(kBuf, 32 * 4096);
  ASSERT_EQ(rig.tx_app.Write(kBuf, TestPattern(10 * 4096, 3)), AccessResult::kOk);
  const InputResult r = rig.Transfer(kBuf + 100, kBuf + 100, 10 * 4096 + 77, Semantics::kCopy);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(rig.engine.event_digest(), g.event_digest);
  std::ostringstream os;
  WriteBreakdownJson(os, AnalyzeTrace(trace));
  EXPECT_EQ(Fnv1a(os.str()), g.json_fnv1a);
}

}  // namespace
}  // namespace genie
