// Charge-sequence golden: the ordered cost charges of every prepare and
// dispose phase, per semantics and input-buffering architecture.
//
// genie_opcount_test pins op multisets for two configurations; a change
// that swaps two charges of one phase keeps every multiset and every
// latency, and passes it. Each instance here runs its semantics over every
// ablation option set, checksum mode, receive offset, length and
// allocation-fault variant (see Faults), each as a 4-leg ping-pong between two nodes
// (system-allocated regions bounce back, so the receiving side's region
// cache is hit), and folds into one FNV-1a value (tests/soak_golden.h):
//   * every charge, in order, as (side, op, bytes, cost);
//   * each input's InputResult and whether it holds the sent bytes;
//   * both endpoints' Stats and both nodes' free and zombie frames;
//   * the event digest, the event count and the end time;
//   * the VmInvariants violation count.
// A mismatch names the instance and prints the new fold. Re-pin only for a
// change that moves simulated results on purpose, and say which instances
// moved and why.
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/mem/fault_plan.h"
#include "src/vm/invariants.h"
#include "tests/genie_test_util.h"
#include "tests/soak_golden.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
constexpr std::uint64_t kBufBytes = 16 * kPage;
constexpr Vaddr kSrc = 0x20000000;    // application-allocated source
constexpr Vaddr kDst = 0x30000000;    // application-allocated destination
constexpr Vaddr kFlush = 0x40000000;  // copy output that flushes a stranded input
// 256 sits under both copy-conversion thresholds, 2048 over both.
constexpr std::array<std::uint64_t, 4> kLengths = {256, 2048, 12388, 61440};

// 20% frame and 30% run allocation faults on both nodes, seeded per
// scenario and armed after every source is written. The paged-out variant
// first pages each node's application memory out, so the prepares' and
// disposes' page-ins meet the faults too (a move-family output that cannot
// page its source in falls back to copy).
enum class Faults { kNone, kAllocation, kAllocationPagedOut };

// Defaults, each optimization switched off in turn, and fallback on.
std::vector<GenieOptions> OptionSets() {
  std::vector<GenieOptions> sets(7);
  sets[1].enable_tcow = false;
  sets[2].enable_input_alignment = false;
  sets[3].enable_region_hiding = false;
  sets[4].enable_input_disabled_pageout = false;
  sets[5].enable_copy_conversion = false;
  sets[6].enable_semantics_fallback = true;
  return sets;
}

struct Fold {
  std::uint64_t value = kFnvOffsetBasis;
  template <typename... Words>
  void Add(Words... words) {
    ((value = FnvFold(value, static_cast<std::uint64_t>(words))), ...);
  }
};

// One node's half of the ping-pong: its endpoint, its process, and where
// its next output comes from (0: a fresh source).
struct Side {
  Node* node;
  Endpoint* ep;
  AddressSpace* app;
  Vaddr next_src = 0;
  std::vector<Vaddr> spares;  // pattern-filled moved-in regions, one per send
};

struct PingPong {
  PingPong(InputBuffering arch, const GenieOptions& options)
      : a(engine, "a", Node::Config{.mem_frames = 512, .rx_buffering = arch}),
        b(engine, "b", Node::Config{.mem_frames = 512, .rx_buffering = arch}),
        network(engine, a, b),
        ep_a(a, 1, options),
        ep_b(b, 1, options),
        app_a(a.CreateProcess("app")),
        app_b(b.CreateProcess("app")) {}

  Engine engine;
  Node a;
  Node b;
  Network network;
  Endpoint ep_a;
  Endpoint ep_b;
  AddressSpace& app_a;
  AddressSpace& app_b;
};

void FoldResult(const InputResult& r, Fold& f) {
  f.Add(r.ok, r.crc_ok, r.checksum_ok, r.status, r.addr, r.bytes, r.completed_at);
}

void FoldStats(const Endpoint::Stats& s, Fold& f) {
  f.Add(s.outputs, s.inputs, s.outputs_converted_to_copy, s.pages_swapped, s.reverse_copyouts,
        s.bytes_swapped, s.bytes_copied, s.crc_failures, s.region_cache_hits,
        s.region_cache_misses, s.regions_remapped_at_dispose, s.failed_outputs,
        s.failed_inputs, s.recovered_transfers, s.semantics_fallbacks, s.watchdog_cancels,
        s.ring_submits, s.ring_drains, s.ring_completions);
}

Task<void> PostInput(Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t len,
                     Semantics sem, InputResult* out, bool* done) {
  if (IsSystemAllocated(sem)) {
    *out = co_await ep.InputSystemAllocated(app, len, sem);
  } else {
    *out = co_await ep.Input(app, va, len, sem);
  }
  *done = true;
}

// Runs one scenario, its faults drawn from `seed`, and folds it into `f`.
void RunScenario(Semantics sem, InputBuffering arch, const GenieOptions& options,
                 std::uint32_t offset, std::uint64_t len, Faults faults, std::uint64_t seed,
                 Fold& f) {
  PingPong rig(arch, options);
  const std::vector<std::byte> pattern = TestPattern(static_cast<std::size_t>(len), 5);
  Side sides[2] = {{.node = &rig.a, .ep = &rig.ep_a, .app = &rig.app_a, .spares = {}},
                   {.node = &rig.b, .ep = &rig.ep_b, .app = &rig.app_b, .spares = {}}};
  for (std::uint64_t side = 0; side < 2; ++side) {
    Side& s = sides[side];
    s.ep->set_op_probe([&f, side](OpKind op, std::uint64_t bytes, SimTime cost) {
      f.Add(side, op, bytes, cost);
    });
    // Every source is written before faults are armed.
    s.app->CreateRegion(kFlush, kBufBytes, RegionState::kUnmovable);
    GENIE_CHECK(s.app->Write(kFlush, pattern) == AccessResult::kOk);
    if (IsSystemAllocated(sem)) {
      for (int i = 0; i < 2; ++i) {
        const Vaddr spare = s.ep->AllocateIoBuffer(*s.app, len);
        GENIE_CHECK(s.app->Write(spare, pattern) == AccessResult::kOk);
        s.spares.push_back(spare);
      }
    } else {
      s.app->CreateRegion(kSrc, kBufBytes, RegionState::kUnmovable);
      s.app->CreateRegion(kDst, kBufBytes);
      GENIE_CHECK(s.app->Write(kSrc, pattern) == AccessResult::kOk);
    }
  }
  FaultPlan plan(seed);
  if (faults == Faults::kAllocationPagedOut) {
    for (const Side& s : sides) {
      s.node->pageout().EvictUntilFree(s.node->vm().pm().num_frames());
    }
  }
  if (faults != Faults::kNone) {
    FaultRule rule;
    rule.site = FaultSite::kFrameAllocate;
    rule.probability = 0.2;
    plan.AddRule(rule);
    rule.site = FaultSite::kFrameAllocateRun;
    rule.probability = 0.3;
    plan.AddRule(rule);
    rig.a.AttachFaultPlan(&plan);
    rig.b.AttachFaultPlan(&plan);
  }

  for (int leg = 0; leg < 4; ++leg) {
    Side& from = sides[leg % 2];
    Side& to = sides[1 - leg % 2];
    if (from.next_src == 0) {
      if (IsSystemAllocated(sem)) {
        from.next_src = from.spares.back();
        from.spares.pop_back();
      } else {
        from.next_src = kSrc;
      }
    }
    InputResult result;
    bool done = false;
    std::move(PostInput(*to.ep, *to.app, kDst + offset, len, sem, &result, &done)).Detach();
    std::move(from.ep->Output(*from.app, from.next_src, len, sem)).Detach();
    rig.engine.Run();
    // A failed output strands the posted input: flush it with copy outputs,
    // faults off after four tries.
    for (int flush = 0; !done; ++flush) {
      GENIE_CHECK_LT(flush, 8) << "input never completed";
      if (flush == 4) {
        plan.Clear();
      }
      std::move(from.ep->Output(*from.app, kFlush, len, Semantics::kCopy)).Detach();
      rig.engine.Run();
    }
    FoldResult(result, f);
    std::uint64_t payload = 3;  // not delivered
    if (result.ok) {
      std::vector<std::byte> got(static_cast<std::size_t>(len));
      payload = to.app->Read(result.addr, got) != AccessResult::kOk ? 2
                : std::memcmp(got.data(), pattern.data(), got.size()) == 0 ? 1
                                                                           : 0;
    }
    f.Add(payload);
    // The receiver sends what it received next; after a failed input it
    // sends a fresh source.
    to.next_src = result.ok ? result.addr : 0;
  }
  rig.a.AttachFaultPlan(nullptr);
  rig.b.AttachFaultPlan(nullptr);

  std::uint64_t violations = 0;
  for (const Side& s : sides) {
    FoldStats(s.ep->stats(), f);
    f.Add(s.node->vm().pm().free_frames());
    f.Add(s.node->vm().pm().zombie_frames());
    violations += VmInvariants::CheckAll(s.node->vm(), *s.app, /*expect_quiescent=*/true)
                      .violations.size();
  }
  f.Add(rig.engine.event_digest());
  f.Add(rig.engine.events_executed());
  f.Add(rig.engine.now());
  f.Add(violations);
}

std::uint64_t FoldInstance(Semantics sem, InputBuffering arch) {
  Fold f;
  std::uint64_t seed = 0;  // One per scenario: each draws its own faults.
  const std::vector<std::uint32_t> offsets =
      IsApplicationAllocated(sem) ? std::vector<std::uint32_t>{0, 1000}
                                  : std::vector<std::uint32_t>{0};
  for (GenieOptions options : OptionSets()) {
    for (const ChecksumMode mode :
         {ChecksumMode::kNone, ChecksumMode::kSeparatePass, ChecksumMode::kIntegrated}) {
      options.checksum_mode = mode;
      for (const std::uint32_t offset : offsets) {
        for (const std::uint64_t len : kLengths) {
          for (const Faults faults :
               {Faults::kNone, Faults::kAllocation, Faults::kAllocationPagedOut}) {
            RunScenario(sem, arch, options, offset, len, faults, ++seed, f);
          }
        }
      }
    }
  }
  return f.value;
}

// Indexed [semantics][architecture], in kAllSemantics order and
// early demux, pooled, outboard.
constexpr std::uint64_t kGolden[8][3] = {
    {0x4cc5469a1241fd34ull, 0x2596237325f52ee0ull, 0xbea6f1b63e3fe640ull},
    {0xb3045dbc51415711ull, 0xb6021ceebca895a5ull, 0x55ccb9527c57d778ull},
    {0xcab4fc19cc354b28ull, 0xe0318b33f24e09a7ull, 0x2b8a16a763122186ull},
    {0x91cb8c294c354e05ull, 0x60055f4366f7917cull, 0x6fc94f5ba732192dull},
    {0x87da498ab04ab3b4ull, 0x14c2eef163d8bad6ull, 0x1d08994cf707190aull},
    {0xc50fc6d625c0554full, 0x07261722ab18895eull, 0x4ab0083bda8a371cull},
    {0x9e92603ee88486caull, 0xaedaa0b75d16c534ull, 0x51ab5ae37782c3d1ull},
    {0x4d2219147ba94e28ull, 0x0ab014203710d9adull, 0xe81725fc6cbcbab4ull},
};

constexpr std::array<InputBuffering, 3> kArchitectures = {
    InputBuffering::kEarlyDemux, InputBuffering::kPooled, InputBuffering::kOutboard};

using GoldenParam = std::tuple<std::size_t, std::size_t>;  // semantics, architecture

class ChargeGoldenTest : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(ChargeGoldenTest, ChargeSequenceMatchesGolden) {
  const auto [s, a] = GetParam();
  const std::uint64_t fold = FoldInstance(kAllSemantics[s], kArchitectures[a]);
  EXPECT_EQ(fold, kGolden[s][a]) << SemanticsName(kAllSemantics[s]) << " / "
                                 << InputBufferingName(kArchitectures[a]) << ": new fold 0x"
                                 << std::hex << fold;
}

INSTANTIATE_TEST_SUITE_P(
    AllSemanticsAllBuffering, ChargeGoldenTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, 8), ::testing::Range<std::size_t>(0, 3)),
    [](const ::testing::TestParamInfo<GoldenParam>& param_info) {
      std::string name(SemanticsName(kAllSemantics[std::get<0>(param_info.param)]));
      name += "_" + BufferingTestName(kArchitectures[std::get<1>(param_info.param)]);
      for (char& c : name) {
        if (c == ' ') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace genie
