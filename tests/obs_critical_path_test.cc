// Critical-path latency attribution: causal-graph reconstruction from a
// flow-stamped trace, deterministic per-stage breakdowns, and the golden
// property that loss recovery charges to "retransmit" while "wire" stays
// identical to the lossless run. The scenario drives all 8 semantics with
// ARQ on, lossless and with a deterministic first-frame drop per transfer.
#include "src/obs/critical_path.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mem/fault_plan.h"
#include "src/net/fabric.h"
#include "src/obs/causal_graph.h"
#include "tests/genie_test_util.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
constexpr Vaddr kSrcBase = 0x20000000;
constexpr Vaddr kDstBase = 0x30000000;
constexpr std::uint64_t kLen = 3 * kPage + 100;

struct ScenarioResult {
  std::vector<FlowBreakdown> flows;
  std::string json;
  std::string table;
};

// Runs one transfer per semantics under ARQ (no jitter: every timing exact).
// With `lossy`, a single-shot link-drop rule swallows each transfer's first
// frame, forcing exactly one timeout retransmission per flow.
ScenarioResult RunScenario(bool lossy, TraceLog* trace_out = nullptr) {
  TraceLog local;
  TraceLog& trace = trace_out != nullptr ? *trace_out : local;
  trace.Clear();
  Rig rig;
  rig.sender.set_trace(&trace);
  rig.receiver.set_trace(&trace);
  ReliableOptions opts;
  opts.arq = true;
  opts.initial_timeout = 1 * kMillisecond;
  opts.jitter_frac = 0.0;
  rig.sender.EnableReliableDelivery(opts);

  FaultPlan plan(1);
  if (lossy) {
    rig.sender.AttachFaultPlan(&plan);
  }

  for (std::size_t i = 0; i < kAllSemantics.size(); ++i) {
    const Semantics sem = kAllSemantics[i];
    const Vaddr src_region = kSrcBase + static_cast<Vaddr>(i) * 8 * kPage;
    const Vaddr dst_region = kDstBase + static_cast<Vaddr>(i) * 8 * kPage;
    rig.tx_app.CreateRegion(src_region, 8 * kPage,
                            IsSystemAllocated(sem) ? RegionState::kMovedIn
                                                   : RegionState::kUnmovable);
    Vaddr dst = 0;
    if (IsApplicationAllocated(sem)) {
      rig.rx_app.CreateRegion(dst_region, 8 * kPage);
      dst = dst_region;
    }
    const auto payload = TestPattern(kLen, static_cast<unsigned char>(i + 1));
    GENIE_CHECK(rig.tx_app.Write(src_region, payload) == AccessResult::kOk);

    if (lossy) {
      FaultRule rule;
      rule.site = FaultSite::kLinkDrop;
      rule.nth = plan.site_ops(FaultSite::kLinkDrop) + 1;
      rule.max_fires = 1;
      plan.AddRule(rule);
    }
    const InputResult r = rig.Transfer(src_region, dst, kLen, sem);
    GENIE_CHECK(r.ok) << SemanticsName(sem) << (lossy ? " lossy" : " lossless");
  }
  if (lossy) {
    rig.sender.AttachFaultPlan(nullptr);
  }
  rig.sender.set_trace(nullptr);
  rig.receiver.set_trace(nullptr);

  ScenarioResult out;
  out.flows = AnalyzeTrace(trace);
  std::ostringstream js;
  WriteBreakdownJson(js, out.flows);
  out.json = js.str();
  std::ostringstream tb;
  WriteBreakdownTable(tb, out.flows);
  out.table = tb.str();
  return out;
}

TEST(CriticalPathTest, AnalyzerJsonIsByteIdenticalAcrossRuns) {
  // The golden determinism contract: re-running the identical deterministic
  // schedule reproduces the analyzer document byte for byte — lossless and
  // with retransmissions in the event mix.
  const ScenarioResult lossless_a = RunScenario(false);
  const ScenarioResult lossless_b = RunScenario(false);
  EXPECT_EQ(lossless_a.json, lossless_b.json);
  EXPECT_FALSE(lossless_a.json.empty());

  const ScenarioResult lossy_a = RunScenario(true);
  const ScenarioResult lossy_b = RunScenario(true);
  EXPECT_EQ(lossy_a.json, lossy_b.json);
  EXPECT_NE(lossy_a.json, lossless_a.json);
}

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(CriticalPathTest, WindowOneJsonMatchesPinnedGolden) {
  // The w=1 stage shape is pinned, not just self-consistent: the goldens
  // were captured when window 1 was still a separate stop-and-wait protocol
  // with per-frame ack cells. The selective-repeat window of one must
  // reproduce every flow's stages to the nanosecond (its one-cell SACK train
  // arrives when the per-frame ack did).
  const ScenarioResult lossless = RunScenario(false);
  EXPECT_EQ(lossless.json.size(), 2228u);
  EXPECT_EQ(Fnv1a(lossless.json), 0x83bc105a984ae209ull)
      << "w=1 lossless critical path changed:\n" << lossless.json;
  const ScenarioResult lossy = RunScenario(true);
  EXPECT_EQ(lossy.json.size(), 2295u);
  EXPECT_EQ(Fnv1a(lossy.json), 0xff26362869386947ull)
      << "w=1 lossy critical path changed:\n" << lossy.json;
}

TEST(CriticalPathTest, StageTotalsSumExactlyToMakespan) {
  // Attribution is a partition of the flow's time range: the per-stage
  // totals reproduce the traced end-to-end latency exactly (the acceptance
  // bound is 1%; the sweep construction makes it 0).
  for (const bool lossy : {false, true}) {
    const ScenarioResult run = RunScenario(lossy);
    ASSERT_EQ(run.flows.size(), kAllSemantics.size());
    for (const FlowBreakdown& f : run.flows) {
      SimTime total = 0;
      for (const SimTime ns : f.stage_ns) {
        total += ns;
      }
      EXPECT_EQ(total, f.makespan) << "flow " << f.flow << " (" << f.semantics << ")";
      EXPECT_GT(f.makespan, 0);
    }
  }
}

TEST(CriticalPathTest, RetransmissionChargesToRetransmitNotWire) {
  const ScenarioResult lossless = RunScenario(false);
  const ScenarioResult lossy = RunScenario(true);
  ASSERT_EQ(lossless.flows.size(), kAllSemantics.size());
  ASSERT_EQ(lossy.flows.size(), kAllSemantics.size());

  for (std::size_t i = 0; i < kAllSemantics.size(); ++i) {
    const FlowBreakdown& clean = lossless.flows[i];
    const FlowBreakdown& lost = lossy.flows[i];
    ASSERT_EQ(clean.semantics, SemanticsName(kAllSemantics[i]));
    ASSERT_EQ(lost.semantics, clean.semantics);

    // The dropped first attempt and its timed-out ack wait are loss recovery:
    // all the extra latency lands under "retransmit"...
    EXPECT_EQ(clean.stage(Stage::kRetransmit), 0) << clean.semantics;
    EXPECT_GT(lost.stage(Stage::kRetransmit), 0) << lost.semantics;
    EXPECT_GT(lost.makespan, clean.makespan) << lost.semantics;
    // ...while "wire" (one real delivery's occupancy) is identical to the
    // lossless run: same frame, same link rate.
    EXPECT_EQ(lost.stage(Stage::kWire), clean.stage(Stage::kWire)) << lost.semantics;
    EXPECT_GT(clean.stage(Stage::kWire), 0) << clean.semantics;
    // ARQ was genuinely on in both: the final ack round trip is visible.
    EXPECT_GT(clean.stage(Stage::kAckWait), 0) << clean.semantics;
    // And the host stages of the taxonomy are present on both sides.
    EXPECT_GT(clean.stage(Stage::kPrepare), 0) << clean.semantics;
    EXPECT_GT(clean.stage(Stage::kDispose), 0) << clean.semantics;
  }
}

TEST(CriticalPathTest, CausalGraphJoinsReceiverPrepareByLabel) {
  TraceLog trace;
  const ScenarioResult run = RunScenario(false, &trace);
  const std::vector<std::uint64_t> flows = Flows(trace);
  ASSERT_EQ(flows.size(), kAllSemantics.size());
  // Ascending, deterministic enumeration.
  for (std::size_t i = 1; i < flows.size(); ++i) {
    EXPECT_LT(flows[i - 1], flows[i]);
  }

  const CausalGraph graph = BuildCausalGraph(trace, flows[0]);
  EXPECT_EQ(graph.flow, flows[0]);
  EXPECT_EQ(graph.semantics, SemanticsName(kAllSemantics[0]));
  EXPECT_EQ(graph.label.substr(0, 4), "out#");
  // The receiver's prepare happened before the sender existed, so it carries
  // flow 0 — the label join must still pull it into the graph.
  bool joined_prepare = false;
  for (const CausalEvent& e : graph.events) {
    if (e.label_joined && e.name.find(".prepare") != std::string::npos) {
      joined_prepare = true;
      EXPECT_EQ(e.name.substr(0, 3), "in#");
    }
    EXPECT_GE(e.start, graph.start());
    EXPECT_LE(e.end, graph.end());
  }
  EXPECT_TRUE(joined_prepare);
  EXPECT_EQ(graph.makespan(), run.flows[0].makespan);
}

// Windowed-mode scenario: `kBurst` concurrent copy-semantics transfers on
// one channel under a selective-repeat window. With `lossy`, one single-shot
// link-drop rule swallows the second wire frame, forcing exactly one timeout
// retransmission in the burst.
constexpr int kBurst = 4;

ScenarioResult RunWindowedScenario(std::uint32_t window, bool lossy) {
  TraceLog trace;
  Rig rig;
  rig.sender.set_trace(&trace);
  rig.receiver.set_trace(&trace);
  ReliableOptions opts;
  opts.arq = true;
  opts.window = window;
  opts.initial_timeout = 1 * kMillisecond;
  opts.jitter_frac = 0.0;
  rig.sender.EnableReliableDelivery(opts);
  rig.receiver.EnableReliableDelivery(opts);

  FaultPlan plan(1);
  if (lossy) {
    rig.sender.AttachFaultPlan(&plan);
    FaultRule rule;
    rule.site = FaultSite::kLinkDrop;
    rule.nth = 2;
    rule.max_fires = 1;
    plan.AddRule(rule);
  }

  std::vector<InputResult> results(kBurst);
  auto input_driver = [](Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t n,
                         InputResult* out) -> Task<void> {
    *out = co_await ep.Input(app, va, n, Semantics::kCopy);
  };
  for (int i = 0; i < kBurst; ++i) {
    const Vaddr src = kSrcBase + static_cast<Vaddr>(i) * 8 * kPage;
    const Vaddr dst = kDstBase + static_cast<Vaddr>(i) * 8 * kPage;
    rig.tx_app.CreateRegion(src, 8 * kPage);
    rig.rx_app.CreateRegion(dst, 8 * kPage);
    GENIE_CHECK(rig.tx_app.Write(src, TestPattern(kLen, static_cast<unsigned char>(i + 1))) ==
                AccessResult::kOk);
    std::move(input_driver(rig.rx_ep, rig.rx_app, dst, kLen, &results[i])).Detach();
    std::move(rig.tx_ep.Output(rig.tx_app, src, kLen, Semantics::kCopy)).Detach();
  }
  rig.engine.Run();
  for (int i = 0; i < kBurst; ++i) {
    GENIE_CHECK(results[i].ok) << "windowed transfer " << i;
  }
  if (lossy) {
    rig.sender.AttachFaultPlan(nullptr);
  }
  rig.sender.set_trace(nullptr);
  rig.receiver.set_trace(nullptr);

  ScenarioResult out;
  out.flows = AnalyzeTrace(trace);
  std::ostringstream js;
  WriteBreakdownJson(js, out.flows);
  out.json = js.str();
  std::ostringstream tb;
  WriteBreakdownTable(tb, out.flows);
  out.table = tb.str();
  return out;
}

TEST(CriticalPathTest, WindowedStageTotalsSumExactlyToMakespan) {
  // The partition property holds under pipelined acks, SACK trains, window
  // stalls, and per-entry retransmissions just as at window 1.
  for (const bool lossy : {false, true}) {
    for (const std::uint32_t window : {2u, 8u}) {
      const ScenarioResult run = RunWindowedScenario(window, lossy);
      ASSERT_EQ(run.flows.size(), static_cast<std::size_t>(kBurst));
      for (const FlowBreakdown& f : run.flows) {
        SimTime total = 0;
        for (const SimTime ns : f.stage_ns) {
          total += ns;
        }
        EXPECT_EQ(total, f.makespan)
            << "flow " << f.flow << " window " << window << (lossy ? " lossy" : "");
        EXPECT_GT(f.makespan, 0);
      }
    }
  }
}

TEST(CriticalPathTest, WindowedJsonIsByteIdenticalAcrossRuns) {
  const ScenarioResult a = RunWindowedScenario(8, true);
  const ScenarioResult b = RunWindowedScenario(8, true);
  EXPECT_EQ(a.json, b.json);
  EXPECT_FALSE(a.json.empty());
  EXPECT_NE(a.json.find("\"window_stall\""), std::string::npos);
}

TEST(CriticalPathTest, WindowStallChargedWhenWindowSaturates) {
  // A window of 2 cannot admit a burst of 4 at once: later transfers park in
  // admission and their stall time is attributed to window_stall. A window
  // wide enough for the whole burst never stalls.
  const ScenarioResult narrow = RunWindowedScenario(2, false);
  SimTime stalled = 0;
  for (const FlowBreakdown& f : narrow.flows) {
    stalled += f.stage(Stage::kWindowStall);
    EXPECT_EQ(f.stage(Stage::kRetransmit), 0) << f.flow;
  }
  EXPECT_GT(stalled, 0);

  const ScenarioResult wide = RunWindowedScenario(8, false);
  for (const FlowBreakdown& f : wide.flows) {
    EXPECT_EQ(f.stage(Stage::kWindowStall), 0) << f.flow;
    EXPECT_EQ(f.stage(Stage::kRetransmit), 0) << f.flow;
  }
}

TEST(CriticalPathTest, WindowedRetransmissionChargesToRetransmit) {
  // One frame of the burst is dropped once: exactly one flow pays a timeout
  // retransmission, charged to "retransmit"; ack pipelining keeps every
  // other flow's breakdown free of it.
  const ScenarioResult lossy = RunWindowedScenario(8, true);
  int flows_with_retransmit = 0;
  for (const FlowBreakdown& f : lossy.flows) {
    if (f.stage(Stage::kRetransmit) > 0) {
      ++flows_with_retransmit;
      // The retransmitted flow's recovery dominates its makespan: the 1 ms
      // timeout dwarfs the clean path.
      EXPECT_GT(f.stage(Stage::kRetransmit), f.stage(Stage::kWire));
    }
    EXPECT_GT(f.stage(Stage::kWire), 0) << f.flow;
  }
  EXPECT_EQ(flows_with_retransmit, 1);
}

// Fabric scenario: three copy transfers incast onto node 0's egress link of
// a 4-node star. `contended` launches them concurrently (the second and
// third serialize behind the first in DRR arbitration); otherwise they run
// back-to-back and never wait for a grant.
ScenarioResult RunFabricScenario(bool contended) {
  TraceLog trace;
  Engine engine;
  Fabric fabric(engine, Fabric::Config{Fabric::Topology::kStar, 4096});
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<AddressSpace*> apps;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<Node>(engine, "n" + std::to_string(i),
                                           Node::Config{}));
    fabric.Attach(nodes.back()->adapter(), 0);
    apps.push_back(&nodes.back()->CreateProcess("app"));
    nodes.back()->set_trace(&trace);
  }

  constexpr int kTransfers = 3;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  std::vector<InputResult> results(kTransfers);
  auto input_driver = [](Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t n,
                         InputResult* out) -> Task<void> {
    *out = co_await ep.Input(app, va, n, Semantics::kCopy);
  };
  for (int t = 0; t < kTransfers; ++t) {
    const std::size_t from = static_cast<std::size_t>(t) + 1;
    const std::uint64_t channel = static_cast<std::uint64_t>(t) + 1;
    endpoints.push_back(std::make_unique<Endpoint>(*nodes[from], channel));
    Endpoint& tx_ep = *endpoints.back();
    endpoints.push_back(std::make_unique<Endpoint>(*nodes[0], channel));
    Endpoint& rx_ep = *endpoints.back();
    fabric.OpenChannel(channel, nodes[from]->adapter(), nodes[0]->adapter());

    const Vaddr src = kSrcBase;
    const Vaddr dst = kDstBase + static_cast<Vaddr>(t) * 8 * kPage;
    apps[from]->CreateRegion(src, 8 * kPage);
    apps[0]->CreateRegion(dst, 8 * kPage);
    GENIE_CHECK(apps[from]->Write(src, TestPattern(kLen, static_cast<unsigned char>(t + 1))) ==
                AccessResult::kOk);
    std::move(input_driver(rx_ep, *apps[0], dst, kLen, &results[t])).Detach();
    std::move(tx_ep.Output(*apps[from], src, kLen, Semantics::kCopy)).Detach();
    if (!contended) {
      engine.Run();
    }
  }
  if (contended) {
    engine.Run();
  }
  for (int t = 0; t < kTransfers; ++t) {
    GENIE_CHECK(results[t].ok) << "fabric transfer " << t;
  }
  for (auto& node : nodes) {
    node->set_trace(nullptr);
  }

  ScenarioResult out;
  out.flows = AnalyzeTrace(trace);
  std::ostringstream js;
  WriteBreakdownJson(js, out.flows);
  out.json = js.str();
  std::ostringstream tb;
  WriteBreakdownTable(tb, out.flows);
  out.table = tb.str();
  return out;
}

TEST(CriticalPathTest, FabricStageTotalsSumExactlyToMakespan) {
  // The partition property survives the switch hops: arbitration wait is a
  // first-class stage, so the per-stage totals still reproduce the traced
  // makespan exactly for every flow crossing the fabric.
  for (const bool contended : {false, true}) {
    const ScenarioResult run = RunFabricScenario(contended);
    ASSERT_EQ(run.flows.size(), 3u) << (contended ? "contended" : "serial");
    for (const FlowBreakdown& f : run.flows) {
      SimTime total = 0;
      for (const SimTime ns : f.stage_ns) {
        total += ns;
      }
      EXPECT_EQ(total, f.makespan)
          << "flow " << f.flow << (contended ? " contended" : " serial");
      EXPECT_GT(f.makespan, 0);
    }
  }
}

TEST(CriticalPathTest, FabricContentionChargesToFabricWait) {
  // Serialized transfers never wait for a grant; a concurrent incast makes
  // the later flows' arbitration time visible under "fabric_wait" and
  // nowhere else (wire stays one frame's occupancy either way).
  const ScenarioResult serial = RunFabricScenario(false);
  for (const FlowBreakdown& f : serial.flows) {
    EXPECT_EQ(f.stage(Stage::kFabricWait), 0) << f.flow;
    EXPECT_GT(f.stage(Stage::kWire), 0) << f.flow;
  }

  const ScenarioResult contended = RunFabricScenario(true);
  SimTime waited = 0;
  for (const FlowBreakdown& f : contended.flows) {
    waited += f.stage(Stage::kFabricWait);
    EXPECT_EQ(f.stage(Stage::kWire), serial.flows.front().stage(Stage::kWire)) << f.flow;
  }
  // Two of the three flows queued behind the first's ~740 us frame.
  EXPECT_GT(waited, 0);
}

TEST(CriticalPathTest, FabricJsonIsByteIdenticalAcrossRuns) {
  const ScenarioResult a = RunFabricScenario(true);
  const ScenarioResult b = RunFabricScenario(true);
  EXPECT_EQ(a.json, b.json);
  EXPECT_FALSE(a.json.empty());
  EXPECT_NE(a.json.find("\"fabric_wait\""), std::string::npos);
}

TEST(CriticalPathTest, BreakdownTableGroupsBySemantics) {
  const ScenarioResult run = RunScenario(false);
  // One row per semantics plus a header naming every stage column.
  for (const Semantics sem : kAllSemantics) {
    EXPECT_NE(run.table.find(SemanticsName(sem)), std::string::npos) << run.table;
  }
  for (const char* stage : {"prepare", "wire", "ack_wait", "retransmit", "dispose"}) {
    EXPECT_NE(run.table.find(stage), std::string::npos) << run.table;
  }
}

}  // namespace
}  // namespace genie
