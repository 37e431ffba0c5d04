#include "src/net/fabric.h"

#include <algorithm>

#include "src/util/check.h"

namespace genie {

Fabric::Fabric(Engine& engine, Config config) : engine_(&engine), config_(config) {
  GENIE_CHECK_GT(config_.drr_quantum_bytes, 0u);
  if (config_.topology == Topology::kDumbbell) {
    trunks_[0] = std::make_unique<SwitchLink>(engine, "fabric.trunk.0to1",
                                              config_.drr_quantum_bytes);
    trunks_[1] = std::make_unique<SwitchLink>(engine, "fabric.trunk.1to0",
                                              config_.drr_quantum_bytes);
  }
  metrics_.RegisterGauge("fabric.frames_switched", [this] { return frames_switched(); });
  metrics_.RegisterGauge("fabric.backlog_frames", [this] { return backlog_frames(); });
  metrics_.RegisterGauge("fabric.backlog_peak",
                         [this] { return std::uint64_t{max_link_queue()}; });
  metrics_.RegisterGauge("fabric.arb_wait_ns",
                         [this] { return static_cast<std::uint64_t>(total_arbitration_wait()); });
  metrics_.RegisterGauge("fabric.link_flaps", [this] { return link_flaps(); });
  metrics_.RegisterGauge("fabric.down_links", [this] { return down_links(); });
  metrics_.RegisterGauge("fabric.link_down_drops", [this] { return link_down_drops(); });
}

void Fabric::Attach(Adapter& adapter, int side) {
  GENIE_CHECK(side == 0 || side == 1) << "fabric side must be 0 or 1";
  if (config_.topology == Topology::kStar) {
    side = 0;
  }
  auto [it, inserted] = ports_.try_emplace(&adapter);
  GENIE_CHECK(inserted) << "adapter " << adapter.name() << " already attached";
  Port& port = it->second;
  port.adapter = &adapter;
  port.side = side;
  port.up = std::make_unique<SwitchLink>(*engine_, "fabric." + adapter.name() + ".up",
                                         config_.drr_quantum_bytes);
  port.down = std::make_unique<SwitchLink>(*engine_, "fabric." + adapter.name() + ".down",
                                           config_.drr_quantum_bytes);
  adapter.ConnectFabric(
      [this, self = &adapter](std::uint64_t ch) { return RouteFor(*self, ch); });
}

TxPath Fabric::BuildPath(const Port& src, const Port& dst) {
  TxPath path;
  path.dst = dst.adapter;
  path.links[path.nlinks++] = src.up.get();
  if (config_.topology == Topology::kDumbbell && src.side != dst.side) {
    path.links[path.nlinks++] = trunks_[src.side].get();
  }
  path.links[path.nlinks++] = dst.down.get();
  return path;
}

void Fabric::OpenChannel(std::uint64_t ch, Adapter& a, Adapter& b) {
  GENIE_CHECK(&a != &b) << "channel " << ch << " must join two distinct adapters";
  Port& pa = PortOf(a);
  Port& pb = PortOf(b);
  auto [it, inserted] = routes_.try_emplace(ch);
  GENIE_CHECK(inserted) << "channel " << ch << " already open";
  ChannelRoute& route = it->second;
  route.a = &a;
  route.b = &b;
  route.a_to_b = BuildPath(pa, pb);
  route.b_to_a = BuildPath(pb, pa);
}

void Fabric::CloseChannel(std::uint64_t ch) {
  const std::size_t erased = routes_.erase(ch);
  GENIE_CHECK_EQ(erased, 1u) << "closing unknown channel " << ch;
}

const TxPath* Fabric::RouteFor(const Adapter& self, std::uint64_t ch) const {
  auto it = routes_.find(ch);
  if (it == routes_.end()) {
    return nullptr;
  }
  if (it->second.a == &self) {
    return &it->second.a_to_b;
  }
  if (it->second.b == &self) {
    return &it->second.b_to_a;
  }
  return nullptr;
}

Fabric::Port& Fabric::PortOf(const Adapter& adapter) {
  auto it = ports_.find(&adapter);
  GENIE_CHECK(it != ports_.end()) << "adapter " << adapter.name() << " not attached";
  return it->second;
}

std::vector<SwitchLink*> Fabric::AllLinks() const {
  std::vector<SwitchLink*> links;
  for (const auto& [adapter, port] : ports_) {
    links.push_back(port.up.get());
    links.push_back(port.down.get());
  }
  if (trunks_[0] != nullptr) {
    links.push_back(trunks_[0].get());
    links.push_back(trunks_[1].get());
  }
  std::sort(links.begin(), links.end(),
            [](const SwitchLink* a, const SwitchLink* b) { return a->name() < b->name(); });
  return links;
}

void Fabric::SetLinkDown(SwitchLink& link) {
  if (link.down()) {
    return;
  }
  link.SetDown();
  if (trace_ != nullptr) {
    trace_->Instant("fabric", "link_down " + link.name(), "fabric", engine_->now());
  }
}

void Fabric::SetLinkUp(SwitchLink& link) {
  if (!link.down()) {
    return;
  }
  link.SetUp();
  if (trace_ != nullptr) {
    trace_->Instant("fabric", "link_up " + link.name(), "fabric", engine_->now());
  }
}

void Fabric::SetPortDown(const Adapter& adapter) {
  Port& port = PortOf(adapter);
  SetLinkDown(*port.up);
  SetLinkDown(*port.down);
}

void Fabric::SetPortUp(const Adapter& adapter) {
  Port& port = PortOf(adapter);
  SetLinkUp(*port.up);
  SetLinkUp(*port.down);
}

void Fabric::SetTrunkDown(int side) { SetLinkDown(trunk(side)); }

void Fabric::SetTrunkUp(int side) { SetLinkUp(trunk(side)); }

void Fabric::HealAll() {
  for (SwitchLink* link : AllLinks()) {
    SetLinkUp(*link);
  }
}

void Fabric::ScheduleFlaps(std::uint64_t seed, SimTime horizon, SimTime mean_period,
                           SimTime mean_outage) {
  GENIE_CHECK_GT(mean_period, 0);
  GENIE_CHECK_GT(mean_outage, 0);
  const std::vector<SwitchLink*> links = AllLinks();
  GENIE_CHECK(!links.empty()) << "flap schedule on an empty fabric";
  SplitMix64 rng(seed);
  // The whole schedule is drawn up front so it is a pure function of
  // (seed, attach order); the flap events then interleave with traffic
  // deterministically through the engine's FIFO-at-same-instant ordering.
  SimTime t = 0;
  while (true) {
    t += mean_period / 2 + rng.Below(mean_period);
    if (t >= horizon) {
      break;
    }
    SwitchLink* link = links[rng.Below(links.size())];
    const SimTime outage = mean_outage / 2 + rng.Below(mean_outage);
    engine_->ScheduleAfter(t, [this, link] { SetLinkDown(*link); });
    engine_->ScheduleAfter(t + outage, [this, link] { SetLinkUp(*link); });
  }
}

void Fabric::set_trace(TraceLog* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    trace_->RegisterNode(this, "fabric");
  }
}

std::uint64_t Fabric::link_flaps() const {
  std::uint64_t total = 0;
  for (const SwitchLink* link : AllLinks()) {
    total += link->flaps();
  }
  return total;
}

std::uint64_t Fabric::link_down_drops() const {
  std::uint64_t total = 0;
  for (const SwitchLink* link : AllLinks()) {
    total += link->down_drops();
  }
  return total;
}

SwitchLink& Fabric::trunk(int side) {
  GENIE_CHECK(config_.topology == Topology::kDumbbell) << "star fabrics have no trunk";
  GENIE_CHECK(side == 0 || side == 1);
  return *trunks_[side];
}

std::uint64_t Fabric::frames_switched() const {
  std::uint64_t total = 0;
  for (const auto& [adapter, port] : ports_) {
    total += port.down->grants();
  }
  return total;
}

SimTime Fabric::total_arbitration_wait() const {
  SimTime total = 0;
  for (const auto& [adapter, port] : ports_) {
    total += port.up->total_wait() + port.down->total_wait();
  }
  if (trunks_[0] != nullptr) {
    total += trunks_[0]->total_wait() + trunks_[1]->total_wait();
  }
  return total;
}

std::uint64_t Fabric::backlog_frames() const {
  std::uint64_t total = 0;
  for (const SwitchLink* link : AllLinks()) {
    total += link->queue_length();
  }
  return total;
}

std::uint64_t Fabric::down_links() const {
  std::uint64_t total = 0;
  for (const SwitchLink* link : AllLinks()) {
    total += link->down() ? 1 : 0;
  }
  return total;
}

std::size_t Fabric::max_link_queue() const {
  std::size_t high = 0;
  for (const auto& [adapter, port] : ports_) {
    high = std::max({high, port.up->max_queue_length(), port.down->max_queue_length()});
  }
  if (trunks_[0] != nullptr) {
    high = std::max({high, trunks_[0]->max_queue_length(), trunks_[1]->max_queue_length()});
  }
  return high;
}

}  // namespace genie
