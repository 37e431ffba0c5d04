#include "perfbench/two_node.h"

#include <span>

#include "src/util/check.h"

namespace perfbench {

namespace {

genie::Task<void> PostInput(genie::Endpoint& ep, genie::AddressSpace& app, genie::Vaddr va,
                            std::uint64_t len, genie::Semantics sem, genie::InputResult* out) {
  if (genie::IsSystemAllocated(sem)) {
    *out = co_await ep.InputSystemAllocated(app, len, sem);
  } else {
    *out = co_await ep.Input(app, va, len, sem);
  }
}

}  // namespace

TwoNode::TwoNode(const Config& config, const PayloadSource& payloads)
    : payloads_(&payloads), buf_(64 * 1024) {
  genie::ExperimentConfig ec;
  ec.options.checksum_mode = config.checksum;
  ec.trace = config.trace;
  bed_ = std::make_unique<genie::Testbed>(ec);
  if (config.arq) {
    genie::ReliableOptions ropts;
    ropts.arq = true;
    ropts.window = 16;
    bed_->sender().EnableReliableDelivery(ropts);
    bed_->receiver().EnableReliableDelivery(ropts);
  }
}

TwoNode::Outcome TwoNode::Transfer(std::uint64_t id, genie::Semantics sem, std::uint64_t len,
                                   SpanRecorder* spans) {
  genie::Testbed& bed = *bed_;
  ScopedSpan xfer(spans, "xfer", id);
  if (pending_free_ != 0) {
    ScopedSpan s(spans, "io_buffer.free", id, xfer.index());
    bed.rx().FreeIoBuffer(bed.rx_app(), pending_free_);
    pending_free_ = 0;
  }
  genie::Vaddr src = bed.src_buffer();
  if (genie::IsSystemAllocated(sem)) {
    ScopedSpan s(spans, "io_buffer.alloc", id, xfer.index());
    src = bed.tx().AllocateIoBuffer(bed.tx_app(), len);
  }
  const std::span<std::byte> payload(buf_.data(), len);
  {
    ScopedSpan s(spans, "app.write", id, xfer.index());
    payloads_->Fill(id, payload);
    GENIE_CHECK(bed.tx_app().Write(src, payload) == genie::AccessResult::kOk);
  }
  genie::InputResult result;
  {
    ScopedSpan s(spans, "engine.prepost", id, xfer.index());
    std::move(PostInput(bed.rx(), bed.rx_app(), bed.dst_buffer(), len, sem, &result)).Detach();
    GENIE_CHECK(bed.engine().RunUntil([&bed] { return bed.rx().HasPreparedInput(); }))
        << "input prepare never posted";
  }
  const genie::SimTime sent_at = bed.engine().now();
  {
    ScopedSpan s(spans, "engine.run", id, xfer.index());
    std::move(bed.tx().Output(bed.tx_app(), src, len, sem)).Detach();
    bed.engine().Run();
  }
  Outcome out;
  out.ok = result.ok && result.bytes == len;
  if (out.ok) {
    ScopedSpan s(spans, "app.verify", id, xfer.index());
    out.verified = bed.rx_app().Read(result.addr, payload) == genie::AccessResult::kOk &&
                   payloads_->Verify(id, payload);
    out.sim_latency_us = genie::SimTimeToMicros(result.completed_at - sent_at);
  }
  if (genie::IsSystemAllocated(sem) && result.ok) {
    pending_free_ = result.addr;
  }
  return out;
}

void TwoNode::Drain() {
  if (pending_free_ != 0) {
    bed_->rx().FreeIoBuffer(bed_->rx_app(), pending_free_);
    pending_free_ = 0;
  }
}

TwoNodeView TwoNode::view() {
  TwoNodeView v;
  v.engine = &bed_->engine();
  v.tx_node = &bed_->sender();
  v.rx_node = &bed_->receiver();
  v.tx = &bed_->tx();
  v.rx = &bed_->rx();
  v.tx_app = &bed_->tx_app();
  v.rx_app = &bed_->rx_app();
  return v;
}

}  // namespace perfbench
