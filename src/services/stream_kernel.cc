#include "src/services/stream_kernel.h"

#include <algorithm>

#include "src/sim/fault.h"
#include "src/sim/wire.h"
#include "src/vfpga/checkpoint.h"

namespace coyote {
namespace services {

uint32_t StreamKernel::NumStreams() const {
  return port_ == Port::kHost ? region_->config().num_host_streams
                              : region_->config().num_net_streams;
}

axi::Stream& StreamKernel::In(uint32_t i) {
  return port_ == Port::kHost ? region_->host_in(i) : region_->net_in(i);
}

axi::Stream& StreamKernel::Out(uint32_t i) {
  return port_ == Port::kHost ? region_->host_out(i) : region_->net_out(i);
}

void StreamKernel::Attach(vfpga::Vfpga* region) {
  region_ = region;
  pipe_free_cycle_ = 0;
  // A freshly programmed bitstream starts healthy; the hang decision (if a
  // fault injector is wired) is drawn when the first data arrives.
  hang_decided_ = false;
  wedged_ = false;
  for (uint32_t i = 0; i < NumStreams(); ++i) {
    In(i).set_on_data([this, i]() { Pump(i); });
    // Drain anything already queued.
    Pump(i);
  }
}

void StreamKernel::Detach() {
  if (region_ != nullptr) {
    for (uint32_t i = 0; i < NumStreams(); ++i) {
      In(i).set_on_data(nullptr);
    }
    region_ = nullptr;
  }
}

void StreamKernel::SaveState(std::vector<uint8_t>* out) const {
  sim::wire::Writer w = vfpga::ckpt::Begin();
  w.U64(bytes_processed_);
  *out = std::move(w).Seal();
}

bool StreamKernel::RestoreState(const std::vector<uint8_t>& blob) {
  sim::wire::Reader r = vfpga::ckpt::Open(blob);
  const uint64_t bytes = r.U64();
  if (!r.ok() || !r.AtEnd()) {
    return false;
  }
  bytes_processed_ = bytes;
  // Per-residency state stays reset: the restored kernel starts with an
  // empty pipe and a fresh hang draw (Attach already cleared them).
  return true;
}

void StreamKernel::Pump(uint32_t stream_index) {
  auto& in = In(stream_index);
  if (!in.Empty() && !hang_decided_) {
    hang_decided_ = true;
    sim::FaultInjector* injector = region_->fault_injector();
    if (injector != nullptr && injector->NextKernelHang()) {
      wedged_ = true;
    }
  }
  if (wedged_) {
    // Hung pipeline: input accumulates unconsumed, no beats retire, and the
    // client's transfer never completes — exactly the silent-stall signature
    // the Supervisor's watchdog exists to catch.
    return;
  }
  while (!in.Empty()) {
    auto pkt = in.Pop();
    const uint64_t n = pkt->data.size();
    bytes_processed_ += n;
    region_->RetireBeat(pkt->beats());

    // Service time on the shared pipe.
    const sim::Clock& clk = sim::kSystemClock;
    const uint64_t now_cycle = clk.PsToCycles(region_->engine()->Now());
    const uint64_t start = std::max(now_cycle, pipe_free_cycle_);
    const uint64_t busy = (n + timing_.bytes_per_cycle - 1) / timing_.bytes_per_cycle;
    pipe_free_cycle_ = start + busy;
    const uint64_t done_cycle = pipe_free_cycle_ + timing_.pipeline_depth;

    axi::StreamPacket out;
    out.data = Process(*pkt, stream_index);
    out.tid = pkt->tid;
    out.tdest = pkt->tdest;
    out.last = pkt->last;
    const sim::TimePs when = clk.CyclesToPs(done_cycle);
    // Capture the output stream (owned by the device, outlives the kernel)
    // rather than `this`: a pending completion must not dangle if the region
    // is reconfigured while data is in flight.
    axi::Stream* dst = &Out(stream_index);
    region_->engine()->ScheduleAt(when, [dst, out = std::move(out)]() mutable {
      dst->Push(std::move(out));
    });
  }
}

}  // namespace services
}  // namespace coyote
