#include "src/sim/link.h"

#include <utility>

namespace coyote {
namespace sim {

Link::Link(Engine* engine, const Config& config) : engine_(engine), config_(config) {}

void Link::Submit(uint32_t source_id, uint64_t bytes, Callback on_done) {
  auto it = queues_.find(source_id);
  if (it == queues_.end()) {
    source_order_.push_back(source_id);
    it = queues_.emplace(source_id, std::deque<Packet>{}).first;
  }
  it->second.push_back(Packet{bytes, std::move(on_done)});
  if (!busy_) {
    StartNext();
  }
}

bool Link::PickNextSource(uint32_t* out) {
  const size_t n = source_order_.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t idx = (rr_index_ + i) % n;
    const uint32_t sid = source_order_[idx];
    if (!queues_[sid].empty()) {
      // Advance past the chosen source so the next grant goes to its neighbor.
      rr_index_ = (idx + 1) % n;
      *out = sid;
      return true;
    }
  }
  return false;
}

void Link::StartNext() {
  uint32_t sid = 0;
  if (!PickNextSource(&sid)) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Packet pkt = std::move(queues_[sid].front());
  queues_[sid].pop_front();

  TimePs duration =
      TransferTime(pkt.bytes, config_.bytes_per_second) + config_.per_packet_overhead;
  if (fault_hook_) {
    const TimePs stall = fault_hook_(pkt.bytes);
    if (stall > 0) {
      ++stalled_packets_;
      duration += stall;
    }
  }
  total_bytes_ += pkt.bytes;
  ++total_packets_;
  per_source_bytes_[sid] += pkt.bytes;

  inflight_done_ = std::move(pkt.on_done);
  engine_->ScheduleAfter(duration, [this] { OnTransmitDone(); });
}

void Link::OnTransmitDone() {
  Callback done = std::move(inflight_done_);
  inflight_done_ = nullptr;
  if (config_.delivery_latency > 0) {
    // Free the link now; the completion arrives after the pipe latency.
    if (done) {
      engine_->ScheduleAfter(config_.delivery_latency, std::move(done));
    }
  } else if (done) {
    done();
  }
  StartNext();
}

uint64_t Link::bytes_for_source(uint32_t source_id) const {
  auto it = per_source_bytes_.find(source_id);
  return it == per_source_bytes_.end() ? 0 : it->second;
}

double Link::ObservedBandwidthBps() const {
  return BandwidthBytesPerSec(total_bytes_, engine_->Now());
}

}  // namespace sim
}  // namespace coyote
