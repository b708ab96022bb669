#include "src/net/network.h"

#include <utility>

namespace coyote {
namespace net {

uint32_t Network::AttachPort(uint32_t ip, RxHandler rx) {
  const uint32_t id = static_cast<uint32_t>(ports_.size());
  Port port;
  port.ip = ip;
  port.rx = std::move(rx);
  port.tx_link = std::make_unique<sim::Link>(engine_, sim::Link::Config{config_.link_bps, 0, 0});
  port.rx_link = std::make_unique<sim::Link>(engine_, sim::Link::Config{config_.link_bps, 0, 0});
  ports_.push_back(std::move(port));
  ip_to_port_.emplace(ip, id);
  return id;
}

void Network::Transmit(uint32_t src_port, uint32_t dst_ip, axi::BufferView frame) {
  switch_guard_.CheckShardOnly(/*is_write=*/true);
  const uint64_t index = frame_counter_++;
  auto [first, last] = ip_to_port_.equal_range(dst_ip);
  if (first == last || src_port >= ports_.size()) {
    ++frames_dropped_;
    return;
  }
  if (drop_filter_ && drop_filter_(index)) {
    ++frames_dropped_;
    return;
  }

  int copies = 1;
  sim::TimePs extra_latency = 0;
  if (injector_ != nullptr) {
    const uint32_t src_ip = ports_[src_port].ip;
    if (injector_->DropForOutage(src_ip, dst_ip)) {
      ++frames_dropped_;
      return;
    }
    const auto decision = injector_->OnFrame(src_ip, dst_ip, frame.size());
    switch (decision.action) {
      case sim::FaultInjector::FrameAction::kDeliver:
        break;
      case sim::FaultInjector::FrameAction::kDrop:
        ++frames_dropped_;
        return;
      case sim::FaultInjector::FrameAction::kCorrupt: {
        // Flip one byte with a non-zero mask; the receiver's ICRC check turns
        // this into a drop at the RoCE/TCP layer. Mutable access detaches the
        // view, so a sender retaining the frame (retransmit window, sniffer
        // capture) keeps the uncorrupted bytes.
        const uint64_t e = decision.corrupt_entropy;
        frame.data()[e % frame.size()] ^= static_cast<uint8_t>(1 + ((e >> 32) % 255));
        ++frames_corrupted_;
        break;
      }
      case sim::FaultInjector::FrameAction::kDuplicate:
        copies = 2;
        ++frames_duplicated_;
        break;
      case sim::FaultInjector::FrameAction::kDelay:
        extra_latency = decision.delay;
        ++frames_delayed_;
        break;
    }
  }

  const uint64_t bytes = frame.size();
  const sim::TimePs hop_latency = config_.switch_latency + extra_latency;

  // Serialize on the sender's TX link, cross the switch, then serialize on
  // each destination port's RX link before the handler sees the frame. Every
  // hop shares the frame's storage — a device binding multiple stacks to one
  // IP gets a view per stack, not a copy per stack. The tx-link capture
  // (view + port + latency) exceeds the inline-callback budget and spills to
  // the heap once per transmit; the switch and rx-link hops stay inline.
  for (auto it = first; it != last; ++it) {
    const uint32_t dst_port = it->second;
    for (int c = 0; c < copies; ++c) {
      ports_[src_port].tx_link->Submit(
          dst_port, bytes, [this, dst_port, hop_latency, frame]() {
            engine_->ScheduleAfter(hop_latency, [this, dst_port, frame]() {
              ports_[dst_port].rx_link->Submit(0, frame.size(), [this, dst_port, frame]() {
                ++frames_delivered_;
                if (ports_[dst_port].rx) {
                  ports_[dst_port].rx(frame);
                }
              });
            });
          });
    }
  }
}

}  // namespace net
}  // namespace coyote
