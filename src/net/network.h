// Switched 100G network fabric.
//
// Connects simulated endpoints (Coyote FPGAs, commodity RDMA NICs) through a
// single switch: per-port TX and RX links at line rate plus a fixed
// store-and-forward/propagation latency. A drop filter supports fault
// injection for retransmission tests.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <vector>

#include "src/axi/buffer.h"
#include "src/sim/access_guard.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/link.h"
#include "src/sim/time.h"

namespace coyote {
namespace net {

class Network {
 public:
  struct Config {
    uint64_t link_bps = 12'500'000'000ull;  // 100 Gbit/s
    sim::TimePs switch_latency = sim::Nanoseconds(600);
  };

  // Frames travel as ref-counted views: a fan-out to N ports delivers the
  // same storage N times instead of copying it N times.
  using RxHandler = std::function<void(axi::BufferView frame)>;

  Network(sim::Engine* engine, const Config& config) : engine_(engine), config_(config) {}

  // Attaches an endpoint with address `ip`; frames destined to `ip` are
  // handed to `rx`. Returns the port id. Multiple ports may bind the same
  // IP (e.g., a device running both the RoCE and TCP stacks); each receives
  // a copy and filters by protocol.
  uint32_t AttachPort(uint32_t ip, RxHandler rx);

  // Transmits a frame from `src_port` to the port bound to `dst_ip`.
  // Unroutable frames are counted and dropped (like a real switch).
  void Transmit(uint32_t src_port, uint32_t dst_ip, axi::BufferView frame);

  // Fault injection: return true to drop this frame (called per frame with a
  // running index). Cleared by passing nullptr.
  void SetDropFilter(std::function<bool(uint64_t frame_index)> filter) {
    drop_filter_ = std::move(filter);
  }

  // Schedulable fault injection: the injector decides per frame whether to
  // drop, corrupt, duplicate or delay it, and whether either endpoint is
  // inside a node-outage window. Not owned; may be nullptr.
  void SetFaultInjector(sim::FaultInjector* injector) { injector_ = injector; }

  // Fastest possible node-to-node traversal of a fabric built from `config`:
  // a minimum-size (64 B) frame serialized on the sender's TX link, the fixed
  // switch latency, then serialization on the receiver's RX link. No frame
  // can arrive sooner, so a node-partitioned sharded simulation may use this
  // as its conservative lookahead (ShardedEngine::Config::lookahead) without
  // changing any observable ordering. Fault-injected *extra* delay only
  // lengthens traversals, so it never invalidates the bound.
  static sim::TimePs MinCrossNodeLatencyPs(const Config& config) {
    return config.switch_latency + 2 * sim::TransferTime(64, config.link_bps);
  }

  // Declares which shard's engine drives this network. All ports of one
  // Network must live on one shard (a fabric spanning shards would need its
  // traffic routed through the sharded engine's mailboxes instead); with the
  // guard bound, a foreign shard calling Transmit() is reported
  // deterministically rather than corrupting switch counters silently.
  void BindShard(sim::ShardId shard) { switch_guard_.BindShard(shard); }

  uint64_t frames_delivered() const { return frames_delivered_; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t frames_corrupted() const { return frames_corrupted_; }
  uint64_t frames_duplicated() const { return frames_duplicated_; }
  uint64_t frames_delayed() const { return frames_delayed_; }
  const Config& config() const { return config_; }

 private:
  struct Port {
    uint32_t ip = 0;
    RxHandler rx;
    std::unique_ptr<sim::Link> tx_link;
    std::unique_ptr<sim::Link> rx_link;
  };

  sim::Engine* engine_;
  Config config_;
  std::vector<Port> ports_;
  // Ordered multimap: Transmit() fans a frame out to every port bound to the
  // destination IP by iterating equal_range, and delivery order must be the
  // stable attach order for bit-exact replay (multimap preserves insertion
  // order among equal keys; unordered_multimap does not).
  std::multimap<uint32_t, uint32_t> ip_to_port_;
  std::function<bool(uint64_t)> drop_filter_;
  // Shard-ownership probe only: the switch's same-shard reentrancy (tx link
  // -> switch hop -> rx link all bump shared counters) is ordered by the
  // single engine driving it, so full actor tracking would be noise.
  sim::AccessGuard switch_guard_{"net.switch"};
  sim::FaultInjector* injector_ = nullptr;
  uint64_t frame_counter_ = 0;
  uint64_t frames_delivered_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_corrupted_ = 0;
  uint64_t frames_duplicated_ = 0;
  uint64_t frames_delayed_ = 0;
};

}  // namespace net
}  // namespace coyote

#endif  // SRC_NET_NETWORK_H_
