// Bandwidth-shared link.
//
// Models a serial resource of fixed bandwidth (a PCIe/XDMA direction, an HBM
// pseudo-channel, a 100G CMAC, an ICAP port...) that services packets from
// multiple sources with round-robin interleaving — the arbitration policy the
// Coyote v2 dynamic layer uses for multi-tenant fair sharing (paper §6.3).
//
// Each Submit() enqueues one packet for a source. The link transmits a single
// packet at a time; when it finishes, the completion callback fires and the
// next source in round-robin order is served. Per-packet fixed overhead models
// descriptor/header cost and is the knob behind the packet-size ablation.

#ifndef SRC_SIM_LINK_H_
#define SRC_SIM_LINK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/sim/callback.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace coyote {
namespace sim {

class Link {
 public:
  using Callback = InlineCallback;

  struct Config {
    uint64_t bytes_per_second = 0;
    TimePs per_packet_overhead = 0;  // fixed cost occupying the link per packet
    // Pipelined delivery latency: completions fire this long after the last
    // byte leaves the link, without holding the link (PCIe round trip,
    // controller latency). Does not affect throughput.
    TimePs delivery_latency = 0;
  };

  Link(Engine* engine, const Config& config);

  // Enqueues one packet of `bytes` from `source_id`. `on_done` fires when the
  // last byte has left the link. Sources are serviced round-robin; packets
  // from the same source stay FIFO.
  void Submit(uint32_t source_id, uint64_t bytes, Callback on_done);

  // Fault injection: called once per packet as it starts transmitting; the
  // returned duration is added to the packet's link occupancy (an XDMA stall,
  // a controller hiccup). Cleared by passing an empty function.
  using FaultHook = std::function<TimePs(uint64_t bytes)>;
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

  // --- Introspection / statistics -------------------------------------------
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_packets() const { return total_packets_; }
  uint64_t bytes_for_source(uint32_t source_id) const;
  uint64_t stalled_packets() const { return stalled_packets_; }
  const Config& config() const { return config_; }

  // Effective bandwidth observed since construction (bytes actually moved over
  // wall simulated time).
  double ObservedBandwidthBps() const;

 private:
  struct Packet {
    uint64_t bytes;
    Callback on_done;
  };

  void StartNext();
  void OnTransmitDone();
  bool PickNextSource(uint32_t* out);

  Engine* engine_;
  Config config_;

  // Source queues in registration order; round-robin pointer walks this list.
  std::vector<uint32_t> source_order_;
  std::unordered_map<uint32_t, std::deque<Packet>> queues_;
  size_t rr_index_ = 0;
  bool busy_ = false;
  // Completion of the single packet occupying the link. Held here (not in the
  // engine lambda) so the scheduled event captures only `this` and stays
  // within InlineCallback's inline budget.
  Callback inflight_done_;

  FaultHook fault_hook_;
  uint64_t total_bytes_ = 0;
  uint64_t total_packets_ = 0;
  uint64_t stalled_packets_ = 0;
  std::unordered_map<uint32_t, uint64_t> per_source_bytes_;
};

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_LINK_H_
