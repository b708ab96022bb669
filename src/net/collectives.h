// Collective communication over the RDMA service (paper §10 future work,
// after ACCL [22]).
//
// The paper lists collective communication as the next service to add on
// top of Coyote v2's RDMA stack. This module implements the classic
// algorithms over a fully connected mesh of RoCE queue pairs:
//
//   * Broadcast   — binomial tree, log2(N) rounds.
//   * AllGather   — ring, N-1 steps of neighbor exchange.
//   * AllReduce   — ring reduce-scatter + ring all-gather (bandwidth
//                   optimal: 2*(N-1)/N of the data per link).
//
// Functional on real buffer bytes in each node's shared virtual memory;
// timing falls out of the RDMA/network substrate.

#ifndef SRC_NET_COLLECTIVES_H_
#define SRC_NET_COLLECTIVES_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/mmu/svm.h"
#include "src/net/roce.h"
#include "src/sim/engine.h"

namespace coyote {
namespace net {

class CollectiveGroup {
 public:
  struct Member {
    RoceStack* stack = nullptr;
    mmu::Svm* svm = nullptr;
    // Scratch buffer in this member's address space, at least
    // 2 * data_bytes large, used for staging incoming fragments.
    uint64_t scratch_vaddr = 0;
  };

  // ok=false when any per-peer work request inside the collective failed
  // (e.g. a QP hit its retry budget). The whole collective fails with ONE
  // error completion — the continuation chain never strands a caller.
  using Completion = std::function<void(bool ok)>;

  // Builds the group and connects a full QP mesh between all members.
  CollectiveGroup(sim::Engine* engine, std::vector<Member> members);

  size_t size() const { return members_.size(); }

  // Broadcast `bytes` at `vaddr` (an address valid in every member's address
  // space) from `root` to all members, binomial tree.
  void Broadcast(uint32_t root, uint64_t vaddr, uint64_t bytes, Completion done);

  // AllReduce (element-wise int32 sum) of `count` elements at `vaddr` in
  // every member's space. On completion every member holds the global sum.
  void AllReduceInt32(uint64_t vaddr, uint64_t count, Completion done);

  // AllGather: member i contributes `chunk_bytes` at vaddr + i*chunk_bytes;
  // afterwards all members hold all N chunks.
  void AllGather(uint64_t vaddr, uint64_t chunk_bytes, Completion done);

 private:
  uint32_t QpFor(uint32_t from, uint32_t to) const { return qp_[from][to]; }
  void RingStep(uint64_t vaddr, uint64_t chunk_bytes, uint32_t steps, bool reduce,
                Completion done);

  sim::Engine* engine_;
  std::vector<Member> members_;
  std::vector<std::vector<uint32_t>> qp_;  // [from][to] -> local qpn at `from`

};

}  // namespace net
}  // namespace coyote

#endif  // SRC_NET_COLLECTIVES_H_
