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
// timing falls out of the RDMA/network substrate. Each algorithm is a plan
// of steps that one private runner executes: step s posts its RDMA WRITEs,
// and once all of them complete an optional fold runs and step s+1 starts.

#ifndef SRC_NET_COLLECTIVES_H_
#define SRC_NET_COLLECTIVES_H_

#include <cstdint>
#include <functional>
#include <memory>
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
  // One RDMA WRITE of a step, from member `from` to member `to`.
  struct Write {
    uint32_t from = 0;
    uint32_t to = 0;
    uint64_t local_vaddr = 0;
    uint64_t remote_vaddr = 0;
    uint64_t bytes = 0;
  };
  struct Step {
    std::vector<Write> writes;
    std::function<void()> fold;  // runs once every WRITE of the step succeeded
  };
  // A collective in flight: its plan, the step posted last and the WRITEs
  // of that step still outstanding.
  struct Run {
    std::vector<Step> steps;
    Completion done;
    size_t step = 0;
    size_t outstanding = 0;
    bool failed = false;
  };

  // Runs `steps` in order. Zero-byte WRITEs are skipped. A failed WRITE ends
  // the collective with one ok=false completion at the next step boundary;
  // a plan of zero steps completes ok=true one event later.
  void RunSteps(std::vector<Step> steps, Completion done);
  void StartStep(const std::shared_ptr<Run>& run);
  void EndWrite(const std::shared_ptr<Run>& run);

  sim::Engine* engine_;
  std::vector<Member> members_;
  std::vector<std::vector<uint32_t>> qp_;  // [from][to] -> local qpn at `from`
};

}  // namespace net
}  // namespace coyote

#endif  // SRC_NET_COLLECTIVES_H_
