// Placement arithmetic: region occupancy books and node -> shard placement
// for the sharded PDES engine.
//
// A placement maps every logical node of a simulated deployment onto the
// shard whose Engine will execute its callbacks. Determinism across shard
// counts requires only that cross-node interaction flows through
// ShardedEngine::Post with the *node* id as the merge order key; the
// placement itself is free. RoundRobin is a pure function of
// (num_nodes, num_shards), so a run's placement is reproducible from its
// config alone.

#ifndef SRC_RUNTIME_PLACEMENT_H_
#define SRC_RUNTIME_PLACEMENT_H_

#include <cstdint>
#include <vector>

namespace coyote {
namespace runtime {

// Region occupancy books for one node: region -> tenant id (-1 free), plus a
// capacity gate for declared-dead nodes. The Orchestrator keeps one per node.
// Deterministic by construction: every lookup scans regions in ascending
// index order.
class RegionBook {
 public:
  void Reset(uint32_t num_regions) {
    tenant_.assign(num_regions, -1);
    closed_ = false;
  }

  // A dead node offers no capacity, but its (stale) assignments remain
  // visible so evacuation can enumerate who was resident.
  void CloseCapacity() { closed_ = true; }

  uint32_t free() const {
    if (closed_) {
      return 0;
    }
    uint32_t n = 0;
    for (int32_t t : tenant_) {
      n += t < 0 ? 1u : 0u;
    }
    return n;
  }

  // Lowest free region, -1 when full (or capacity-closed).
  int32_t FindFree() const {
    if (closed_) {
      return -1;
    }
    for (uint32_t r = 0; r < tenant_.size(); ++r) {
      if (tenant_[r] < 0) {
        return static_cast<int32_t>(r);
      }
    }
    return -1;
  }

  // Lowest region assigned to `tenant`, -1 when absent.
  int32_t FindTenant(uint32_t tenant) const {
    for (uint32_t r = 0; r < tenant_.size(); ++r) {
      if (tenant_[r] == static_cast<int32_t>(tenant)) {
        return static_cast<int32_t>(r);
      }
    }
    return -1;
  }

  bool Reserve(int32_t region, uint32_t tenant) {
    if (region < 0 || static_cast<size_t>(region) >= tenant_.size() ||
        tenant_[static_cast<size_t>(region)] >= 0) {
      return false;
    }
    tenant_[static_cast<size_t>(region)] = static_cast<int32_t>(tenant);
    return true;
  }

  bool Release(int32_t region) {
    if (region < 0 || static_cast<size_t>(region) >= tenant_.size() ||
        tenant_[static_cast<size_t>(region)] < 0) {
      return false;
    }
    tenant_[static_cast<size_t>(region)] = -1;
    return true;
  }

 private:
  // lint: guard-ok value-type occupancy book embedded in a guarded owner (the Orchestrator's per-node region books); every mutation runs in the owner's shard context behind the owner's AccessGuard
  std::vector<int32_t> tenant_;
  bool closed_ = false;
};

struct ShardPlacement {
  // node i -> shard i % num_shards. Best load spread when nodes are
  // homogeneous; adjacent nodes land on different shards.
  static std::vector<uint32_t> RoundRobin(uint32_t num_nodes, uint32_t num_shards) {
    std::vector<uint32_t> shard_of(num_nodes);
    for (uint32_t n = 0; n < num_nodes; ++n) {
      shard_of[n] = n % num_shards;
    }
    return shard_of;
  }
};

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_PLACEMENT_H_
