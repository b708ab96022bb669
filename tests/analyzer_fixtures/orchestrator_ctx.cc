// Fixture: orchestrator-style control plane. Heartbeat/checkpoint handlers
// run in callback context (armed via ScheduleAfter/Post); the control
// plane's own state maps register sim::AccessGuard members (clean), a
// bolt-on ledger does not (finding), and a rebalance helper reaches through
// .shard() instead of the mailbox (finding) while the Post path stays clean.
#include <cstdint>
#include <map>
#include <vector>

namespace fx {

namespace sim {
class AccessGuard {
 public:
  void Write();
};
}  // namespace sim

class Cluster {
 public:
  void* shard(int idx);
  void Post(int idx, long when, void (*fn)());
};

class Engine {
 public:
  void ScheduleAfter(long delay, void (*fn)());
  void Post(long when, void (*fn)());
};

// Orchestrator-owned state maps, each covered by a registered guard: the
// inventory rule sees the AccessGuard member and keeps the class clean.
class ControlPlane {
 public:
  void OnHeartbeat(int node, long at) {
    guard_.Write();
    health_[node] = at;
  }
  void OnCheckpoint(int tenant, int bytes) {
    guard_.Write();
    ckpt_store_[tenant] = bytes;
  }

 private:
  std::map<int, long> health_;
  std::map<int, int> ckpt_store_;
  sim::AccessGuard guard_;
};

// The bolt-on ledger mutates from the same callbacks but registers no
// guard: flagged.
class EvacLedger {
 public:
  void Record(int tenant) { pending_.push_back(tenant); }

 private:
  std::vector<int> pending_;
};

class Rebalancer {
 public:
  void Drain(int node) {
    cluster_->shard(node);
  }

  void Forward(int node, long when) {
    cluster_->Post(node, when, nullptr);  // the sanctioned mailbox path
  }

 private:
  Cluster* cluster_ = nullptr;
};

void ArmControlPlane(Engine& engine, ControlPlane& orch, EvacLedger& ledger, Rebalancer& rb) {
  engine.ScheduleAfter(50, [&] {
    orch.OnHeartbeat(0, 50);
    ledger.Record(7);
  });
  engine.Post(100, [&] {
    orch.OnCheckpoint(1, 4096);
    rb.Drain(2);
    rb.Forward(2, 140);
  });
}

}  // namespace fx
