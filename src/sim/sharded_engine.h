// Sharded parallel discrete-event simulation (conservative PDES).
//
// Partitions a simulation into `num_shards` shards, each owning one Engine
// driven by its own worker thread. Synchronization is conservative and
// window-based (a.k.a. bounded-lag BSP):
//
//   1. The coordinator computes the global minimum pending timestamp T across
//      all shards and opens the window [T, T + lookahead).
//   2. Every shard executes its local events with timestamp strictly below
//      the window end, in parallel, touching only shard-owned state.
//   3. Cross-shard interaction goes exclusively through Post(): the event is
//      appended to the sending shard's outbox with a delivery time clamped
//      to at least sender-now + lookahead, so nothing ever needs to be
//      delivered into the window still executing.
//   4. At the window barrier the coordinator drains every outbox, sorts the
//      messages by the MERGE ORDER (below) and schedules them into their
//      destination shards; then the next window opens.
//
// MERGE ORDER (part of the engine contract — tests and fingerprints depend
// on it): messages are delivered in ascending
//
//     (timestamp, order_key, source shard id, source sequence number)
//
// where order_key defaults to the source shard id and may be overridden with
// the sending *logical node* id. Because each shard's execution is
// deterministic, its outbox content and sequence numbers are deterministic,
// so the merged delivery order is identical run-to-run regardless of thread
// scheduling — and, when order_key identifies logical nodes, identical
// across shard counts too. Equal-timestamp messages drained at *different*
// barriers are ordered by barrier (earlier barrier first); with
// lookahead-clamped posting, the barrier an event is drained at is itself
// invariant, which is what makes N-shard runs observably identical to the
// 1-shard reference.
//
// Determinism argument, in full (see DESIGN.md "Sharded PDES engine"):
//   - each shard's Engine orders events by (time, insertion seq) — FIFO among
//     equal timestamps — and is single-threaded;
//   - window boundaries depend only on the global minimum pending timestamp
//     and the lookahead, both deterministic and placement-invariant;
//   - barrier merge order is the specified total order above;
//   - shard-owned state is never touched across shards (enforced by
//     sim::AccessGuard::BindShard in guarded builds).
//
// Lookahead comes from the modeled inter-node link latency: no frame can
// cross the simulated switch in less than net::Network::MinCrossNodeLatencyPs,
// so node-partitioned simulations get that much conservative slack for free.

#ifndef SRC_SIM_SHARDED_ENGINE_H_
#define SRC_SIM_SHARDED_ENGINE_H_

// Thread primitives are banned in simulation code (engine callbacks must
// never block), but this file IS the coordination layer: workers block only
// between windows, never inside a callback.
#include <condition_variable>  // lint: blocking-ok
#include <cstdint>
#include <memory>
#include <mutex>  // lint: blocking-ok
#include <thread>  // lint: blocking-ok
#include <vector>

#include "src/sim/access_guard.h"
#include "src/sim/callback.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace coyote {
namespace sim {

class ShardedEngine {
 public:
  using Callback = InlineCallback;

  struct Config {
    uint32_t num_shards = 1;
    // Conservative synchronization horizon. Must be > 0; derive it from the
    // modeled inter-node link latency (net::Network::MinCrossNodeLatencyPs)
    // for node-partitioned simulations.
    TimePs lookahead = 0;
    // false: run every shard's window sequentially on the calling thread —
    // the reference mode conformance tests compare against to prove results
    // do not depend on thread scheduling.
    bool use_threads = true;
  };

  struct Stats {
    uint64_t windows = 0;
    uint64_t cross_shard_messages = 0;
    // Posts whose requested delivery time violated the lookahead contract
    // and were clamped forward to sender-now + lookahead.
    uint64_t lookahead_violations = 0;
    // Always 0: outboxes are unbounded and never truncate a window, so
    // nothing increments it. Kept only for readers that still report it.
    uint64_t backpressure_stalls = 0;
  };

  explicit ShardedEngine(const Config& config);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  TimePs lookahead() const { return config_.lookahead; }

  // The shard's engine, for host-side setup (attaching models, reading
  // results) and for shard-local scheduling from inside callbacks. Only the
  // owning shard's callbacks may schedule on it during a run.
  Engine& shard(uint32_t s) { return *shards_[s]->engine; }
  const Engine& shard(uint32_t s) const { return *shards_[s]->engine; }

  // Host-side: places a local event on shard `s`. Call only between runs /
  // before the first window (never from another shard's callback).
  void ScheduleOn(uint32_t s, TimePs t, Callback cb) {
    shards_[s]->engine->ScheduleAt(t, std::move(cb));
  }

  // Cross-shard post, callable only from a shard execution context (the
  // calling thread must be bound to a shard — worker threads are, and the
  // sequential mode binds via ShardScope). Delivery is clamped to at least
  // sender-now + lookahead; clamps count as lookahead_violations. order_key
  // selects the merge stream (see MERGE ORDER above): pass the sending
  // logical node's id for placement-invariant ordering, or omit it to use
  // the source shard id.
  void Post(uint32_t dst_shard, TimePs t, Callback cb);
  void Post(uint32_t dst_shard, TimePs t, Callback cb, uint32_t order_key);

  // Runs windows until every shard is idle. Returns events executed.
  uint64_t RunUntilIdle();
  // Runs events with timestamp <= deadline; advances every shard's clock to
  // `deadline` if it drains earlier. Returns events executed.
  uint64_t RunUntil(TimePs deadline);

  bool Idle() const;
  // Sum over shards (outboxes are always empty between runs).
  uint64_t events_executed() const;
  const Stats& stats() const { return stats_; }

 private:
  struct CrossShardEvent {
    TimePs time = 0;
    uint32_t dst = 0;
    uint32_t order_key = 0;
    uint32_t src = 0;
    uint64_t seq = 0;
    Callback cb;
  };

  struct Shard {
    std::unique_ptr<Engine> engine;
    // Appended only by this shard's worker during a window; drained only by
    // the coordinator after the barrier, which orders the two phases. The
    // drain's clear() keeps the capacity, so steady-state posting does not
    // allocate.
    std::vector<CrossShardEvent> outbox;
    uint64_t next_seq = 0;
    uint64_t lookahead_clamps = 0;
    uint64_t executed_in_window = 0;
  };

  static constexpr TimePs kNoDeadline = ~TimePs{0};

  // One barrier-synchronized window ending (exclusively) at `window_end`.
  void ExecuteWindow(TimePs window_end);
  void RunShardWindow(uint32_t s, TimePs window_end);
  // Drains all outboxes, merge-sorts, schedules into destinations.
  void DeliverMailboxes();
  uint64_t RunWindows(TimePs deadline);
  void WorkerMain(uint32_t s);

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Stats stats_;
  std::vector<CrossShardEvent> merge_scratch_;

  // Worker coordination. window_end_ / shard state are only written while
  // every worker is parked (remaining_ == 0), and the generation handshake
  // through mu_ orders those writes before the workers' reads.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;
  uint32_t remaining_ = 0;
  TimePs window_end_ = 0;
  bool quit_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_SHARDED_ENGINE_H_
