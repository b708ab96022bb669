// Deterministic race detector for shared simulator state.
//
// The simulator's engines are single-threaded, so classic data races cannot
// happen inside one shard — but *logical* races can: two actors (a cThread
// driver call, the engine's event callback, the DMA completion path, the RoCE
// rx path) touching the same shared structure within one event epoch, with the
// outcome depending on reentrancy order rather than simulated time. Those bugs
// are seed-dependent heisenbugs under chaos testing. The AccessGuard layer
// turns them into hard, reproducible failures:
//
//   - sim::Engine advances a per-thread *epoch* once per executed event.
//   - Call sites annotate who is running via ActorScope (RAII).
//   - Shared structures (TLB, page tables, credit counters, RoCE QP state,
//     scheduler queues) hold an AccessGuard and record Read()/Write() touches.
//   - A same-epoch write/write or read/write pair by *different* actors with
//     no declared happens-before edge is reported as an AccessConflict.
//
// The sharded PDES engine (src/sim/sharded_engine.h) adds a second axis:
// *shard ownership*. Every shard runs its own engine on its own worker
// thread; state owned by shard A must never be touched from shard B's
// callbacks in the same run — cross-shard interaction is only legal through
// the engine's mailboxes. Guards can be bound to their owning shard with
// BindShard(); a touch from a different bound shard context is reported as a
// ShardViolation *before* the guard's touch state is mutated (the mutation
// would itself be the data race). Violations are recorded in per-shard
// append-ordered slots so two identical runs report identical violation
// sequences regardless of thread scheduling.
//
// The layer is runtime-toggled (a single predictable branch when disabled).
// Builds with COYOTE_ACCESS_GUARDS defined (COYOTE_SANITIZE=ON, COYOTE_TSAN=ON
// or Debug, see the top-level CMakeLists) arm the global ledger automatically
// when the first Engine is constructed, so every chaos/determinism test runs
// guarded.

#ifndef SRC_SIM_ACCESS_GUARD_H_
#define SRC_SIM_ACCESS_GUARD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace coyote {
namespace sim {

using ActorId = uint32_t;

// Well-known actor identities. Tests may mint their own from kActorUserBase.
inline constexpr ActorId kActorHost = 0;       // driver/cThread API, default
inline constexpr ActorId kActorEngine = 1;     // generic engine callback
inline constexpr ActorId kActorDma = 2;        // data mover / XDMA paths
inline constexpr ActorId kActorNet = 3;        // RoCE/TCP rx processing
inline constexpr ActorId kActorScheduler = 4;  // kernel scheduler dispatch
inline constexpr ActorId kActorSupervisor = 5;  // watchdog / recovery engine
inline constexpr ActorId kActorOrchestrator = 6;  // fleet migration / evacuation
inline constexpr ActorId kActorUserBase = 16;

// Shard identity for the sharded PDES engine. kNoShard means "not executing
// on behalf of any shard" (host setup/teardown code), which is always allowed
// to touch bound guards: placement happens before the first window and
// observation after the last, outside any shard's execution.
using ShardId = uint32_t;
inline constexpr ShardId kNoShard = 0xffffffffu;

struct AccessConflict {
  std::string resource;
  uint64_t epoch = 0;
  ActorId first_actor = 0;
  ActorId second_actor = 0;
  bool write_write = false;  // false: read/write
  std::string ToString() const;
};

// A touch of shard-owned state from a different shard's execution context.
// Always a bug: cross-shard interaction must go through the sharded engine's
// mailboxes (or be host-side setup, which runs outside any shard context).
struct ShardViolation {
  std::string resource;
  uint64_t epoch = 0;
  ShardId owner_shard = kNoShard;
  ShardId touching_shard = kNoShard;
  ActorId actor = 0;
  bool write = false;
  std::string ToString() const;
};

// Process-wide conflict ledger. The epoch counter and the current actor/shard
// are thread-local (each shard worker is its own execution lane); declared
// happens-before edges and the conflict/violation logs live on the ledger.
// All containers are append-ordered, and sharded contexts append into
// per-shard slots, so two identical runs report identical sequences
// regardless of thread scheduling.
class AccessLedger {
 public:
  static AccessLedger& Global();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Clears the calling thread's epoch/actor/shard state plus all edges,
  // conflicts and shard violations; keeps the enabled flag and the configured
  // shard-slot count. Worker threads of a ShardedEngine start with fresh
  // thread-local state, so a main-thread Reset() between runs is sufficient.
  void Reset();

  void AdvanceEpoch() { ++tls_.epoch; }
  uint64_t epoch() const { return tls_.epoch; }

  ActorId current_actor() const { return tls_.actor; }
  ShardId current_shard() const { return tls_.shard; }

  // --- Shard plumbing (sharded PDES engine) ---------------------------------
  // Sizes the per-shard violation/conflict slots. Called by ShardedEngine
  // before its workers start; grows monotonically, never shrinks, so several
  // engines of different widths can coexist in one process.
  void ConfigureShards(uint32_t num_shards);
  // Binds the calling thread to `shard` for its remaining lifetime: sets the
  // thread-local shard id, routes its reports into the shard's slot, and
  // offsets its epoch counter into a per-shard band so same-numbered epochs
  // on different shards never alias inside one guard's touch history.
  void RegisterShardThread(ShardId shard);

  // Declares that same-epoch accesses by `a` and `b` are deliberately ordered
  // (symmetric). Guards skip conflict reports for declared pairs.
  void DeclareOrdered(ActorId a, ActorId b);
  bool Ordered(ActorId a, ActorId b) const;

  void Report(AccessConflict conflict);
  void ReportShardViolation(ShardViolation violation);
  // Conflicts recorded outside any shard context (the single-threaded path —
  // unchanged pre-sharding behavior).
  const std::vector<AccessConflict>& conflicts() const { return conflicts_; }
  // Deterministic merged views: host slot first, then shard 0..N-1, each in
  // append order.
  std::vector<AccessConflict> AllConflicts() const;
  std::vector<ShardViolation> shard_violations() const;

  // When set, Report()/ReportShardViolation() print to stderr and abort. Off
  // by default so tests can assert on the logs.
  void set_abort_on_conflict(bool abort_on_conflict) { abort_on_conflict_ = abort_on_conflict; }

 private:
  friend class ActorScope;
  friend class ShardScope;

  struct Tls {
    uint64_t epoch = 0;
    ActorId actor = kActorHost;
    ShardId shard = kNoShard;
    uint32_t slot = 0;  // 0 = host/unsharded; shard s reports into slot s + 1
  };
  // constinit: other files read tls_ from inline code, and must know it
  // needs no dynamic initialisation (no TLS wrapper call).
  static constinit thread_local Tls tls_;

  // Sets the calling thread's shard id and report slot (no epoch banding —
  // ShardScope must not perturb the single-threaded epoch sequence).
  void BindThread(ShardId shard);

  bool enabled_ = false;
  bool abort_on_conflict_ = false;
  std::vector<std::pair<ActorId, ActorId>> ordered_;
  std::vector<AccessConflict> conflicts_;
  // Slot s + 1 is written only by the thread bound to shard s (and slot 0
  // only outside shard contexts), so appends never race; the vectors are
  // pre-sized by ConfigureShards before workers start.
  std::vector<std::vector<AccessConflict>> shard_conflicts_;
  std::vector<std::vector<ShardViolation>> shard_violations_;
};

// RAII: sets the calling thread's current actor for the enclosing dynamic
// scope. Nesting is expected (engine callback -> rx path -> user completion).
class ActorScope {
 public:
  explicit ActorScope(ActorId actor) : saved_(AccessLedger::tls_.actor) {
    AccessLedger::tls_.actor = actor;
  }
  ~ActorScope() { AccessLedger::tls_.actor = saved_; }

  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  ActorId saved_;
};

// RAII: executes the enclosing scope as `shard`. The sharded engine's
// sequential (reference) mode uses this to run every shard's window on one
// thread with the same shard attribution as the threaded mode; tests use it
// to simulate cross-shard touches without spinning up workers.
class ShardScope {
 public:
  explicit ShardScope(ShardId shard)
      : saved_shard_(AccessLedger::tls_.shard), saved_slot_(AccessLedger::tls_.slot) {
    AccessLedger::Global().BindThread(shard);
  }
  ~ShardScope() {
    AccessLedger::tls_.shard = saved_shard_;
    AccessLedger::tls_.slot = saved_slot_;
  }

  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  ShardId saved_shard_;
  uint32_t saved_slot_;
};

// Per-structure guard. Records (actor, kind) touches for the current epoch
// and reports a conflict when a new touch collides with an earlier same-epoch
// touch by a different, unordered actor where at least one side is a write.
// When bound to a shard, a touch from a different shard context is reported
// as a ShardViolation instead (and the touch history is left untouched).
class AccessGuard {
 public:
  explicit AccessGuard(std::string name) : name_(std::move(name)) {}

  // Declares the owning shard. kNoShard (the default) disables the shard
  // check. Rebinding is allowed (placement can change between runs).
  void BindShard(ShardId shard) { owner_shard_ = shard; }
  ShardId owner_shard() const { return owner_shard_; }

  void Read() const {
    AccessLedger& ledger = AccessLedger::Global();
    if (ledger.enabled()) {
      Record(ledger, /*is_write=*/false);
    }
  }

  void Write() const {
    AccessLedger& ledger = AccessLedger::Global();
    if (ledger.enabled()) {
      Record(ledger, /*is_write=*/true);
    }
  }

  // Shard-ownership-only probe: reports a cross-shard violation but records
  // no actor touch. For structures whose same-shard reentrancy is ordered by
  // design (e.g. the network switch's fan-out counters, which every attached
  // stack bumps on the deterministic single-engine path) where only a
  // foreign-shard touch is a bug.
  void CheckShardOnly(bool is_write) const;

  const std::string& name() const { return name_; }

 private:
  struct Touch {
    ActorId actor;
    bool write;
  };

  void Record(AccessLedger& ledger, bool is_write) const;
  // Returns true when the touch comes from a foreign shard (and reports it).
  bool ShardCheck(AccessLedger& ledger, bool is_write) const;

  std::string name_;
  ShardId owner_shard_ = kNoShard;
  // Mutable: guards live inside logically-const containers and recording a
  // read must not force the owning structure's API non-const.
  mutable uint64_t epoch_ = ~0ull;
  mutable std::vector<Touch> touches_;
};

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_ACCESS_GUARD_H_
