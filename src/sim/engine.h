// Discrete-event simulation engine.
//
// The engine owns a timestamped callback queue. All hardware models in the
// substrate (links, memory channels, reconfiguration ports, network switches,
// kernels) schedule their state transitions here. The engine is strictly
// single-threaded: determinism is a design requirement so that every
// benchmark in bench/ is exactly reproducible run-to-run. Multi-core
// simulation does not relax this — the sharded PDES coordinator
// (src/sim/sharded_engine.h) gives every shard its own Engine on its own
// worker thread and only ever drives one engine from one thread at a time.
// Only host code runs an engine: no event runs its own engine (a nested
// run), and in COYOTE_ACCESS_GUARDS builds Step() aborts if one tries.
//
// Implementation: one binary min-heap of 16-byte (time, seq, slot) entries
// over a pool of callbacks. Events fire in timestamp order, and events with
// equal timestamps fire in insertion order (a FIFO tie-break on a per-engine
// sequence number), so same-seed runs are bit-identical. Callbacks are
// recycled through a LIFO free list, and the heap keeps its grown capacity,
// so once both have grown to the peak pending population scheduling never
// allocates (callback captures up to InlineCallback::kInlineBytes ride
// inline too).
//
// Cancellation: ScheduleAt/ScheduleAfter return an EventId, and Cancel(id)
// destroys that event's callback at once. The event keeps its heap entry and
// pops at its time as a no-op: the no-op pop advances Now(), counts in
// events_executed() and closes a race-detection epoch, exactly like a fired
// event that does nothing. That is deliberate: dropping the entry would
// change events_executed(), which determinism fingerprints fold, and the
// clock after a drain. Each slot carries a 32-bit generation that goes up
// when its event fires or is cancelled; an id is (slot + 1, generation), so
// kNoEvent (0) names no event and a stale id can name a new event only after
// 2^32 reuses of one slot. The generations grow with the pool, so
// steady-state scheduling still never allocates. An id means something only
// to the engine that issued it.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/callback.h"
#include "src/sim/time.h"

namespace coyote {
namespace sim {

class AccessLedger;

class Engine {
 public:
  using Callback = InlineCallback;
  // Names one scheduled event of this engine (see the header comment).
  using EventId = uint64_t;
  static constexpr EventId kNoEvent = 0;

  // Arms the global AccessLedger in COYOTE_ACCESS_GUARDS builds (see
  // src/sim/access_guard.h).
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current simulated time.
  TimePs Now() const { return now_; }

  // Schedules `cb` at absolute time `t`. Events scheduled for a time in the
  // past fire at the current time. Events with equal timestamps fire in
  // insertion order (stable FIFO tie-break).
  EventId ScheduleAt(TimePs t, Callback cb) {
    return ScheduleImpl(t < now_ ? now_ : t, std::move(cb));
  }

  // Schedules `cb` after `delay` picoseconds.
  EventId ScheduleAfter(TimePs delay, Callback cb) {
    return ScheduleImpl(now_ + delay, std::move(cb));
  }

  // Destroys the pending event's callback; the event still pops at its time,
  // as a no-op. Returns false and changes nothing for kNoEvent, an event that
  // already fired or was cancelled (the running event included, so it is
  // safe inside the event's own callback), and a stale id whose slot now
  // holds another event.
  bool Cancel(EventId id);

  // Runs the next pending event. Returns false if the queue is empty. Must
  // not be reached from inside this engine's own events (see above).
  bool Step();

  // Runs until no events remain. Returns the number of events executed.
  uint64_t RunUntilIdle();

  // Runs events with timestamp <= `deadline`; advances Now() to `deadline` if
  // the queue drains earlier. Returns the number of events executed.
  uint64_t RunUntil(TimePs deadline);

  // Runs until `done` returns true or the queue drains. Returns true if the
  // predicate was satisfied.
  bool RunUntilCondition(const std::function<bool()>& done);

  // Earliest pending timestamp without executing it; false when idle. The
  // sharded coordinator (src/sim/sharded_engine.h) uses this between windows
  // to compute the next conservative horizon across all shards.
  bool PeekNextTime(TimePs* t) const {
    if (heap_.empty()) {
      return false;
    }
    *t = heap_.front().time;
    return true;
  }

  bool Idle() const { return heap_.empty(); }
  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const { return heap_.size(); }

  // Allocation introspection for the perf bench: capacity of the callback
  // pool and how many slots currently sit on the free list.
  size_t event_pool_size() const { return pool_.size(); }
  size_t event_free_list_size() const { return free_nodes_.size(); }

 private:
  // Advances the race-detection epoch when a run loop hands control back to
  // its host caller: code resuming after a run is program-ordered after the
  // last event, never logically concurrent with it.
  void CloseEpoch();

  // Ordering key + pool index. Entries carry their (time, seq) key so sifts
  // touch only the contiguous entry array, never the callback pool. The
  // sequence number is kept to 32 bits so an entry stays 16 bytes. It is
  // compared only between equal timestamps, and the wrap-safe difference
  // below reproduces the full-width FIFO order exactly while fewer than 2^31
  // events are scheduled between two events with the same timestamp.
  struct HeapEntry {
    TimePs time = 0;
    uint32_t seq = 0;  // tie-break: FIFO among equal timestamps (mod 2^32)
    uint32_t idx = 0;  // callback slot in pool_
  };
  static bool EntryAfter(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return static_cast<int32_t>(a.seq - b.seq) > 0;
  }

  // Takes the callback by rvalue reference so the capture bytes move exactly
  // once, from the caller's frame into the pool slot.
  EventId ScheduleImpl(TimePs t, Callback&& cb);
  uint32_t AllocNode(Callback&& cb);
  // (time, seq) min-heap primitives over heap_ (hole-insertion sifts: one
  // move per level instead of a swap per level).
  void HeapPush(const HeapEntry& e);
  HeapEntry HeapPop();

  TimePs now_ = 0;
  uint32_t next_seq_ = 0;  // wraps; see HeapEntry
  bool in_event_ = false;  // set around each callback in COYOTE_ACCESS_GUARDS builds
  uint64_t events_executed_ = 0;
  // Cached at construction: the process-wide ledger outlives every engine,
  // and caching skips an out-of-line Global() call on the per-event path.
  AccessLedger* ledger_ = nullptr;

  // Callback pool with an index free list: slots are recycled LIFO, so the
  // slot written at schedule time is usually the one just vacated by the
  // firing event — cache-hot — and steady-state scheduling performs no
  // allocation once the pool has warmed up. A cancelled event's slot holds an
  // empty callback and goes back on the free list when its entry pops.
  std::vector<Callback> pool_;
  std::vector<uint32_t> generations_;  // per slot; see the header comment
  std::vector<uint32_t> free_nodes_;
  std::vector<HeapEntry> heap_;  // pending events, min-heap on (time, seq)
};

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_ENGINE_H_
