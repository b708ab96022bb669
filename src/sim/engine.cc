#include "src/sim/engine.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/sim/access_guard.h"

namespace coyote {
namespace sim {

Engine::Engine() : ledger_(&AccessLedger::Global()) {
#ifdef COYOTE_ACCESS_GUARDS
  // Sanitize/debug builds arm the race-detection ledger for every test that
  // spins up an engine; release builds leave it to tests to opt in.
  ledger_->set_enabled(true);
#endif
}

uint32_t Engine::AllocNode(Callback&& cb) {
  uint32_t idx;
  if (!free_nodes_.empty()) {
    idx = free_nodes_.back();
    free_nodes_.pop_back();
    pool_[idx] = std::move(cb);
  } else {
    idx = static_cast<uint32_t>(pool_.size());
    pool_.push_back(std::move(cb));
    generations_.push_back(0);
  }
  return idx;
}

void Engine::HeapPush(const HeapEntry& e) {
  heap_.push_back(e);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!EntryAfter(heap_[parent], e)) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

Engine::HeapEntry Engine::HeapPop() {
  const HeapEntry top = heap_.front();
  const HeapEntry e = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return top;
  }
  size_t i = 0;
  for (;;) {
    const size_t l = 2 * i + 1;
    if (l >= n) {
      break;
    }
    size_t c = l;
    const size_t r = l + 1;
    if (r < n && EntryAfter(heap_[l], heap_[r])) {
      c = r;
    }
    if (!EntryAfter(e, heap_[c])) {
      break;
    }
    heap_[i] = heap_[c];
    i = c;
  }
  heap_[i] = e;
  return top;
}

Engine::EventId Engine::ScheduleImpl(TimePs t, Callback&& cb) {
  const uint32_t idx = AllocNode(std::move(cb));
  HeapPush(HeapEntry{t, next_seq_++, idx});
  return ((static_cast<EventId>(idx) + 1) << 32) | generations_[idx];
}

bool Engine::Cancel(EventId id) {
  // kNoEvent wraps to a slot past the pool, like any id this engine never
  // issued.
  const uint64_t idx = (id >> 32) - 1;
  if (idx >= pool_.size() || generations_[idx] != static_cast<uint32_t>(id)) {
    return false;
  }
  ++generations_[idx];
  // Moved out so the captures are destroyed after the slot is settled, even
  // if a destructor schedules.
  Callback cancelled = std::move(pool_[idx]);
  return true;
}

bool Engine::Step() {
#ifdef COYOTE_ACCESS_GUARDS
  if (in_event_) {
    // lint: callback-blocking-ok fatal diagnostic immediately before abort()
    std::fprintf(stderr, "Engine: Step() entered inside one of its own events (nested run)\n");
    std::abort();
  }
#endif
  if (heap_.empty()) {
    return false;
  }
  const HeapEntry top = HeapPop();
  now_ = top.time;
  // Move the callback out and recycle the slot *before* invoking, so the
  // callback can schedule new events (and reuse this very slot) freely.
  // (Move-construction nulls the pool slot's ops pointer; no extra reset.)
  Callback cb = std::move(pool_[top.idx]);
  free_nodes_.push_back(top.idx);
  ++events_executed_;
  AccessLedger& ledger = *ledger_;
  if (!cb) {
    // Cancelled (Cancel already retired the id): a no-op pop, still one
    // executed event and one race-detection epoch.
    if (ledger.enabled()) {
      ledger.AdvanceEpoch();
    }
    return true;
  }
  ++generations_[top.idx];  // the id goes stale as the event fires
#ifdef COYOTE_ACCESS_GUARDS
  in_event_ = true;
#endif
  if (ledger.enabled()) {
    // Each executed event is one race-detection epoch; the callback runs as
    // the engine actor unless a narrower ActorScope is set further down.
    ledger.AdvanceEpoch();
    ActorScope scope(kActorEngine);
    cb();
  } else {
    cb();
  }
#ifdef COYOTE_ACCESS_GUARDS
  in_event_ = false;
#endif
  return true;
}

void Engine::CloseEpoch() {
  // Returning from a run loop ends the last event's race-detection epoch:
  // the caller (a cThread Wait, a CSR poll, test driver code) resumes only
  // after that event finished, so its touches are program-ordered after the
  // event's — not logically concurrent with them. Without this, host code
  // aliases into the final event's epoch and every completion-then-consume
  // sequence reads as a host/engine conflict.
  if (ledger_->enabled()) {
    ledger_->AdvanceEpoch();
  }
}

uint64_t Engine::RunUntilIdle() {
  uint64_t n = 0;
  while (Step()) {
    ++n;
  }
  CloseEpoch();
  return n;
}

uint64_t Engine::RunUntil(TimePs deadline) {
  uint64_t n = 0;
  while (!heap_.empty() && heap_.front().time <= deadline) {
    Step();
    ++n;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  CloseEpoch();
  return n;
}

bool Engine::RunUntilCondition(const std::function<bool()>& done) {
  while (!done()) {
    if (!Step()) {
      const bool satisfied = done();
      CloseEpoch();
      return satisfied;
    }
  }
  CloseEpoch();
  return true;
}

}  // namespace sim
}  // namespace coyote
