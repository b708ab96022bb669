// Cancellable timers on top of the event engine.
//
// Engine::ScheduleAfter is fire-and-forget: once an event is queued it will
// run, so any component that wants a *deadline* (fire only if something did
// NOT happen) would have to build its own generation-counter machinery. The
// TimerWheel centralizes the pattern: it hands out handles, and a cancelled
// handle turns the queued engine event into a no-op. Its clients are
// watchdogs (runtime::Supervisor), per-request deadlines (runtime::CThread)
// and the retransmit timers of the RoCE and TCP stacks (net::RoceStack,
// net::TcpStack).
//
// Timers live in a slot pool indexed by the handle; a handle encodes
// (slot, generation) so Cancel and re-arm are O(1) — no map lookups, no
// allocation once the pool is warm. Cancelling frees the stored callback
// immediately; the already-queued engine event degrades to a generation-check
// no-op when it fires.
//
// Determinism: the wheel adds no ordering of its own — timers fire as plain
// engine events, so two timers armed for the same instant fire in the order
// they were armed (the engine's FIFO tie-break).

#ifndef SRC_SIM_TIMER_WHEEL_H_
#define SRC_SIM_TIMER_WHEEL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/callback.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace coyote {
namespace sim {

class TimerWheel {
 public:
  using TimerId = uint64_t;
  using Callback = InlineCallback;

  static constexpr TimerId kInvalidTimer = 0;

  explicit TimerWheel(Engine* engine) : engine_(engine) {}
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // One-shot: fires once after `delay`, then the handle expires.
  TimerId ScheduleAfter(TimePs delay, Callback cb) {
    const uint32_t slot = AllocSlot();
    Slot& s = slots_[slot];
    s.periodic = false;
    s.period = 0;
    s.cb = std::move(cb);
    Arm(slot, s.generation, delay);
    return MakeId(slot, s.generation);
  }

  // Periodic: first fire after `period`, then every `period` until cancelled.
  TimerId SchedulePeriodic(TimePs period, Callback cb) {
    const uint32_t slot = AllocSlot();
    Slot& s = slots_[slot];
    s.periodic = true;
    s.period = period;
    // Periodic callbacks live behind a stable shared_ptr: a fire may pump the
    // engine (recovery code does), so the same timer can fire again while the
    // callback is still executing, and a callback may Cancel its own handle
    // mid-run. Each executor holds a reference, so the callable outlives every
    // in-flight invocation without a per-fire copy.
    s.periodic_cb = std::make_shared<Callback>(std::move(cb));
    Arm(slot, s.generation, period);
    return MakeId(slot, s.generation);
  }

  // Returns true if the timer was still pending (and is now disarmed). A
  // one-shot that already fired, or an unknown id, returns false. Safe to
  // call from inside the timer's own callback (stops a periodic timer).
  // O(1): bumps the slot generation, so the queued engine event no-ops.
  bool Cancel(TimerId id) {
    uint32_t slot, gen;
    if (!Decode(id, &slot, &gen) || !slots_[slot].armed || slots_[slot].generation != gen) {
      return false;
    }
    Disarm(slot);
    return true;
  }

  bool Pending(TimerId id) const {
    uint32_t slot, gen;
    return Decode(id, &slot, &gen) && slots_[slot].armed && slots_[slot].generation == gen;
  }
  size_t active() const { return armed_count_; }
  uint64_t fires() const { return fires_; }
  uint64_t cancelled_fires() const { return cancelled_fires_; }

 private:
  struct Slot {
    uint32_t generation = 0;
    bool armed = false;
    bool periodic = false;
    TimePs period = 0;
    Callback cb;                            // one-shot payload
    std::shared_ptr<Callback> periodic_cb;  // periodic payload (see SchedulePeriodic)
  };

  static TimerId MakeId(uint32_t slot, uint32_t gen) {
    // slot+1 keeps every valid id distinct from kInvalidTimer (0).
    return (static_cast<TimerId>(slot + 1) << 32) | gen;
  }
  bool Decode(TimerId id, uint32_t* slot, uint32_t* gen) const {
    const uint64_t hi = id >> 32;
    if (hi == 0 || hi > slots_.size()) {
      return false;
    }
    *slot = static_cast<uint32_t>(hi - 1);
    *gen = static_cast<uint32_t>(id & 0xFFFFFFFFu);
    return true;
  }

  uint32_t AllocSlot() {
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].armed = true;
    ++armed_count_;
    return slot;
  }

  void Disarm(uint32_t slot) {
    Slot& s = slots_[slot];
    s.armed = false;
    ++s.generation;  // invalidates the handle and any queued engine event
    // Release captures now, not when the stale event fires. In-flight periodic
    // invocations keep their own reference to periodic_cb.
    s.cb = nullptr;
    s.periodic_cb.reset();
    free_slots_.push_back(slot);
    --armed_count_;
  }

  void Arm(uint32_t slot, uint32_t gen, TimePs delay) {
    engine_->ScheduleAfter(delay, [this, slot, gen] { Fire(slot, gen); });
  }

  void Fire(uint32_t slot, uint32_t gen) {
    Slot& s = slots_[slot];
    if (!s.armed || s.generation != gen) {
      // Cancelled (or slot recycled) between arm and fire: the engine event
      // outlives the handle and degrades to a no-op.
      ++cancelled_fires_;
      return;
    }
    ++fires_;
    if (s.periodic) {
      // Re-arm before running so the callback may Cancel() its own handle to
      // stop the cycle. Hold a reference for the invocation: the callback may
      // Cancel (dropping the slot's reference) or arm new timers (moving
      // slots_ under us) without invalidating the executing callable.
      Arm(slot, gen, s.period);
      const std::shared_ptr<Callback> keep = s.periodic_cb;
      (*keep)();
    } else {
      Callback cb = std::move(s.cb);
      Disarm(slot);
      cb();
    }
  }

  Engine* engine_;
  uint64_t fires_ = 0;
  uint64_t cancelled_fires_ = 0;
  size_t armed_count_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_TIMER_WHEEL_H_
