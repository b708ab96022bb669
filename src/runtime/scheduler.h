// Kernel scheduler for on-demand partial reconfiguration (paper §4, §9.6).
//
// Prior shells "trigger reconfiguration of specific applications as user
// requests arrive, based on some scheduling policy"; Coyote v2 keeps that
// ability for its vFPGA regions. This scheduler owns the application layer:
// clients submit requests naming a kernel bitstream plus the work to run;
// the scheduler places each request on a free vFPGA, reconfiguring the
// region when the resident kernel differs.
//
// Each pass dispatches, in arrival order, every queued request a region can
// take now: a request waits only while no region that can run it is free.
// The policy picks the region:
//   kFcfs     — the first free region.
//   kAffinity — a free region that already holds the requested kernel,
//               avoiding the reconfiguration entirely (the paper's daemon
//               pattern: hot kernels stay resident).
//
// A request whose kernel is not resident starts in the callback of the
// region's event-driven reconfiguration. While a reconfiguration the
// scheduler started is in flight it places nothing (the hold rule); the
// callback ends the hold with a new pass.

#ifndef SRC_RUNTIME_SCHEDULER_H_
#define SRC_RUNTIME_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/cthread.h"  // OpStatus: typed failure completions
#include "src/runtime/device.h"
#include "src/sim/access_guard.h"
#include "src/sim/stats.h"

namespace coyote {
namespace runtime {

class KernelScheduler {
 public:
  enum class Policy : uint8_t {
    kFcfs,
    kAffinity,
  };

  struct Request {
    std::string bitstream_path;  // kernel to run (app bitstream)
    uint32_t tenant = 0;         // accounting key for the per-tenant counters
    // Placement hint from the routing tier: try this region first when it is
    // eligible. -1 leaves placement entirely to the policy.
    int32_t region_hint = -1;
    // Serving-tier contract: only dispatch onto a region where the kernel is
    // already resident. When no eligible region holds it (e.g. the only
    // resident region just got quarantined mid-batch) the request fails fast
    // with a typed error instead of paying a reconfiguration's latency.
    bool require_resident = false;
    // The work: receives the assigned vFPGA id and a completion callback the
    // work must invoke when finished (frees the region).
    std::function<void(uint32_t vfpga_id, std::function<void()> done)> run;
    // Typed rejection: invoked (instead of run) when the scheduler cannot
    // execute the request — reconfiguration failure or a require_resident
    // request with no eligible resident region. Unset keeps the legacy
    // silent-drop behavior.
    std::function<void(OpStatus)> failed;
  };

  KernelScheduler(SimDevice* dev, Policy policy) : dev_(dev), policy_(policy) {
    region_state_.resize(dev->num_vfpgas());
    // Submit() records a host-actor write in the same epoch as the completion
    // path's scheduler-actor write when a synchronously-finishing request
    // completes inside the submit event. That pairing is deliberately ordered:
    // dispatch itself is deferred through ScheduleAfter(0), so the queue is
    // only ever drained in a fresh epoch.
    sim::AccessLedger::Global().DeclareOrdered(sim::kActorHost, sim::kActorScheduler);
  }

  // Enqueues the request; dispatch happens from the event loop, so a batch
  // of submissions is scheduled together.
  void Submit(Request request) {
    queue_guard_.Write();
    stats_.Increment("sched.submitted");
    CountTenant("sched.submitted.tenant", request.tenant);
    depth_hist_.Add(queue_.size() + 1);
    queue_.push_back(std::move(request));
    Schedule();
  }

  // True when every submitted request has completed.
  bool Idle() const { return queue_.empty() && busy_regions_ == 0; }

  // --- Quarantine (supervision hooks) ----------------------------------------
  // A quarantined region is never picked for dispatch. The supervisor
  // quarantines a region before recovery and re-admits it after probation;
  // re-admission kicks the scheduler so queued work lands on it again.
  void SetQuarantined(uint32_t vfpga_id, bool quarantined);
  bool quarantined(uint32_t vfpga_id) const {
    return region_state_[vfpga_id].quarantined;
  }
  // The region was externally reset (recovery hot-swap): reap the hung
  // request so Idle() converges, and record what is now resident (empty =
  // nothing loaded). A stale completion from the reaped request is ignored.
  void NoteRegionReset(uint32_t vfpga_id, const std::string& resident_bitstream);

  // Declares which shard's engine owns this scheduler in a sharded run. A
  // completion or Submit() arriving from another shard's callback is then a
  // reported ShardViolation — the fix is to route it through
  // ShardedEngine::Post onto the owning shard.
  void BindShard(sim::ShardId shard) { queue_guard_.BindShard(shard); }

  uint64_t submitted() const { return stats_.value("sched.submitted"); }
  uint64_t completed() const { return completed_; }
  uint64_t reconfigurations() const { return reconfigurations_; }
  uint64_t affinity_hits() const { return affinity_hits_; }
  uint64_t quarantine_events() const { return stats_.value("sched.quarantine.on"); }
  uint64_t reaped_requests() const { return stats_.value("sched.reaped"); }
  uint64_t failed_requests() const {
    return stats_.value("sched.failed.no_resident") + stats_.value("sched.failed.reconfig");
  }

  // --- Observability ----------------------------------------------------------
  // Monotonic event counters (per-tenant submits/dispatches, quarantine
  // transitions, failures); the serving fabric folds them into its
  // fingerprint, and tests read them.
  const sim::CounterSet& stats() const { return stats_; }
  // Queue depth sampled at every Submit.
  const sim::Histogram& depth_histogram() const { return depth_hist_; }

 private:
  struct RegionState {
    bool busy = false;
    bool quarantined = false;
    // Bumped by NoteRegionReset; a completion whose epoch is stale belongs to
    // a reaped request and must not double-free the region.
    uint64_t epoch = 0;
    std::string resident_bitstream;  // empty: nothing loaded
  };

  void Schedule();
  void DoSchedule();
  int PickRegion(const Request& request);
  void Dispatch(size_t request_index, uint32_t vfpga_id);
  // Runs the dispatched request on its region.
  void Start(uint32_t vfpga_id, Request request);
  // True when some non-quarantined region (busy or not) holds the kernel.
  bool ResidentAnywhereEligible(const std::string& bitstream) const;
  // Removes queue_[index] with a typed rejection (see Request::failed),
  // counted under `key`.
  void FailRequest(size_t index, OpStatus status, const char* key);
  // Counts `prefix` followed by the tenant id in decimal. The key is built in
  // a stack buffer, so a request of a tenant seen before allocates nothing.
  void CountTenant(std::string_view prefix, uint32_t tenant);

  SimDevice* dev_;
  Policy policy_;
  std::vector<RegionState> region_state_;
  std::deque<Request> queue_;
  uint32_t busy_regions_ = 0;
  bool schedule_pending_ = false;
  bool reconfiguring_ = false;  // the hold rule: a reconfiguration is in flight

  sim::AccessGuard queue_guard_{"runtime.sched_queue"};
  uint64_t completed_ = 0;
  uint64_t reconfigurations_ = 0;
  uint64_t affinity_hits_ = 0;

  sim::CounterSet stats_;
  sim::Histogram depth_hist_;
};

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_SCHEDULER_H_
