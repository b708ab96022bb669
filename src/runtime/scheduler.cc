#include "src/runtime/scheduler.h"

#include <charconv>

namespace coyote {
namespace runtime {

int KernelScheduler::PickRegion(const Request& request) {
  auto eligible = [this, &request](uint32_t i) {
    if (region_state_[i].busy || region_state_[i].quarantined) {
      return false;
    }
    return !request.require_resident ||
           region_state_[i].resident_bitstream == request.bitstream_path;
  };
  // Routing-tier placement hint: honor it whenever the hinted region can
  // take the request right now; otherwise fall back to the policy.
  if (request.region_hint >= 0 &&
      static_cast<size_t>(request.region_hint) < region_state_.size() &&
      eligible(static_cast<uint32_t>(request.region_hint))) {
    return request.region_hint;
  }
  int first_free = -1;
  for (uint32_t i = 0; i < region_state_.size(); ++i) {
    if (!eligible(i)) {
      continue;
    }
    if ((policy_ == Policy::kAffinity || request.require_resident) &&
        region_state_[i].resident_bitstream == request.bitstream_path) {
      return static_cast<int>(i);  // hot region: no reconfiguration needed
    }
    if (first_free < 0) {
      first_free = static_cast<int>(i);
    }
  }
  if (policy_ == Policy::kAffinity && first_free >= 0) {
    // Prefer an *empty* free region over evicting someone else's kernel, so
    // hot kernels stay resident as long as capacity allows.
    for (uint32_t i = 0; i < region_state_.size(); ++i) {
      if (!region_state_[i].busy && !region_state_[i].quarantined &&
          region_state_[i].resident_bitstream.empty()) {
        return static_cast<int>(i);
      }
    }
  }
  return first_free;
}

bool KernelScheduler::ResidentAnywhereEligible(const std::string& bitstream) const {
  for (const RegionState& s : region_state_) {
    if (!s.quarantined && s.resident_bitstream == bitstream) {
      return true;
    }
  }
  return false;
}

void KernelScheduler::CountTenant(std::string_view prefix, uint32_t tenant) {
  char key[48] = {};
  prefix.copy(key, prefix.size());
  char* end = std::to_chars(key + prefix.size(), key + sizeof(key), tenant).ptr;
  stats_.Increment(std::string_view(key, static_cast<size_t>(end - key)));
}

void KernelScheduler::FailRequest(size_t index, OpStatus status, const char* key) {
  Request request = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(index));
  ++completed_;  // left the scheduler: Idle() converges
  stats_.Increment(key);
  if (request.failed) {
    request.failed(status);
  }
}

void KernelScheduler::Schedule() {
  if (schedule_pending_) {
    return;
  }
  schedule_pending_ = true;
  dev_->engine().ScheduleAfter(0, [this]() {
    schedule_pending_ = false;
    DoSchedule();
  });
}

void KernelScheduler::DoSchedule() {
  sim::ActorScope actor(sim::kActorScheduler);
  queue_guard_.Write();
  // One scan in arrival order dispatches every request a region can take now,
  // unless a reconfiguration holds the scheduler. A require_resident request
  // that no eligible region holds (its region was quarantined or reset) would
  // need a reconfiguration the serving tier forbids: it fails fast with a
  // typed error. Any other request waits for a completion to re-enter
  // Schedule(). Only require_resident lets a request pass a waiting one, and
  // only onto a region the waiting one cannot use.
  size_t i = 0;
  while (!reconfiguring_ && i < queue_.size()) {
    const int region = PickRegion(queue_[i]);
    if (region >= 0) {
      Dispatch(i, static_cast<uint32_t>(region));
    } else if (queue_[i].require_resident &&
               !ResidentAnywhereEligible(queue_[i].bitstream_path)) {
      FailRequest(i, OpStatus::kError, "sched.failed.no_resident");
    } else {
      ++i;
    }
  }
}

void KernelScheduler::Dispatch(size_t request_index, uint32_t vfpga_id) {
  Request request = std::move(queue_[request_index]);
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(request_index));
  stats_.Increment("sched.dispatched");
  CountTenant("sched.dispatched.tenant", request.tenant);

  RegionState& state = region_state_[vfpga_id];
  state.busy = true;
  ++busy_regions_;
  if (state.resident_bitstream == request.bitstream_path) {
    ++affinity_hits_;
    Start(vfpga_id, std::move(request));
    return;
  }

  // The region stays busy while it reprograms; the request starts in the
  // callback unless NoteRegionReset reaped it meanwhile (a stale epoch).
  reconfiguring_ = true;
  const uint64_t epoch = state.epoch;
  const std::string path = request.bitstream_path;  // the callback below takes `request`
  dev_->ReconfigureApp(path, vfpga_id, [this, vfpga_id, epoch, request = std::move(request)](
                                           const SimDevice::ReconfigResult& result) mutable {
    sim::ActorScope actor(sim::kActorScheduler);
    queue_guard_.Write();
    reconfiguring_ = false;
    RegionState& region = region_state_[vfpga_id];
    if (region.epoch == epoch && result.ok) {
      region.resident_bitstream = request.bitstream_path;
      ++reconfigurations_;
      Start(vfpga_id, std::move(request));
    } else if (region.epoch == epoch) {
      // Typed rejection (legacy callers without `failed` keep the silent
      // drop); count it completed either way so Idle() converges.
      region.busy = false;
      --busy_regions_;
      ++completed_;
      stats_.Increment("sched.failed.reconfig");
      if (request.failed) {
        request.failed(OpStatus::kError);
      }
    }
    Schedule();  // the hold is over: place what waited
  });
}

void KernelScheduler::Start(uint32_t vfpga_id, Request request) {
  const uint64_t epoch = region_state_[vfpga_id].epoch;
  auto done = [this, vfpga_id, epoch]() {
    // Completions arrive from arbitrary contexts (DMA callbacks, RoCE rx,
    // supervisor probes) yet mutate scheduler-owned state; run them as the
    // scheduler actor and record the write so a same-epoch collision with
    // another actor is a reported conflict, not a silent reorder.
    sim::ActorScope actor(sim::kActorScheduler);
    queue_guard_.Write();
    if (region_state_[vfpga_id].epoch != epoch) {
      return;  // request was reaped by NoteRegionReset; region already freed
    }
    region_state_[vfpga_id].busy = false;
    --busy_regions_;
    ++completed_;
    Schedule();
  };
  if (request.run) {
    request.run(vfpga_id, std::move(done));
  } else {
    done();
  }
}

void KernelScheduler::SetQuarantined(uint32_t vfpga_id, bool quarantined) {
  queue_guard_.Write();
  RegionState& state = region_state_[vfpga_id];
  if (state.quarantined == quarantined) {
    return;
  }
  state.quarantined = quarantined;
  stats_.Increment(quarantined ? "sched.quarantine.on" : "sched.quarantine.off");
  // Either edge changes what the queue can do: queued require_resident
  // requests stranded by a quarantine fail fast in the next pass rather than
  // waiting on a readmission that may never come, and a re-admitted region
  // takes queued work again.
  Schedule();
}

void KernelScheduler::NoteRegionReset(uint32_t vfpga_id,
                                      const std::string& resident_bitstream) {
  queue_guard_.Write();
  RegionState& state = region_state_[vfpga_id];
  ++state.epoch;  // invalidate the reaped request's completion callback
  state.resident_bitstream = resident_bitstream;
  if (state.busy) {
    state.busy = false;
    --busy_regions_;
    ++completed_;  // the hung request is counted done so Idle() converges
    stats_.Increment("sched.reaped");
    Schedule();
  }
}

}  // namespace runtime
}  // namespace coyote
