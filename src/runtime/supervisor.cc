#include "src/runtime/supervisor.h"

#include <string>
#include <utility>

#include "src/sim/hash.h"

namespace coyote {
namespace runtime {

Supervisor::Supervisor(SimDevice* dev, KernelScheduler* scheduler, Config config)
    : dev_(dev), scheduler_(scheduler), config_(config) {
  regions_.resize(dev_->num_vfpgas());
  // The supervisor drives quarantine and DMA aborts from inside its own tick,
  // and the scheduler's reset from its reprogram's callback; those
  // cross-actor touches are program-ordered by construction. Declare the
  // pairs so the race detector stays focused on genuine reentrancy bugs.
  auto& ledger = sim::AccessLedger::Global();
  ledger.DeclareOrdered(sim::kActorSupervisor, sim::kActorScheduler);
  ledger.DeclareOrdered(sim::kActorSupervisor, sim::kActorDma);
  ledger.DeclareOrdered(sim::kActorSupervisor, sim::kActorHost);
  dev_->SetSupervisor(this);
}

Supervisor::~Supervisor() {
  Stop();
  if (dev_->supervisor() == this) {
    dev_->SetSupervisor(nullptr);
  }
}

void Supervisor::Start() {
  if (running()) {
    return;
  }
  // Baseline the heartbeats so a region already busy at Start() is not
  // instantly suspected.
  const sim::TimePs now = dev_->engine().Now();
  for (uint32_t i = 0; i < regions_.size(); ++i) {
    RegionWatch& w = regions_[i];
    w.last_beats = dev_->vfpga(i).beats_retired();
    w.last_packets = dev_->data_mover().packets_moved_for(i);
    w.last_progress_at = now;
  }
  next_tick_ = dev_->engine().ScheduleAfter(config_.watchdog_period, [this]() { Tick(); });
}

void Supervisor::Stop() {
  dev_->engine().Cancel(next_tick_);
  next_tick_ = sim::Engine::kNoEvent;
}

void Supervisor::SetLastKnownGood(uint32_t vfpga_id, const std::string& bitstream_path) {
  state_guard_.Write();
  regions_[vfpga_id].last_known_good = bitstream_path;
}

void Supervisor::NoteDeadlineMiss(uint32_t vfpga_id) {
  sim::ActorScope actor(sim::kActorSupervisor);
  state_guard_.Write();
  RegionWatch& w = regions_[vfpga_id];
  if (w.health == RegionHealth::kHealthy || w.health == RegionHealth::kSuspected ||
      w.health == RegionHealth::kProbation) {
    // A miss during probation is relapse evidence: the freshly reprogrammed
    // region is already failing host deadlines again.
    w.deadline_missed = true;
    events_.Record("deadline.miss", {vfpga_id}, dev_->engine().Now());
  }
}

void Supervisor::Tick() {
  next_tick_ = dev_->engine().ScheduleAfter(config_.watchdog_period, [this]() { Tick(); });
  sim::ActorScope actor(sim::kActorSupervisor);
  state_guard_.Write();
  for (uint32_t i = 0; i < regions_.size(); ++i) {
    SampleRegion(i);
  }
}

void Supervisor::SampleRegion(uint32_t id) {
  RegionWatch& w = regions_[id];
  if (w.health == RegionHealth::kQuarantined) {
    // A permanently fenced region cannot make progress; any work that still
    // lands on it (a host unaware of the quarantine) is bounced with error
    // completions rather than left to hang.
    if (dev_->data_mover().OutstandingOps(id) > 0) {
      dev_->data_mover().AbortVfpga(id);
      dev_->vfpga(id).FlushStreams();
      events_.Record("quarantine.bounce", {id}, dev_->engine().Now());
    }
    return;
  }
  if (w.health == RegionHealth::kRecovering) {
    return;
  }

  const uint64_t beats = dev_->vfpga(id).beats_retired();
  const uint64_t packets = dev_->data_mover().packets_moved_for(id);
  const bool progressed = beats != w.last_beats || packets != w.last_packets;
  const sim::TimePs now = dev_->engine().Now();
  w.last_beats = beats;
  w.last_packets = packets;

  if (w.health == RegionHealth::kProbation) {
    // Cool-down: the region is still quarantined in the scheduler, so clean
    // ticks count down to re-admission. But a region failing *again* mid-
    // probation — host-driven work wedged past the deadline window, or a
    // fresh cThread deadline miss — escalates with its carried incident
    // budget rather than quietly restarting the countdown with a full one.
    if (progressed) {
      w.last_progress_at = now;
    }
    const bool relapsed =
        w.deadline_missed ||
        (!progressed && dev_->data_mover().OutstandingOps(id) > 0 &&
         now - w.last_progress_at >= config_.heartbeat_deadline);
    if (relapsed) {
      events_.Record("probation.relapse", {id}, now);
      Recover(id, "probation.relapse");
      return;
    }
    if (w.probation_left > 0) {
      --w.probation_left;
    }
    if (w.probation_left == 0) {
      w.health = RegionHealth::kHealthy;
      w.last_progress_at = now;
      w.incident_attempts = 0;  // clean exit: the incident chain is over
      events_.Record("readmit", {id}, now);
      if (scheduler_ != nullptr) {
        scheduler_->SetQuarantined(id, false);
      }
    }
    return;
  }

  if (progressed) {
    w.last_progress_at = now;
    w.deadline_missed = false;
    if (w.health == RegionHealth::kSuspected) {
      w.health = RegionHealth::kHealthy;
      events_.Record("clear", {id}, now);
    }
    return;
  }

  const size_t outstanding = dev_->data_mover().OutstandingOps(id);
  if (outstanding == 0 && !w.deadline_missed) {
    // Idle region: flat heartbeats are expected.
    w.last_progress_at = now;
    if (w.health == RegionHealth::kSuspected) {
      w.health = RegionHealth::kHealthy;
      events_.Record("clear", {id}, now);
    }
    return;
  }

  // Outstanding work with flat heartbeats: suspect first, recover once the
  // deadline window has elapsed. A reported cThread deadline miss shortcuts
  // the window — the host already waited its own deadline out.
  if (w.health == RegionHealth::kHealthy) {
    w.health = RegionHealth::kSuspected;
    events_.Record("suspect", {id}, now);
  }
  if (w.deadline_missed || now - w.last_progress_at >= config_.heartbeat_deadline) {
    Recover(id, w.deadline_missed ? "deadline.miss" : "kernel.hang");
  }
}

void Supervisor::Recover(uint32_t id, const std::string& fault_class) {
  RegionWatch& w = regions_[id];
  const sim::TimePs detected_at = dev_->engine().Now();

  Incident incident;
  incident.vfpga_id = id;
  incident.fault_class = fault_class;
  incident.detected_at = detected_at;
  incident.detect_latency = detected_at - w.last_progress_at;
  w.health = RegionHealth::kRecovering;
  w.deadline_missed = false;
  events_.Record("detect", {id, sim::FnvHash(fault_class)}, detected_at);

  // ISOLATE: fence the region off from new dispatches, abort its in-flight
  // DMA (error completions, credit restore, TLB shootdown) and flush the
  // stream queues so the reprogrammed kernel starts clean.
  if (scheduler_ != nullptr) {
    scheduler_->SetQuarantined(id, true);
  }
  dev_->data_mover().AbortVfpga(id);
  dev_->vfpga(id).FlushStreams();

  // RECOVER: hot-swap the last-known-good bitstream through the normal ICAP
  // path (real Table-3 latency; itself subject to injected ICAP faults). The
  // budget is per incident *chain*: max_recoveries attempts escalate to
  // permanent quarantine. A fresh incident (the region had been cleanly
  // re-admitted, or never failed) starts a full budget; a probation relapse
  // continues the one already partly spent — failing again straight out of
  // recovery must escalate, not loop forever on a free budget.
  if (fault_class != "probation.relapse") {
    w.incident_attempts = 0;
  }
  Reprogram(std::move(incident));
}

void Supervisor::Reprogram(Incident incident) {
  const uint32_t id = incident.vfpga_id;
  RegionWatch& w = regions_[id];
  if (w.last_known_good.empty() || w.incident_attempts >= config_.max_recoveries) {
    // Budget exhausted (or nothing to reprogram with): fence permanently.
    // The shell keeps serving the other regions.
    dev_->vfpga(id).UnloadKernel();
    w.health = RegionHealth::kQuarantined;
    events_.Record("quarantine.permanent", {id}, dev_->engine().Now());
    if (scheduler_ != nullptr) {
      scheduler_->NoteRegionReset(id, std::string());
    }
    incidents_.push_back(std::move(incident));
    return;
  }
  ++w.incident_attempts;
  // The region stays kRecovering until the callback; the watchdog keeps
  // sampling every other region meanwhile.
  dev_->ReconfigureApp(w.last_known_good, id, [this, id, incident = std::move(incident)](
                                                  const SimDevice::ReconfigResult& result) mutable {
    sim::ActorScope actor(sim::kActorSupervisor);
    state_guard_.Write();
    const sim::TimePs now = dev_->engine().Now();
    if (!result.ok) {
      events_.Record("recover.retry", {id}, now);
      Reprogram(std::move(incident));
      return;
    }
    RegionWatch& watch = regions_[id];
    incident.recovered = true;
    incident.mttr = now - incident.detected_at;
    watch.health = RegionHealth::kProbation;
    watch.probation_left = config_.probation_ticks;
    watch.last_beats = dev_->vfpga(id).beats_retired();
    watch.last_packets = dev_->data_mover().packets_moved_for(id);
    watch.last_progress_at = now;
    events_.Record("recover.ok", {id}, now);
    if (scheduler_ != nullptr) {
      // Reap the hung request and record the freshly programmed bitstream.
      scheduler_->NoteRegionReset(id, watch.last_known_good);
    }
    incidents_.push_back(std::move(incident));
  });
}

}  // namespace runtime
}  // namespace coyote
