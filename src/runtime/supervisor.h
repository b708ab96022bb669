// Shell supervision layer: watchdogs, deadlines, automatic vFPGA recovery.
//
// Data center deployment (paper §2.1) means a misbehaving application kernel
// cannot be allowed to wedge its region forever: the shell must detect the
// hang, fence the region off, and bring it back — the same way the paper's
// partial reconfiguration flow hot-swaps applications, but driven by a
// health signal instead of an operator. The Supervisor closes the loop:
//
//   DETECT   — a periodic watchdog samples each region's heartbeats (the
//              vFPGA's retired beats + the data mover's delivered packets).
//              A region with outstanding transfers whose heartbeats stay
//              flat for a full deadline window is declared hung. A cThread
//              op-deadline miss (CThread::SetOpDeadline) is treated as
//              early evidence and shortcuts the window.
//   ISOLATE  — the region is quarantined in the KernelScheduler (no new
//              dispatches), its in-flight DMA is aborted with error
//              completions (DataMover::AbortVfpga, which also restores the
//              credit counters and shoots down the TLB), and its stream
//              queues are flushed.
//   RECOVER  — the region is reprogrammed with its last-known-good
//              bitstream through the normal, event-driven ICAP path
//              (ReconfigureApp), so recovery pays the real Table-3
//              reconfiguration latency and is itself subject to injected
//              ICAP faults; the watchdog keeps sampling the other regions.
//   REPORT   — every incident is recorded (fault class, detection latency,
//              MTTR), and every state change is a sim::CounterSet event whose
//              fingerprint is bit-identical across same-seed runs.
//
// A recovered region sits in probation: it stays out of the scheduler for a
// configurable number of clean watchdog ticks before re-admission. A region
// that exhausts its recovery budget is permanently quarantined — the shell
// keeps serving the other regions (fault isolation, §4).

#ifndef SRC_RUNTIME_SUPERVISOR_H_
#define SRC_RUNTIME_SUPERVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/device.h"
#include "src/runtime/scheduler.h"
#include "src/sim/access_guard.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"

namespace coyote {
namespace runtime {

class Supervisor {
 public:
  struct Config {
    // Watchdog sampling period.
    sim::TimePs watchdog_period = sim::Microseconds(50);
    // A region with outstanding work whose heartbeats have been flat for at
    // least this long is declared hung.
    sim::TimePs heartbeat_deadline = sim::Microseconds(200);
    // Clean watchdog ticks a recovered region spends in probation before it
    // is re-admitted to the scheduler.
    uint32_t probation_ticks = 3;
    // Failed reprogram attempts per incident before the region is
    // permanently quarantined. Successful recoveries don't consume it.
    uint32_t max_recoveries = 3;
  };

  enum class RegionHealth : uint8_t {
    kHealthy,      // heartbeats advancing (or region idle)
    kSuspected,    // stale heartbeats with outstanding work; window running
    kRecovering,   // recovery in progress (quarantine + abort + reprogram)
    kProbation,    // recovered; cooling off before re-admission
    kQuarantined,  // recovery budget exhausted; permanently fenced off
  };

  // One detect→recover cycle. `recovered == false` means the reprogram
  // failed (e.g. injected ICAP faults) and the region either went back to
  // kSuspected for another attempt or was permanently quarantined.
  struct Incident {
    uint32_t vfpga_id = 0;
    std::string fault_class;         // "kernel.hang" or "deadline.miss"
    sim::TimePs detected_at = 0;
    sim::TimePs detect_latency = 0;  // last progress -> detection
    sim::TimePs mttr = 0;            // detected_at -> recovery; 0 when it failed
    bool recovered = false;
  };

  // `scheduler` may be nullptr when the caller owns region placement itself;
  // quarantine then only gates the supervisor's own bookkeeping.
  Supervisor(SimDevice* dev, KernelScheduler* scheduler, Config config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Arms the periodic watchdog (idempotent). Stop() disarms it.
  void Start();
  void Stop();
  bool running() const { return next_tick_ != sim::Engine::kNoEvent; }

  // Registers the bitstream recovery reprograms the region with — callers
  // name the bitstream they consider good (typically the one that last
  // loaded successfully). No registration means recovery cannot reprogram
  // and a hang escalates straight to permanent quarantine.
  void SetLastKnownGood(uint32_t vfpga_id, const std::string& bitstream_path);

  // cThread deadline misses land here through SimDevice::NotifyOpDeadline.
  void NoteDeadlineMiss(uint32_t vfpga_id);

  RegionHealth health(uint32_t vfpga_id) const { return regions_[vfpga_id].health; }
  const std::vector<Incident>& incidents() const { return incidents_; }

  uint64_t hangs_detected() const { return events_.value("detect"); }
  uint64_t recoveries() const { return events_.value("recover.ok"); }
  uint64_t failed_recoveries() const { return events_.value("recover.retry"); }
  uint64_t permanent_quarantines() const { return events_.value("quarantine.permanent"); }
  uint64_t readmissions() const { return events_.value("readmit"); }

  // Every region event (suspect, detect, recover.*, readmit, ...) recorded
  // with its vFPGA id and time; same seed + same workload => same
  // fingerprint.
  const sim::CounterSet& events() const { return events_; }
  uint64_t TraceFingerprint() const { return events_.Fingerprint(); }

 private:
  struct RegionWatch {
    RegionHealth health = RegionHealth::kHealthy;
    uint64_t last_beats = 0;
    uint64_t last_packets = 0;
    sim::TimePs last_progress_at = 0;
    uint32_t probation_left = 0;
    // Reprogram attempts consumed by the current incident *chain*: a relapse
    // mid-probation continues this budget instead of resetting it, so a
    // region that keeps failing straight out of recovery escalates to
    // permanent quarantine. Cleared only by a clean re-admission.
    uint32_t incident_attempts = 0;
    bool deadline_missed = false;  // set by NoteDeadlineMiss, cleared on tick
    std::string last_known_good;
  };

  void Tick();
  void SampleRegion(uint32_t id);
  // Detects, isolates and starts the reprogram; the region stays
  // kRecovering until Reprogram's chain reports the incident.
  void Recover(uint32_t id, const std::string& fault_class);
  // One reprogram attempt of the incident's region. Its callback retries,
  // puts the region in probation or, with the budget spent, quarantines it
  // for good; then the incident is recorded.
  void Reprogram(Incident incident);

  SimDevice* dev_;
  KernelScheduler* scheduler_;  // may be nullptr
  Config config_;

  std::vector<RegionWatch> regions_;
  // The pending watchdog tick; every tick re-arms the next one first, and
  // Stop() cancels it.
  sim::Engine::EventId next_tick_ = sim::Engine::kNoEvent;

  std::vector<Incident> incidents_;
  sim::CounterSet events_;

  sim::AccessGuard state_guard_{"runtime.supervisor"};
};

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_SUPERVISOR_H_
