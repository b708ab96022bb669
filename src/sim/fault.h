// Deterministic fault injection (the "messy parts" of §6.2 / §7).
//
// Data center FPGAs live with lossy 100G links, partial-reconfiguration
// failures and page-fault storms; the Coyote v2 shell's job is to absorb
// them. The FaultInjector turns those hazards into a *seeded, replayable
// schedule*: every consumer (the network switch, the ICAP controller, the
// XDMA links, the per-vFPGA MMUs) asks the injector for a decision at each
// hazard point, and the injector draws from a per-domain RNG stream derived
// from one master seed. Because the event engine is single-threaded and
// deterministic, the same seed always reproduces the exact same fault
// schedule — a failing chaos run is replayable from its seed alone.
//
// Each fired fault is recorded in a CounterSet with its detail and time, so
// tests can assert schedule identity across runs.

#ifndef SRC_SIM_FAULT_H_
#define SRC_SIM_FAULT_H_

#include <cstdint>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace coyote {
namespace sim {

// A schedulable fault plan: rates are per-opportunity probabilities, outages
// are absolute simulated-time windows. All fields default to "no faults".
struct FaultPlan {
  uint64_t seed = 1;

  // --- Network / link layer ---------------------------------------------------
  double frame_drop_rate = 0.0;       // silently lose the frame
  double frame_corrupt_rate = 0.0;    // flip one byte (caught by the ICRC)
  double frame_duplicate_rate = 0.0;  // deliver the frame twice
  double frame_delay_rate = 0.0;      // hold the frame in the switch
  TimePs frame_delay_min = Microseconds(5);
  TimePs frame_delay_max = Microseconds(200);

  // --- Reconfiguration (ICAP) --------------------------------------------------
  double reconfig_fail_rate = 0.0;  // programming aborts mid-bitstream
  uint32_t reconfig_fail_first_n = 0;  // deterministically fail the first N programs
  double reconfig_slowdown_rate = 0.0;
  double reconfig_slowdown_factor = 4.0;  // latency multiplier when slowed

  // --- XDMA / host link --------------------------------------------------------
  double xdma_stall_rate = 0.0;  // per-packet stall probability
  TimePs xdma_stall_ps = Microseconds(10);

  // --- MMU / TLB ---------------------------------------------------------------
  double tlb_force_miss_rate = 0.0;  // per-translation forced TLB eviction

  // --- Kernel execution (vFPGA regions) ----------------------------------------
  // A hung kernel stops retiring beats: it accepts no further input and
  // produces no output until the region is reconfigured. Detection is the
  // Supervisor's job (src/runtime/supervisor.h).
  double kernel_hang_rate = 0.0;       // per-invocation hang probability
  uint32_t kernel_hang_first_n = 0;    // deterministically hang the first N invocations

  // --- RoCE QPs ----------------------------------------------------------------
  // A wedged QP's transmit path goes dark: frames are silently eaten after
  // the stack hands them off, so only retransmit-budget exhaustion surfaces
  // the failure (as an error CQE + QP error state).
  double qp_wedge_rate = 0.0;      // per-posted-WR wedge probability
  uint32_t qp_wedge_first_n = 0;   // deterministically wedge the first N posted WRs

  // --- Node outages ------------------------------------------------------------
  // While Now() is inside [start, end), every frame to or from `ip` is
  // dropped — the simulated node is dead. Restore is implicit at `end`.
  struct NodeOutage {
    uint32_t ip = 0;
    TimePs start = 0;
    TimePs end = 0;
  };
  std::vector<NodeOutage> outages;

  // --- Migration / fleet -------------------------------------------------------
  // Mid-migration hazards for the orchestrator's checkpoint pipeline: chunks
  // of a checkpoint transfer vanish in flight (retried with backoff),
  // checkpoints arrive bit-flipped (caught by the CRC trailer), and restores
  // fail on the destination (rolled back to the source).
  double migration_chunk_drop_rate = 0.0;
  uint32_t migration_chunk_drop_first_n = 0;  // deterministically drop the first N chunks
  double checkpoint_corrupt_rate = 0.0;       // per-transfer bit flip in transit
  double restore_fail_rate = 0.0;
  uint32_t restore_fail_first_n = 0;  // deterministically fail the first N restores
};

class FaultInjector {
 public:
  enum class FrameAction : uint8_t { kDeliver, kDrop, kCorrupt, kDuplicate, kDelay };

  struct FrameDecision {
    FrameAction action = FrameAction::kDeliver;
    TimePs delay = 0;          // kDelay: extra switch-resident time
    uint64_t corrupt_entropy = 0;  // kCorrupt: picks the byte + flip mask
  };

  FaultInjector(Engine* engine, const FaultPlan& plan);

  // --- Network ----------------------------------------------------------------
  // One decision per frame offered to the switch. Draws exactly one uniform
  // per call (plus one for delay/corrupt parameters) so the schedule depends
  // only on the call sequence, not on which faults are enabled downstream.
  FrameDecision OnFrame(uint32_t src_ip, uint32_t dst_ip, uint64_t frame_bytes);

  // True if either endpoint is inside a configured outage window; counted as
  // an outage drop when it is.
  bool DropForOutage(uint32_t src_ip, uint32_t dst_ip);

  // Pure query (no accounting): is this node currently dead?
  bool NodeDown(uint32_t ip) const;

  // --- Reconfiguration --------------------------------------------------------
  bool NextReconfigFails();
  double NextReconfigSlowdown();  // 1.0 = full speed

  // --- XDMA -------------------------------------------------------------------
  TimePs NextXdmaStall();  // 0 = no stall for this packet

  // --- MMU --------------------------------------------------------------------
  bool NextForcedTlbMiss();

  // --- Kernel execution -------------------------------------------------------
  // One decision per kernel invocation (first beat pumped after attach).
  bool NextKernelHang();

  // --- RoCE QPs ---------------------------------------------------------------
  // One decision per posted work request.
  bool NextQpWedge();

  // --- Migration pipeline -----------------------------------------------------
  // One decision per checkpoint chunk offered to the wire (drawn on the
  // sender). Returns true when the chunk is lost in flight.
  bool NextMigrationChunkDrop();
  // One decision per completed checkpoint transfer; non-zero means "flip this
  // byte" (1-based index entropy) — the CRC trailer catches it on the far end.
  uint64_t NextCheckpointCorrupt();
  // One decision per restore attempt on the destination region.
  bool NextRestoreFail();

  // --- Introspection ----------------------------------------------------------
  const FaultPlan& plan() const { return plan_; }
  const CounterSet& counters() const { return counters_; }
  // Fingerprint of every fired fault (name, detail, time) in firing order:
  // two runs with identical fingerprints executed identical fault schedules.
  uint64_t ScheduleFingerprint() const { return counters_.Fingerprint(); }
  // Fault *opportunities* seen (every draw, fired or not); counters() holds
  // only the faults that actually fired.
  uint64_t decisions() const { return decisions_; }

 private:
  Engine* engine_;
  FaultPlan plan_;
  // Independent streams per domain: drawing a network decision never
  // perturbs the reconfig/XDMA/MMU schedules.
  Rng net_rng_;
  Rng reconfig_rng_;
  Rng xdma_rng_;
  Rng mmu_rng_;
  Rng kernel_rng_;
  Rng qp_rng_;
  Rng migration_rng_;

  uint32_t reconfig_programs_seen_ = 0;
  uint32_t kernel_invocations_seen_ = 0;
  uint32_t qp_posts_seen_ = 0;
  uint32_t migration_chunks_seen_ = 0;
  uint32_t restores_seen_ = 0;
  CounterSet counters_;
  uint64_t decisions_ = 0;
};

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_FAULT_H_
