// Open-loop load generator for the serving fabric.
//
// Synthesizes client sessions against the Router the way a data-center
// frontend would see them: arrivals keep coming whether or not earlier
// requests completed (open loop — the generator never throttles itself on
// completions, so offered load past saturation actually lands on the
// admission tier instead of being absorbed by a closed feedback loop).
//
// The arrival process is deliberately non-uniform:
//   - a diurnal profile (permille rate multipliers cycled over phase_period)
//     sweeps the offered rate up and down,
//   - a small permille of arrivals are bursts that open `burst_size`
//     sessions back to back,
//   - tenant churn rotates which window of the tenant universe is active,
//     so the router's fair queues see tenants appear and disappear.
//
// Everything is drawn from one sim::Rng in event order on the router's
// engine, and all rate arithmetic is integer (permille scaling, no
// floating-point accumulation), so a seed fully determines the workload —
// byte-identical across runs and across shard placements.

#ifndef SRC_RUNTIME_LOADGEN_H_
#define SRC_RUNTIME_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/runtime/serving.h"
#include "src/sim/access_guard.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace coyote {
namespace runtime {

class LoadGen {
 public:
  // Each request's priority is drawn uniformly in [0, kPriorities).
  static constexpr uint32_t kPriorities = 4;

  struct Config {
    uint64_t seed = 1;
    // Generation window: no new arrivals after `duration` (sessions opened
    // just before the edge may still emit their trailing requests).
    sim::TimePs duration = sim::Milliseconds(2);
    // Mean gap between session arrivals at the baseline (permille = 1000)
    // rate; the diurnal profile divides it, jitter is +-50% uniform.
    sim::TimePs session_gap = sim::Microseconds(10);
    uint32_t requests_per_session_max = 4;  // uniform in [1, max]
    sim::TimePs think_gap = sim::Microseconds(2);  // between a session's requests
    uint64_t payload_bytes_min = 64;
    uint64_t payload_bytes_max = 512;
    std::vector<std::string> kernels;  // each request picks one uniformly
    // Tenancy: `active_tenants` of `tenant_universe` are live at any moment;
    // churn_period > 0 rotates the active window every period.
    uint32_t active_tenants = 8;
    uint32_t tenant_universe = 8;
    sim::TimePs churn_period = 0;
    // Diurnal rate multipliers in permille, cycled phase by phase. Empty =
    // flat offered load.
    std::vector<uint32_t> diurnal_permille;
    sim::TimePs phase_period = sim::Microseconds(200);
    // Chance (permille) an arrival is a burst of `burst_size` sessions.
    uint32_t burst_permille = 0;
    uint32_t burst_size = 8;
  };

  using SubmitFn = std::function<void(serving::ServingRequest)>;

  // `engine` must be the router's shard engine: the generator runs in the
  // router's shard context and hands requests straight to Submit.
  LoadGen(sim::Engine* engine, const Config& config, SubmitFn submit);

  // Host-side: schedules the first arrival. Call before the run starts.
  void Start();
  void BindShard(sim::ShardId shard) { guard_.BindShard(shard); }

  // True once the generation window closed (no further arrivals will be
  // scheduled; in-flight session tails may still emit briefly after).
  bool done() const { return done_; }

 private:
  void ArrivalTick();
  void StartSession(sim::TimePs now);
  void EmitRequestAfter(sim::TimePs delay, uint32_t tenant);
  uint32_t PermilleAt(sim::TimePs t) const;
  uint32_t PickTenant(sim::TimePs now);

  sim::Engine* engine_;
  const Config config_;
  SubmitFn submit_;
  sim::Rng rng_;
  sim::AccessGuard guard_{"runtime.loadgen"};

  bool done_ = false;
};

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_LOADGEN_H_
