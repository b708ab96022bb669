// Shared pieces of the repo benchmark: the per-repetition result record, the
// host-time span recorder for traced runs, and small statistics helpers.
//
// A workload function builds the system from the seed's inputs, runs it to
// settlement and checks its outputs, once. main.cc repeats it for the
// requested host time, runs the calibration kernel before each repetition,
// and reports the median over repetitions of each host time divided by the
// calibration time, in reference seconds (see kCalibrationReferenceS).
// Everything in RepResult except the host timings is simulated (or a count)
// and must repeat exactly for one seed; Fingerprint() folds those values so
// main.cc can prove it.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace coyote::runtime {
class SimDevice;
}  // namespace coyote::runtime

namespace perfbench {

using Metrics = std::map<std::string, double>;

struct RepResult {
  // Host seconds: construction through tenant admission, and the first
  // simulated event through settlement.
  double setup_s = 0.0;
  double wall_s = 0.0;
  // Operations attempted, completed kOk, shed by admission control, and
  // ended in any other non-kOk status.
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  // Simulated end-to-end metrics (keys are end-to-end metric names).
  Metrics sim;
  // Per-layer counts and simulated per-layer values (keys are per-layer
  // metric names). Keys a workload leaves out are reported as 0.
  Metrics layer;
  // A workload-specific witness folded into the fingerprint (router
  // fingerprint, orchestrator trace fingerprint, output hashes).
  uint64_t witness = 0;
  // One line per failed output check; empty when every check passed.
  std::vector<std::string> failures;
};

inline double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

// Host-time spans around the benchmark's own calls into the layers, kept in
// memory and written out as Chrome trace-event JSON after the run.
class Tracer {
 public:
  struct Span {
    const char* cat;   // layer the call enters
    const char* name;  // the call
    double start_s;
    double dur_s;
  };

  void Add(const char* cat, const char* name, double start_s, double end_s) {
    spans_.push_back({cat, name, start_s, end_s - start_s});
  }
  const std::vector<Span>& spans() const { return spans_; }
  // Summed duration of every span with this name.
  double Total(const char* name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (std::strcmp(sp.name, name) == 0) {
        s += sp.dur_s;
      }
    }
    return s;
  }
  // Writes {"traceEvents": [...]} with complete ("X") events in microseconds.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Records one span when `tracer` is non-null; a null check otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* cat, const char* name)
      : tracer_(tracer), cat_(cat), name_(name), start_(tracer ? Now() : 0.0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Add(cat_, name_, start_, Now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* cat_;
  const char* name_;
  double start_;
};

// Linear-interpolated percentile (p in [0, 100]); sorts `v` in place.
inline double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) {
    return 0.0;
  }
  std::sort(v->begin(), v->end());
  const double rank = p / 100.0 * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*v)[lo] * (1.0 - frac) + (*v)[hi] * frac;
}

inline double Median(std::vector<double> v) { return Percentile(&v, 50.0); }

inline double MinOverMax(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return *hi > 0.0 ? *lo / *hi : 0.0;
}

inline double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

inline void FoldU64(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 0x100000001b3ull;
  }
}

// FNV-1a over every simulated metric and count (names and exact bit
// patterns), the attempt/outcome counts and the workload witness.
inline uint64_t Fingerprint(const RepResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto fold_map = [&h](const Metrics& m) {
    for (const auto& [name, value] : m) {
      for (const char c : name) {
        FoldU64(&h, static_cast<uint8_t>(c));
      }
      uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      FoldU64(&h, bits);
    }
  };
  fold_map(r.sim);
  fold_map(r.layer);
  FoldU64(&h, r.attempted);
  FoldU64(&h, r.ok);
  FoldU64(&h, r.shed);
  FoldU64(&h, r.errors);
  FoldU64(&h, r.witness);
  return h;
}

// Runs the fixed calibration kernel (calibrate.cc) once; returns its host
// seconds. It exercises only the standard library, never the simulator.
double CalibrationSeconds();

// Host time of one calibration on an otherwise idle 4-vCPU Xeon VM. A host
// time t measured next to a calibration that took c is reported as
// t / c * kCalibrationReferenceS: seconds at that machine's speed.
inline constexpr double kCalibrationReferenceS = 0.02;

// Sums the dyn and mmu counters of `devices` into `m`; link utilisation is
// observed bytes over configured bandwidth times `settle_s`.
void AddDeviceMetrics(const std::vector<coyote::runtime::SimDevice*>& devices, double settle_s,
                      Metrics* m);

// Workloads. Each builds, runs, checks and measures one repetition for
// `seed`; `tracer` is null in untraced repetitions.
RepResult RunServing(uint64_t seed, Tracer* tracer);
RepResult RunStream(uint64_t seed, Tracer* tracer);
RepResult RunFleet(uint64_t seed, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
