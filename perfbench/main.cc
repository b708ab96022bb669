// Repo benchmark entry point: repeats one workload for a given host time and
// prints its metrics, ending with one JSON line.
//
//   perfbench_main --workload serving|stream|fleet --seed N --seconds S
//                  --trace 0|1 [--fp-dir DIR] [--trace-file PATH]
//
// Each repetition is preceded by one run of the calibration kernel, and its
// host times are reported relative to it, in reference seconds (harness.h).
// --trace 0 reports the end-to-end metrics, with wall_s and setup_s the
// medians over repetitions. --trace 1 alternates untraced and traced
// repetitions and reports the per-layer metrics, including the tracing
// overhead (median traced wall_s minus median untraced wall_s). Every
// repetition must give the same fingerprint over its simulated metrics and
// counts; with --fp-dir the fingerprint must also match earlier runs of the
// same binary and seed. A failed output check or a fingerprint mismatch
// makes the run incorrect and the exit code 1.

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, reported by every workload (see README.md for what an
// operation and its latency are in each).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"wall_s", "s"},         {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},     {"goodput_per_s", "1/s"}, {"settle_ms", "ms"},
    {"p50_us", "us"},        {"p99_us", "us"},
};

// Per-layer metrics; a layer a workload does not exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.windows", "count"},
    {"sim.events_per_window", "count"},
    {"sim.cross_shard_messages", "count"},
    {"sim.lookahead_violations", "count"},
    {"sim.backpressure_stalls", "count"},
    {"runtime.router.admitted", "count"},
    {"runtime.router.shed", "count"},
    {"runtime.router.batch_mean", "count"},
    {"runtime.router.flush_timeout_frac", "frac"},
    {"runtime.router.queue_depth_p99", "count"},
    {"runtime.router.node_balance", "ratio"},
    {"runtime.sched.depth_p99", "count"},
    {"runtime.sched.affinity_hit_frac", "frac"},
    {"runtime.cthread.invoke_s", "s"},
    {"runtime.cthread.bulk.op_p50_us", "us"},
    {"runtime.cthread.bulk.op_p99_us", "us"},
    {"runtime.cthread.small.op_p50_us", "us"},
    {"runtime.cthread.small.op_p99_us", "us"},
    {"runtime.cthread.hll.op_p50_us", "us"},
    {"runtime.cthread.hll.op_p99_us", "us"},
    {"runtime.orch.migrations", "count"},
    {"runtime.orch.rollbacks", "count"},
    {"runtime.orch.evacuations", "count"},
    {"runtime.orch.sheds", "count"},
    {"runtime.orch.retransmit_rounds", "count"},
    {"runtime.supervisor.hangs", "count"},
    {"vfpga.ckpt.bytes_mean", "B"},
    {"vfpga.ckpt.pages_mean", "count"},
    {"vfpga.ckpt.chunks_mean", "count"},
    {"net.rpc.frames", "count"},
    {"net.rpc.frame_errors", "count"},
    {"dyn.packets", "count"},
    {"dyn.s_per_packet", "s"},
    {"dyn.writebacks", "count"},
    {"dyn.xdma.h2c_bytes", "B"},
    {"dyn.xdma.c2h_bytes", "B"},
    {"dyn.xdma.h2c_util", "frac"},
    {"dyn.xdma.c2h_util", "frac"},
    {"dyn.xdma.stalled_packets", "count"},
    {"mmu.tlb.misses", "count"},
    {"mmu.tlb.hit_frac", "frac"},
    {"mmu.page_faults", "count"},
    {"services.hll.items", "count"},
    {"p999_us", "us"},
    {"latency_samples", "count"},
    {"payload_gbps", "GB/s"},
    {"fair_min_max", "ratio"},
    {"downtime_p50_us", "us"},
    {"mttr_us", "us"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
    {"host.wall_raw_s", "s"},
    {"host.calib_s", "s"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string fp_dir;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return false;
      }
      a->trace = v[0] == '1';
    } else if (key == "--fp-dir") {
      a->fp_dir = v;
    } else if (key == "--trace-file") {
      a->trace_file = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a->seconds > 0.0;
}

// Resident high-water mark of this process image. VmHWM restarts at exec,
// unlike getrusage's ru_maxrss, which keeps the launching process's peak.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

// Compares `fp` with the fingerprint an earlier run of this binary stored for
// the same workload and seed; stores it when there is none.
bool CheckStoredFingerprint(const Args& a, uint64_t fp, std::string* why) {
  const std::string path = a.fp_dir + "/" + a.workload + "-" + std::to_string(a.seed) + ".fp";
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    unsigned long long stored = 0;
    const bool read = std::fscanf(f, "%llx", &stored) == 1;
    std::fclose(f);
    if (read && stored != fp) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "determinism: fingerprint %016" PRIx64
                    " differs from %016llx of an earlier run with this seed", fp, stored);
      *why = buf;
      return false;
    }
    if (read) {
      return true;
    }
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%016" PRIx64 "\n", fp);
    std::fclose(f);
  }
  return true;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<MetricDef>& defs, const Metrics& values) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", defs[i].name,
                it == values.end() ? 0.0 : it->second, defs[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload serving|stream|fleet --seed N --seconds S --trace 0|1"
                 " [--fp-dir DIR] [--trace-file PATH]\n",
                 argv[0]);
    return 2;
  }
  RepResult (*run)(uint64_t, Tracer*) = nullptr;
  if (a.workload == "serving") {
    run = RunServing;
  } else if (a.workload == "stream") {
    run = RunStream;
  } else if (a.workload == "fleet") {
    run = RunFleet;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  // Host times per repetition in reference seconds, except the raw ones.
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  std::vector<double> invoke_s;
  std::vector<double> raw_wall_s;
  std::vector<double> calib_s;
  Tracer last_trace;
  std::vector<std::string> failures;
  uint64_t fp0 = 0;
  double peak_rss_mb = 0.0;
  const double deadline = Now() + a.seconds;
  for (int rep = 0;; ++rep) {
    // Repetition 0 warms the caches and the heap and gives peak_rss_mb; its
    // host times are not used and no calibration precedes it.
    const bool warmup = rep == 0;
    const bool with_trace = a.trace && rep % 2 == 1;
    Tracer tracer;
    const double calib = warmup ? 0.0 : CalibrationSeconds();
    const double scale = warmup ? 0.0 : kCalibrationReferenceS / calib;
    RepResult r = run(a.seed, with_trace ? &tracer : nullptr);
    const uint64_t fp = Fingerprint(r);
    if (warmup) {
      fp0 = fp;
    } else if (fp != fp0 && failures.empty()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "determinism: repetition %d%s has fingerprint %016" PRIx64
                    ", repetition 0 had %016" PRIx64, rep, with_trace ? " (traced)" : "", fp, fp0);
      failures.push_back(buf);
    }
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    if (warmup) {
      // Peak of one repetition in a fresh process, before the calibration
      // kernel has allocated anything.
      peak_rss_mb = PeakRssMb();
      plain.push_back(std::move(r));
    } else if (with_trace) {
      traced_wall_s.push_back(r.wall_s * scale);
      invoke_s.push_back(tracer.Total("CThread::Invoke") * scale);
      last_trace = std::move(tracer);
      traced.push_back(std::move(r));
    } else {
      setup_s.push_back(r.setup_s * scale);
      wall_s.push_back(r.wall_s * scale);
      raw_wall_s.push_back(r.wall_s);
      calib_s.push_back(calib);
      plain.push_back(std::move(r));
    }
    const bool measured = !wall_s.empty() && (!a.trace || !traced.empty());
    if (!failures.empty() || (measured && Now() >= deadline)) {
      break;
    }
  }
  if (!a.fp_dir.empty() && failures.empty()) {
    std::string why;
    if (!CheckStoredFingerprint(a, fp0, &why)) {
      failures.push_back(why);
    }
  }

  const RepResult& first = plain.front();
  const double wall = Median(wall_s);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const auto* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      attempted += r.attempted;
      failed += r.errors;
    }
  }

  Metrics values;
  std::vector<MetricDef> defs;
  if (!a.trace) {
    values = first.sim;
    values["setup_s"] = Median(setup_s);
    values["wall_s"] = wall;
    values["peak_rss_mb"] = peak_rss_mb;
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  } else {
    values = first.layer;
    values["sim.events_per_s"] = Ratio(values["sim.events"], wall);
    values["dyn.s_per_packet"] = Ratio(wall, values["dyn.packets"]);
    values["runtime.cthread.invoke_s"] = Median(invoke_s);
    values["trace.overhead_s"] = Median(traced_wall_s) - wall;
    values["trace.spans"] = static_cast<double>(last_trace.spans().size());
    values["host.wall_raw_s"] = Median(raw_wall_s);
    values["host.calib_s"] = Median(calib_s);
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
    if (!a.trace_file.empty() && !last_trace.WriteChromeJson(a.trace_file)) {
      std::fprintf(stderr, "warning: could not write %s\n", a.trace_file.c_str());
    }
  }

  std::printf("%s seed=%" PRIu64 " repetitions: 1 warm-up, %zu untraced, %zu traced\n",
              a.workload.c_str(), a.seed, wall_s.size(), traced.size());
  for (const MetricDef& d : defs) {
    std::printf("  %-36s %18.6f %s\n", d.name, values[d.name], d.unit);
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  PrintJson(failures.empty(), attempted, failed, defs, values);
  return failures.empty() ? 0 : 1;
}

}  // namespace

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // Spans are appended when they end, so a parent follows its children.
  double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const Span& s : spans_) {
    origin = std::min(origin, s.start_s);
  }
  std::fputs("{\"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": 1}",
                 i ? ",\n" : "", s.name, s.cat, (s.start_s - origin) * 1e6, s.dur_s * 1e6);
  }
  std::fputs("\n], \"displayTimeUnit\": \"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed memory in the heap, so repetitions after the first reuse
  // pages instead of faulting in fresh ones, whose cost varies with the
  // hypervisor rather than with the code.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  return perfbench::Main(argc, argv);
}
