// `stream`: the data-plane workload.
//
// One SimDevice with 4 vFPGAs sharing the ~12 GB/s host link, in a closed
// loop with one op outstanding per tenant:
//   bulk0, bulk1 — passthrough, ~1 MiB LocalTransfers (read + write);
//   small        — passthrough, ~16 KiB ops: per-op cost (invoke, writeback,
//                  completion) dominates;
//   hll          — HyperLogLog over ~1 MiB of 64-bit items: reads only and
//                  returns an 8 B estimate.
// The work is in dyn packetizing, interleaving and crediting, the XDMA links
// and the MMU/TLB translation of every packet; the router, orchestrator and
// shard barriers are idle. A read-only tenant runs beside read+write tenants
// so a change that favours one DMA direction shows in fair_min_max.
//
// No AES tenant: with one AES-ECB tenant, Aes::EncryptBlock takes 95% of
// host time and hides any dyn or mmu change (fig8/fig10 still cover AES).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/services/hll.h"
#include "src/services/vector_kernels.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace perfbench {
namespace {

using namespace coyote;

enum class Class : uint8_t { kBulk, kSmall, kHll };

constexpr const char* kClassName[] = {"bulk", "small", "hll"};

struct TenantSpec {
  Class cls;
  uint64_t ops;
  uint64_t bytes;      // payload read per op
  uint64_t out_bytes;  // bytes written back per op
};

// Sizes are jittered down by a few 64 B lines per seed, so simulated
// latencies differ between seeds while the mix stays the same.
std::vector<TenantSpec> Specs(sim::Rng* rng) {
  auto jitter = [rng](uint64_t base, uint64_t lines) { return base - 64 * rng->NextBounded(lines); };
  std::vector<TenantSpec> specs;
  for (int i = 0; i < 2; ++i) {
    const uint64_t b = jitter(1 << 20, 64);
    specs.push_back({Class::kBulk, 56, b, b});
  }
  const uint64_t s = jitter(16 << 10, 16);
  specs.push_back({Class::kSmall, 2400, s, s});
  specs.push_back({Class::kHll, 64, jitter(1 << 20, 64), 8});
  return specs;
}

struct Tenant {
  TenantSpec spec;
  std::vector<uint8_t> data;  // source contents
  std::unique_ptr<runtime::CThread> thread;
  uint64_t src = 0;
  uint64_t dst = 0;
  uint64_t started = 0;
  sim::TimePs started_at = 0;
  bool done = false;  // set by the completion callback, consumed by the loop
  runtime::OpStatus status = runtime::OpStatus::kPending;
  sim::TimePs done_at = 0;
  uint64_t ok_ops = 0;
  sim::TimePs last_done = 0;
  std::vector<double> latency_us;
  bool output_wrong = false;  // an op's output failed its check
};

}  // namespace

RepResult RunStream(uint64_t seed, Tracer* tracer) {
  RepResult r;

  // Inputs from the seed: sizes, passthrough payloads, HLL items, and the
  // HLL estimate a software sketch gives for those items.
  sim::Rng rng(seed);
  std::vector<Tenant> tenants(4);
  const std::vector<TenantSpec> specs = Specs(&rng);
  uint64_t true_distinct = 0;
  uint64_t hll_items_per_op = 0;
  services::HllSketch reference;
  for (size_t i = 0; i < tenants.size(); ++i) {
    Tenant& t = tenants[i];
    t.spec = specs[i];
    t.data.resize(t.spec.bytes);
    if (t.spec.cls == Class::kHll) {
      // ~123k distinct among 131k items: well above the linear-counting
      // switchover (2.5 x 16384 registers), where the raw estimate is biased.
      const uint64_t universe = (1u << 20) + rng.NextBounded(1u << 19);
      const uint64_t salt = rng.Next();
      std::vector<uint64_t> items(t.spec.bytes / 8);
      for (uint64_t& x : items) {
        x = services::HllSketch::Hash(salt ^ rng.NextBounded(universe));
        reference.Add(x);
      }
      hll_items_per_op = items.size();
      std::memcpy(t.data.data(), items.data(), t.spec.bytes);
      std::sort(items.begin(), items.end());
      true_distinct = static_cast<uint64_t>(std::unique(items.begin(), items.end()) - items.begin());
    } else {
      for (size_t b = 0; b < t.data.size(); b += 8) {
        const uint64_t v = rng.Next();
        std::memcpy(&t.data[b], &v, std::min<size_t>(8, t.data.size() - b));
      }
    }
  }

  const double setup_start = Now();
  std::unique_ptr<runtime::SimDevice> dev;
  services::HllKernel* hll = nullptr;
  uint32_t ready = 0;
  {
    ScopedSpan span(tracer, "bench", "setup");
    runtime::SimDevice::Config cfg;
    cfg.shell.name = "stream";
    cfg.shell.services = {fabric::Service::kHostStream};
    cfg.shell.num_vfpgas = static_cast<uint32_t>(tenants.size());
    {
      ScopedSpan s(tracer, "runtime", "SimDevice::SimDevice");
      dev = std::make_unique<runtime::SimDevice>(cfg);
    }
    for (uint32_t v = 0; v < tenants.size(); ++v) {
      Tenant& t = tenants[v];
      {
        ScopedSpan s(tracer, "vfpga", "Vfpga::LoadKernel");
        if (t.spec.cls == Class::kHll) {
          auto kernel = std::make_unique<services::HllKernel>();
          hll = kernel.get();
          dev->vfpga(v).LoadKernel(std::move(kernel));
        } else {
          dev->vfpga(v).LoadKernel(std::make_unique<services::PassthroughKernel>());
        }
      }
      {
        ScopedSpan s(tracer, "runtime", "CThread::CThread");
        t.thread = std::make_unique<runtime::CThread>(dev.get(), v);
      }
      {
        ScopedSpan s(tracer, "runtime", "CThread::GetMem");
        t.src = t.thread->GetMem({runtime::Alloc::kHpf, t.spec.bytes});
        t.dst = t.thread->GetMem({runtime::Alloc::kHpf, t.spec.out_bytes});
      }
      {
        ScopedSpan s(tracer, "runtime", "CThread::WriteBuffer");
        t.thread->WriteBuffer(t.src, t.data.data(), t.spec.bytes);
      }
      t.thread->SetCompletionCallback(
          [&t, &ready, &dev](runtime::CThread::Task, runtime::OpStatus status) {
            t.done = true;
            t.status = status;
            t.done_at = dev->engine().Now();
            ++ready;
          });
    }
  }
  r.setup_s = Now() - setup_start;

  auto start_op = [&](Tenant& t) {
    ScopedSpan s(tracer, "runtime", "CThread::Invoke");
    runtime::SgEntry sg;
    sg.local = {.src_addr = t.src, .src_len = t.spec.bytes, .dst_addr = t.dst,
                .dst_len = t.spec.out_bytes};
    t.started_at = dev->engine().Now();
    ++t.started;
    t.thread->Invoke(runtime::Oper::kLocalTransfer, sg);
  };

  // Checks the output of a tenant's latest kOk op. A passthrough destination
  // must equal its source; it is then poisoned, so the next op has to
  // rewrite all of it. The HLL kernel must have absorbed every item of every
  // op so far, and return the software sketch's estimate.
  const std::vector<uint8_t> poison(1 << 20, 0x5a);
  std::vector<uint8_t> out;
  auto check_op = [&](Tenant& t) {
    out.resize(t.spec.out_bytes);
    {
      ScopedSpan s(tracer, "runtime", "CThread::ReadBuffer");
      t.thread->ReadBuffer(t.dst, out.data(), out.size());
    }
    if (t.spec.cls == Class::kHll) {
      double estimate = 0.0;
      std::memcpy(&estimate, out.data(), sizeof(estimate));
      t.output_wrong |= estimate != reference.Estimate() ||
                        hll->sketch().items_added() != t.ok_ops * hll_items_per_op;
    } else {
      t.output_wrong |= out != t.data;
      if (t.started < t.spec.ops) {
        ScopedSpan s(tracer, "runtime", "CThread::WriteBuffer");
        t.thread->WriteBuffer(t.dst, poison.data(), t.spec.out_bytes);
      }
    }
  };

  const double run_start = Now();
  double check_s = 0.0;  // host time in check_op, left out of wall_s
  const sim::TimePs start = dev->engine().Now();
  uint64_t witness = 0xcbf29ce484222325ull;
  {
    ScopedSpan span(tracer, "bench", "run");
    uint32_t inflight = 0;
    for (Tenant& t : tenants) {
      start_op(t);
      ++inflight;
    }
    while (inflight > 0) {
      bool progressed = false;
      {
        ScopedSpan s(tracer, "runtime", "SimDevice::WaitFor");
        progressed = dev->WaitFor([&ready] { return ready > 0; });
      }
      if (!progressed) {
        r.failures.push_back("stream: event queue drained with " + std::to_string(inflight) +
                             " ops outstanding");
        break;
      }
      ready = 0;
      for (Tenant& t : tenants) {
        if (!t.done) {
          continue;
        }
        t.done = false;
        --inflight;
        ++r.attempted;
        FoldU64(&witness, t.done_at);
        if (t.status == runtime::OpStatus::kOk) {
          ++r.ok;
          ++t.ok_ops;
          t.last_done = t.done_at;
          t.latency_us.push_back(sim::ToMicroseconds(t.done_at - t.started_at));
          const double check_start = Now();
          check_op(t);
          check_s += Now() - check_start;
        } else {
          ++r.errors;
        }
        if (t.started < t.spec.ops) {
          start_op(t);
          ++inflight;
        }
      }
    }
  }
  r.wall_s = Now() - run_start - check_s;

  ScopedSpan check_span(tracer, "bench", "check");
  double hll_estimate = 0.0;
  for (Tenant& t : tenants) {
    const std::string name = kClassName[static_cast<int>(t.spec.cls)];
    if (t.ok_ops != t.spec.ops) {
      r.failures.push_back("stream: tenant " + name + " completed " + std::to_string(t.ok_ops) +
                           " of " + std::to_string(t.spec.ops) + " ops with kOk");
    }
    if (t.output_wrong) {
      r.failures.push_back("stream: an op of tenant " + name +
                           (t.spec.cls == Class::kHll
                                ? " lost items or returned another estimate than the software sketch"
                                : " left a destination that differs from its source"));
    }
    // The last op's output is read back again after the run settled.
    std::vector<uint8_t> last(t.spec.out_bytes);
    {
      ScopedSpan s(tracer, "runtime", "CThread::ReadBuffer");
      t.thread->ReadBuffer(t.dst, last.data(), last.size());
    }
    if (t.spec.cls == Class::kHll) {
      std::memcpy(&hll_estimate, last.data(), sizeof(hll_estimate));
    } else if (last != t.data) {
      r.failures.push_back("stream: " + name + " destination differs from its source");
    }
  }
  // The kernel's sketch must match a software sketch over the same items
  // bit for bit after absorbing every item of every op, and the estimate
  // must lie within five standard errors (1.04/sqrt(m)) of the true distinct
  // count. A one-error band fails on about a third of seeds and a
  // three-error band on one in 400; five fails a correct sketch on about one
  // seed in a million.
  const uint64_t hll_ops = tenants.back().spec.ops;  // Specs() puts hll last
  if (hll->sketch().items_added() != hll_ops * hll_items_per_op) {
    r.failures.push_back("stream: HLL absorbed " + std::to_string(hll->sketch().items_added()) +
                         " items, not " + std::to_string(hll_ops * hll_items_per_op));
  }
  if (hll_estimate != reference.Estimate()) {
    r.failures.push_back("stream: HLL estimate " + std::to_string(hll_estimate) +
                         " != software sketch " + std::to_string(reference.Estimate()));
  }
  const double std_error = 1.04 / std::sqrt(static_cast<double>(1u << reference.precision()));
  const double rel_error =
      std::abs(hll_estimate - static_cast<double>(true_distinct)) / static_cast<double>(true_distinct);
  if (rel_error > 5 * std_error) {
    r.failures.push_back("stream: HLL estimate " + std::to_string(hll_estimate) + " is " +
                         std::to_string(rel_error / std_error) +
                         " standard errors from the true distinct count " +
                         std::to_string(true_distinct));
  }

  sim::TimePs settle = 0;
  uint64_t payload = 0;
  std::vector<double> all_latency;
  std::vector<double> tenant_gbps;
  Metrics& m = r.layer;
  for (Tenant& t : tenants) {
    settle = std::max(settle, t.last_done - start);
    payload += t.ok_ops * t.spec.bytes;
    tenant_gbps.push_back(sim::BandwidthGBps(t.ok_ops * t.spec.bytes, t.last_done - start));
    all_latency.insert(all_latency.end(), t.latency_us.begin(), t.latency_us.end());
  }
  for (int c = 0; c < 3; ++c) {
    std::vector<double> lat;
    for (const Tenant& t : tenants) {
      if (static_cast<int>(t.spec.cls) == c) {
        lat.insert(lat.end(), t.latency_us.begin(), t.latency_us.end());
      }
    }
    const std::string prefix = std::string("runtime.cthread.") + kClassName[c];
    m[prefix + ".op_p50_us"] = Percentile(&lat, 50);
    m[prefix + ".op_p99_us"] = Percentile(&lat, 99);
  }

  const double settle_s = sim::ToSeconds(settle);
  r.sim["ok_frac"] = Ratio(static_cast<double>(r.ok), static_cast<double>(r.attempted));
  r.sim["goodput_per_s"] = Ratio(static_cast<double>(r.ok), settle_s);
  r.sim["settle_ms"] = sim::ToMilliseconds(settle);
  r.sim["p50_us"] = Percentile(&all_latency, 50);
  r.sim["p99_us"] = Percentile(&all_latency, 99);

  m["p999_us"] = Percentile(&all_latency, 99.9);
  m["latency_samples"] = static_cast<double>(all_latency.size());
  m["payload_gbps"] = sim::BandwidthGBps(payload, settle);
  m["fair_min_max"] = MinOverMax(tenant_gbps);

  m["sim.events"] = static_cast<double>(dev->engine().events_executed());
  AddDeviceMetrics({dev.get()}, settle_s, &m);
  m["services.hll.items"] = static_cast<double>(hll->sketch().items_added());

  FoldU64(&witness, true_distinct);
  r.witness = witness;
  return r;
}

}  // namespace perfbench
