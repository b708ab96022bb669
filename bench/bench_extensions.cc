// Extension benchmarks: the paper's §10 future-work directions, built here.
//
//  E1  Collective communication (after ACCL [22]): broadcast and allreduce
//      scaling across a cluster of Coyote nodes on the 100G fabric.
//  E2  On-demand kernel scheduling policies: FCFS vs affinity — how much
//      reconfiguration traffic a placement policy saves under a mixed
//      kernel workload (the §9.6 daemon pattern, generalized).
//  E3  TCP/IP vs RDMA service throughput on the same wire (the Requirement-1
//      "switch the networking service" scenario).
//
// Every value printed is simulated, so stdout is deterministic. The binary
// exits nonzero, naming the claim on stderr, when one of the claims its
// notes state fails.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/mmu/svm.h"
#include "src/net/collectives.h"
#include "src/net/network.h"
#include "src/net/roce.h"
#include "src/net/tcp.h"
#include "src/runtime/scheduler.h"
#include "src/services/aes_kernels.h"
#include "src/services/hll.h"
#include "src/services/vector_kernels.h"
#include "src/sim/rng.h"
#include "src/synth/flow.h"
#include "src/synth/netlist.h"

namespace coyote {
namespace {

constexpr uint64_t kPage = 2ull << 20;

bool claims_hold = true;

void Claim(bool holds, const char* claim) {
  if (!holds) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", claim);
    claims_hold = false;
  }
}

struct ClusterNode {
  memsys::HostMemory host;
  std::unique_ptr<memsys::CardMemory> card;
  memsys::GpuMemory gpu;
  std::unique_ptr<mmu::Svm> svm;
  std::unique_ptr<net::RoceStack> stack;
  uint64_t data = 0, scratch = 0;
};

void RunCollectives() {
  bench::Row("E1. Collectives over the 100G fabric (4 MiB payload)");
  bench::Row("%-8s %18s %20s %22s", "Nodes", "Broadcast [ms]", "AllReduce [ms]",
             "AllReduce alg-bw [GB/s]");
  bench::PrintRule();
  constexpr uint64_t kBytes = 4 << 20;
  double bcast_ms_at_2 = 0.0;
  for (uint32_t n : {2u, 4u, 8u, 16u}) {
    sim::Engine engine;
    net::Network network(&engine, {});
    std::vector<std::unique_ptr<ClusterNode>> nodes;
    std::vector<net::CollectiveGroup::Member> members;
    for (uint32_t i = 0; i < n; ++i) {
      auto node = std::make_unique<ClusterNode>();
      node->card = std::make_unique<memsys::CardMemory>(&engine, memsys::CardMemory::Config{});
      node->svm = std::make_unique<mmu::Svm>(&engine, &node->host, node->card.get(),
                                             &node->gpu, kPage);
      node->stack = std::make_unique<net::RoceStack>(&engine, &network, 0x0A000001 + i,
                                                     node->svm.get());
      node->data = node->host.Allocate(2 * kBytes, memsys::AllocKind::kHuge2M);
      node->svm->RegisterHostBuffer(node->data, 2 * kBytes);
      node->scratch = node->host.Allocate(2 * kBytes, memsys::AllocKind::kHuge2M);
      node->svm->RegisterHostBuffer(node->scratch, 2 * kBytes);
      nodes.push_back(std::move(node));
    }
    for (auto& node : nodes) {
      members.push_back({node->stack.get(), node->svm.get(), node->scratch});
    }
    net::CollectiveGroup group(&engine, std::move(members));

    sim::TimePs t0 = engine.Now();
    bool done = false, ok = false;
    group.Broadcast(0, nodes[0]->data, kBytes, [&](bool k) {
      done = true;
      ok = k;
    });
    engine.RunUntilCondition([&] { return done; });
    Claim(ok, "every broadcast completes ok");
    const double bcast_ms = sim::ToMilliseconds(engine.Now() - t0);
    if (n == 2) {
      bcast_ms_at_2 = bcast_ms;
    }
    // Binomial tree: log2(N) rounds of one full-size WRITE each.
    Claim(std::abs(bcast_ms / (std::log2(n) * bcast_ms_at_2) - 1.0) < 0.1,
          "broadcast time grows like log2(N)");

    done = false;
    t0 = engine.Now();
    group.AllReduceInt32(nodes[0]->data, kBytes / 4, [&](bool k) {
      done = true;
      ok = k;
    });
    engine.RunUntilCondition([&] { return done; });
    Claim(ok, "every allreduce completes ok");
    const double ar_ms = sim::ToMilliseconds(engine.Now() - t0);
    const double alg_bw = static_cast<double>(kBytes) / (ar_ms * 1e-3) / 1e9;

    bench::Row("%-8u %18.3f %20.3f %22.2f", n, bcast_ms, ar_ms, alg_bw);
  }
  bench::Note("Broadcast grows ~log2(N) (binomial tree); ring allreduce keeps algorithmic");
  bench::Note("bandwidth roughly flat with node count (bandwidth-optimal 2(N-1)/N factor).");
}

void RunScheduler() {
  bench::Row("");
  bench::Row("E2. Kernel scheduling policy under a mixed workload (2 regions, 3 kernels)");
  bench::Row("%-12s %12s %16s %18s", "Policy", "jobs", "reconfigs", "makespan [ms]");
  bench::PrintRule();
  uint64_t fcfs_reconfigs = 0;
  for (auto policy : {runtime::KernelScheduler::Policy::kFcfs,
                      runtime::KernelScheduler::Policy::kAffinity}) {
    runtime::SimDevice::Config cfg;
    cfg.shell.name = "sched-bench";
    cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
    cfg.shell.num_vfpgas = 2;
    runtime::SimDevice dev(cfg);
    dev.RegisterKernelFactory("hyperloglog",
                              []() { return std::make_unique<services::HllKernel>(); });
    dev.RegisterKernelFactory("aes_ecb",
                              []() { return std::make_unique<services::AesEcbKernel>(); });
    synth::BuildFlow flow(dev.floorplan());
    synth::Netlist hll{"hyperloglog", {synth::LibraryModule("hll_core")}};
    synth::Netlist aes{"aes_ecb", {synth::LibraryModule("aes_core")}};
    auto out = flow.RunShellFlow(cfg.shell, {hll, aes});
    dev.WriteBitstreamFile("/bit/hll.bin", out.app_bitstreams[0]);
    dev.WriteBitstreamFile("/bit/aes.bin", out.app_bitstreams[1]);

    runtime::KernelScheduler sched(&dev, policy);
    sim::Rng rng(5);
    constexpr int kJobs = 24;
    const sim::TimePs start = dev.engine().Now();
    for (int i = 0; i < kJobs; ++i) {
      runtime::KernelScheduler::Request r;
      r.bitstream_path = rng.NextBounded(2) == 0 ? "/bit/hll.bin" : "/bit/aes.bin";
      r.run = [&dev](uint32_t, std::function<void()> done) {
        dev.engine().ScheduleAfter(sim::Milliseconds(2), std::move(done));
      };
      sched.Submit(std::move(r));
    }
    dev.WaitFor([&] { return sched.Idle(); });
    if (policy == runtime::KernelScheduler::Policy::kFcfs) {
      fcfs_reconfigs = sched.reconfigurations();
    } else {
      Claim(sched.reconfigurations() < fcfs_reconfigs,
            "affinity reconfigures less often than FCFS");
    }
    bench::Row("%-12s %12d %16llu %18.1f",
               policy == runtime::KernelScheduler::Policy::kFcfs ? "FCFS" : "affinity", kJobs,
               static_cast<unsigned long long>(sched.reconfigurations()),
               sim::ToMilliseconds(dev.engine().Now() - start));
  }
  bench::Note("Affinity prefers regions that already hold the requested kernel: under a");
  bench::Note("random mix it cuts reconfigurations ~2x, and the makespan with them");
  bench::Note("(each load costs ~60+ ms of ICAP + staging time).");
}

void RunTcpVsRdma() {
  bench::Row("");
  bench::Row("E3. Networking service comparison on the same 100G wire (8 MiB transfer)");
  bench::Row("%-10s %20s %18s", "Service", "Throughput [GB/s]", "frames/segments");
  bench::PrintRule();
  constexpr uint64_t kBytes = 8 << 20;
  // RDMA.
  {
    sim::Engine engine;
    net::Network network(&engine, {});
    ClusterNode a, b;
    for (ClusterNode* node : {&a, &b}) {
      node->card = std::make_unique<memsys::CardMemory>(&engine, memsys::CardMemory::Config{});
      node->svm = std::make_unique<mmu::Svm>(&engine, &node->host, node->card.get(),
                                             &node->gpu, kPage);
      node->data = node->host.Allocate(kBytes, memsys::AllocKind::kHuge2M);
      node->svm->RegisterHostBuffer(node->data, kBytes);
    }
    net::RoceStack sa(&engine, &network, 1, a.svm.get());
    net::RoceStack sb(&engine, &network, 2, b.svm.get());
    const uint32_t qa = sa.CreateQp(), qb = sb.CreateQp();
    sa.Connect(qa, 2, qb);
    sb.Connect(qb, 1, qa);
    bool done = false;
    const sim::TimePs t0 = engine.Now();
    sa.PostWrite(qa, a.data, b.data, kBytes, [&](bool) { done = true; });
    engine.RunUntilCondition([&] { return done; });
    const double gbps = sim::BandwidthGBps(kBytes, engine.Now() - t0);
    Claim(gbps >= 12.0, "RDMA reaches 12 GB/s");
    bench::Row("%-10s %20.2f %18llu", "RDMA", gbps,
               static_cast<unsigned long long>(sa.tx_frames()));
  }
  // TCP.
  {
    sim::Engine engine;
    net::Network network(&engine, {});
    ClusterNode a, b;
    for (ClusterNode* node : {&a, &b}) {
      node->card = std::make_unique<memsys::CardMemory>(&engine, memsys::CardMemory::Config{});
      node->svm = std::make_unique<mmu::Svm>(&engine, &node->host, node->card.get(),
                                             &node->gpu, kPage);
      node->data = node->host.Allocate(kBytes, memsys::AllocKind::kHuge2M);
      node->svm->RegisterHostBuffer(node->data, kBytes);
    }
    net::TcpStack sa(&engine, &network, 1, a.svm.get());
    net::TcpStack sb(&engine, &network, 2, b.svm.get());
    net::TcpStack::ConnId client = 0, server = 0;
    sb.Listen(5001, [&](net::TcpStack::ConnId c) { server = c; });
    sa.Connect(2, 5001, [&](net::TcpStack::ConnId c, bool) { client = c; });
    engine.RunUntilCondition([&] { return client != 0 && server != 0; });
    sb.SetRecvHandler(server, [](std::vector<uint8_t>) {});
    bool done = false;
    const sim::TimePs t0 = engine.Now();
    sa.Send(client, a.data, kBytes, [&](bool) { done = true; });
    engine.RunUntilCondition([&] { return done; });
    const double gbps = sim::BandwidthGBps(kBytes, engine.Now() - t0);
    Claim(gbps >= 12.0, "TCP/IP reaches 12 GB/s");
    bench::Row("%-10s %20.2f %18llu", "TCP/IP", gbps,
               static_cast<unsigned long long>(sa.segments_sent()));
  }
  bench::Note("Both offload stacks sustain ~line rate for bulk transfers (that is the point");
  bench::Note("of offloading); they differ in semantics — one-sided virtual-address RDMA vs");
  bench::Note("byte streams — which is why shells switch services at run time (Table 3 #2).");
}

}  // namespace
}  // namespace coyote

int main() {
  coyote::bench::PrintHeader("Extension benchmarks: collectives, scheduling, TCP vs RDMA",
                             "Coyote v2 paper §10 (future work) + §4 scheduling");
  coyote::RunCollectives();
  coyote::RunScheduler();
  coyote::RunTcpVsRdma();
  return coyote::claims_hold ? 0 : 1;
}
