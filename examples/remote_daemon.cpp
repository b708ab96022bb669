// Remote on-demand acceleration daemon (paper §9.6: "When a client (local or
// remote) submits a request to run HLL, Coyote v2 loads the kernel through
// partial reconfiguration and runs it").
//
// A server FPGA runs a daemon: clients on another node submit work over RDMA
// (SEND carries the request header, WRITE carries the data), the daemon's
// scheduler loads the requested kernel into a free vFPGA — reconfiguring only
// when it is not already resident — runs the job and RDMA-WRITEs the result
// back to the client. Two request types are served: HLL cardinality
// estimation and AES-ECB encryption.

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/runtime/crcnfg.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"
#include "src/runtime/scheduler.h"
#include "src/services/aes.h"
#include "src/services/aes_kernels.h"
#include "src/services/hll.h"
#include "src/sim/rng.h"
#include "src/synth/flow.h"
#include "src/synth/netlist.h"

using namespace coyote;

namespace {

// Wire format of a request (SEND payload).
struct RequestHeader {
  uint32_t kind = 0;  // 0 = HLL, 1 = AES
  uint64_t bytes = 0;
  uint64_t key = 0;
};

runtime::SimDevice::Config NodeConfig(const char* name, uint32_t ip, uint32_t vfpgas) {
  runtime::SimDevice::Config cfg;
  cfg.shell.name = name;
  cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory,
                        fabric::Service::kRdma};
  cfg.shell.num_vfpgas = vfpgas;
  cfg.ip = ip;
  return cfg;
}

}  // namespace

int main() {
  sim::Engine engine;
  net::Network network(&engine, {});
  runtime::SimDevice server(NodeConfig("daemon", 0x0A000001, 2), &network, &engine);
  runtime::SimDevice client(NodeConfig("client", 0x0A000002, 1), &network, &engine);

  // --- Daemon setup: kernels, bitstreams, scheduler -------------------------
  server.RegisterKernelFactory("hyperloglog",
                               []() { return std::make_unique<services::HllKernel>(); });
  server.RegisterKernelFactory("aes_ecb",
                               []() { return std::make_unique<services::AesEcbKernel>(); });
  synth::BuildFlow flow(server.floorplan());
  synth::Netlist hll{"hyperloglog", {synth::LibraryModule("hll_core")}};
  synth::Netlist aes{"aes_ecb", {synth::LibraryModule("aes_core")}};
  const auto built = flow.RunShellFlow(server.config().shell, {hll, aes});
  server.WriteBitstreamFile("/bit/hll.bin", built.app_bitstreams[0]);
  server.WriteBitstreamFile("/bit/aes.bin", built.app_bitstreams[1]);
  runtime::KernelScheduler scheduler(&server, runtime::KernelScheduler::Policy::kAffinity);

  // Connections: one QP pair.
  runtime::cThread server_main(&server, 0);
  runtime::cThread client_thread(&client, 0);
  const uint32_t qp_s = server_main.CreateQp();
  const uint32_t qp_c = client_thread.CreateQp();
  server_main.ConnectQp(qp_s, 0x0A000002, qp_c);
  client_thread.ConnectQp(qp_c, 0x0A000001, qp_s);

  // Staging buffers (the daemon exposes a landing zone; the client a result
  // area). Addresses exchanged out of band, as RDMA apps do.
  constexpr uint64_t kZone = 8ull << 20;
  const uint64_t landing = server_main.GetMem({runtime::Alloc::kHpf, kZone});
  const uint64_t result_zone = client_thread.GetMem({runtime::Alloc::kHpf, kZone});

  int jobs_served = 0;
  // One daemon worker cThread per region. A job runs inside the scheduler's
  // dispatch event, so it never blocks: a posted BAR write sets the job's
  // control register, the invoke follows it, and the worker's completion
  // callback writes the result back to the client and frees the region.
  struct Worker {
    std::unique_ptr<runtime::cThread> thread;
    uint64_t out_addr = 0;
    uint64_t out_bytes = 0;
    std::function<void()> job_done;
  };
  std::vector<Worker> workers(server.num_vfpgas());
  for (uint32_t r = 0; r < workers.size(); ++r) {
    Worker& w = workers[r];
    w.thread = std::make_unique<runtime::cThread>(&server, r);
    w.thread->SetCompletionCallback([&](runtime::cThread::Task, runtime::OpStatus) {
      // Push the result back into the client's result zone.
      server.roce()->PostWrite(qp_s, w.out_addr, result_zone, w.out_bytes, [&](bool) {
        ++jobs_served;
        std::function<void()> job_done = std::move(w.job_done);
        job_done();
      });
    });
  }

  // The daemon: a SEND announces a request; data is already in the landing
  // zone (client WRITEs it first). The scheduler places the job.
  server.roce()->SetRecvHandler(qp_s, [&](std::vector<uint8_t> msg) {
    RequestHeader req;
    std::memcpy(&req, msg.data(), sizeof(req));
    runtime::KernelScheduler::Request job;
    job.bitstream_path = req.kind == 0 ? "/bit/hll.bin" : "/bit/aes.bin";
    job.run = [&, req](uint32_t vfpga, std::function<void()> job_done) {
      workers[vfpga].job_done = std::move(job_done);
      server.engine().ScheduleAfter(dyn::XdmaCore::kBarWriteLatency, [&, req, vfpga]() {
        if (req.kind == 1) {
          server.vfpga(vfpga).csr().Write(services::kAesCsrKeyLo, req.key);
        } else {
          server.vfpga(vfpga).csr().Write(services::kHllCsrCtrl, 1);  // clear the sketch
        }
        Worker& w = workers[vfpga];
        w.out_bytes = req.kind == 0 ? 8 : req.bytes;
        w.out_addr = server_main.GetMem({runtime::Alloc::kHpf, w.out_bytes});
        runtime::SgEntry sg;
        sg.local = {.src_addr = landing, .src_len = req.bytes, .dst_addr = w.out_addr,
                    .dst_len = w.out_bytes, .src_stream = 0, .dst_stream = 0};
        w.thread->Invoke(runtime::Oper::kLocalTransfer, sg);
      });
    };
    scheduler.Submit(std::move(job));
  });

  // --- Client: three remote requests (HLL, AES, HLL again) -------------------
  auto submit = [&](const RequestHeader& req, const std::vector<uint8_t>& payload) {
    client_thread.WriteBuffer(result_zone, std::vector<uint8_t>(8, 0).data(), 8);
    // 1. WRITE the data into the daemon's landing zone.
    const uint64_t staging = client_thread.GetMem({runtime::Alloc::kHpf, payload.size()});
    client_thread.WriteBuffer(staging, payload.data(), payload.size());
    runtime::SgEntry wr;
    wr.rdma = {.qpn = qp_c, .local_addr = staging, .remote_addr = landing,
               .len = payload.size()};
    client_thread.InvokeSync(runtime::Oper::kRemoteWrite, wr);
    // 2. SEND the request header.
    const uint64_t hdr = client_thread.GetMem({runtime::Alloc::kReg, sizeof(req)});
    client_thread.WriteBuffer(hdr, &req, sizeof(req));
    client.roce()->PostSend(qp_c, hdr, sizeof(req), nullptr);
    // 3. Await the result write-back.
    bool got_result = false;
    client.roce()->SetWriteArrivalHandler(qp_c, [&](uint64_t, uint64_t) {
      got_result = true;
    });
    engine.RunUntilCondition([&] { return got_result; });
  };

  // Request 1: HLL over 1M items with ~200k distinct.
  {
    std::vector<uint64_t> items(1'000'000);
    sim::Rng rng(1);
    for (auto& x : items) {
      x = rng.NextBounded(200'000);
    }
    std::vector<uint8_t> payload(items.size() * 8);
    std::memcpy(payload.data(), items.data(), payload.size());
    const sim::TimePs t0 = engine.Now();
    submit({.kind = 0, .bytes = payload.size(), .key = 0}, payload);
    double estimate = 0;
    client_thread.ReadBuffer(result_zone, &estimate, 8);
    std::printf("job 1 (remote HLL): estimate=%.0f (true 200000, err %.1f%%), %.1f ms "
                "end-to-end incl. kernel load\n",
                estimate, 100.0 * (estimate - 200'000) / 200'000,
                sim::ToMilliseconds(engine.Now() - t0));
  }

  // Request 2: AES encryption of 1 MiB.
  {
    std::vector<uint8_t> payload(1 << 20);
    sim::Rng rng(2);
    rng.FillBytes(payload.data(), payload.size());
    const uint64_t key = 0x6167717a7a767668ull;
    const sim::TimePs t0 = engine.Now();
    submit({.kind = 1, .bytes = payload.size(), .key = key}, payload);
    std::vector<uint8_t> cipher(payload.size());
    client_thread.ReadBuffer(result_zone, cipher.data(), cipher.size());
    const services::Aes128 reference(key, 0);
    std::printf("job 2 (remote AES): ciphertext %s, %.1f ms end-to-end\n",
                cipher == reference.EncryptEcb(payload) ? "verified" : "MISMATCH",
                sim::ToMilliseconds(engine.Now() - t0));
  }

  // Request 3: HLL again — the affinity scheduler reuses the resident kernel.
  {
    std::vector<uint64_t> items(500'000);
    sim::Rng rng(3);
    for (auto& x : items) {
      x = rng.NextBounded(50'000);
    }
    std::vector<uint8_t> payload(items.size() * 8);
    std::memcpy(payload.data(), items.data(), payload.size());
    const sim::TimePs t0 = engine.Now();
    submit({.kind = 0, .bytes = payload.size(), .key = 0}, payload);
    double estimate = 0;
    client_thread.ReadBuffer(result_zone, &estimate, 8);
    std::printf("job 3 (remote HLL): estimate=%.0f (true 50000), %.1f ms — no reload\n",
                estimate, sim::ToMilliseconds(engine.Now() - t0));
  }

  engine.RunUntilIdle();  // drain trailing ACKs so the daemon's stats settle
  std::printf("daemon: %d jobs served, %llu reconfigurations (affinity kept kernels hot)\n",
              jobs_served, static_cast<unsigned long long>(scheduler.reconfigurations()));
  return 0;
}
