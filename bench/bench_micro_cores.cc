// Micro-benchmarks of the functional cores (google-benchmark).
//
// These measure the host-side computational primitives the substrate uses —
// useful for keeping the simulator fast and for validating that functional
// models are not the bottleneck in the table/figure benches.

#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "src/mmu/tlb.h"
#include "src/net/packets.h"
#include "src/services/aes.h"
#include "src/services/hll.h"
#include "src/services/nn.h"
#include "src/sim/engine.h"
#include "src/sim/hash.h"
#include "src/sim/rng.h"

namespace coyote {
namespace {

void BM_AesEncryptBlock(benchmark::State& state) {
  services::Aes128 aes(0x0123456789abcdefull, 0xfedcba9876543210ull);
  uint8_t in[16] = {0};
  uint8_t out[16];
  for (auto _ : state) {
    aes.EncryptBlock(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_AesEcbBuffer(benchmark::State& state) {
  services::Aes128 aes(1, 2);
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
  sim::Rng rng(1);
  rng.FillBytes(buf.data(), buf.size());
  for (auto _ : state) {
    auto out = aes.EncryptEcb(buf);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_AesEcbBuffer)->Arg(4096)->Arg(65536);

void BM_HllAdd(benchmark::State& state) {
  services::HllSketch sketch(14);
  uint64_t x = 0;
  for (auto _ : state) {
    sketch.Add(++x);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HllAdd);

void BM_TlbLookupHit(benchmark::State& state) {
  mmu::Tlb tlb({.entries = 1024, .associativity = 4, .page_bytes = 2ull << 20});
  for (uint64_t i = 0; i < 512; ++i) {
    tlb.Insert(i * (2ull << 20), {mmu::MemKind::kHost, i});
  }
  uint64_t addr = 0;
  for (auto _ : state) {
    auto hit = tlb.Lookup(addr);
    benchmark::DoNotOptimize(hit);
    addr = (addr + (2ull << 20)) % (512ull * (2ull << 20));
  }
}
BENCHMARK(BM_TlbLookupHit);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.ScheduleAfter(static_cast<sim::TimePs>(i), [] {});
    }
    engine.RunUntilIdle();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_RoceFrameBuildParse(benchmark::State& state) {
  net::FrameMeta meta;
  meta.opcode = net::Opcode::kWriteOnly;
  meta.reth_vaddr = 0x1000;
  meta.reth_len = 4096;
  std::vector<uint8_t> payload(4096, 0xAB);
  for (auto _ : state) {
    auto frame = net::BuildFrame(meta, payload);
    auto parsed = net::ParseFrame(frame);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_RoceFrameBuildParse);

// The two per-byte host loops on the fleet path: the CRC-32 seal over one
// ~16 KiB CYK1 checkpoint and the FNV-1a fold of one 8 KiB item readback.
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> buf(16 << 10);
  sim::Rng rng(1);
  rng.FillBytes(buf.data(), buf.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::Crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32);

void BM_FnvFold(benchmark::State& state) {
  std::vector<uint8_t> buf(8 << 10);
  sim::Rng rng(1);
  rng.FillBytes(buf.data(), buf.size());
  for (auto _ : state) {
    uint64_t h = sim::kFnvOffset;
    sim::FnvFold(&h, buf.data(), buf.size());
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_FnvFold);

void BM_MlpForward(benchmark::State& state) {
  const services::MlpSpec spec = services::MakeIntrusionDetectionMlp();
  std::vector<int8_t> input(spec.input_dim(), 3);
  for (auto _ : state) {
    auto out = services::MlpForward(spec, input.data());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MlpForward);

}  // namespace
}  // namespace coyote

BENCHMARK_MAIN();
