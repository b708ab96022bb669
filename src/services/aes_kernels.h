// AES hardware kernels (paper §9.4, §9.5).
//
// Both kernels read the 128-bit key from CSRs 0/1 (the paper's Code 1 writes
// the key with cthread.setCSR(KEY, 0)) and CBC reads the IV from CSRs 2/3.
//
// AES ECB: stateless, fully parallel across blocks — a wide unrolled design
// that sustains one 512-bit beat per cycle (16 GB/s), making multi-tenant
// deployments memory-bound on the 12 GB/s host link (Fig. 8).
//
// AES CBC: each 128-bit block XORs with the previous ciphertext before
// entering the 10-stage AES pipeline, so a single stream keeps only 1 of 10
// stages busy (Fig. 9). Requests from different cThreads arrive on different
// host streams with distinct TIDs; a round-robin arbiter injects one block
// per cycle from whichever streams are ready, filling the pipeline and
// scaling throughput linearly with the thread count (Fig. 10(b)).

#ifndef SRC_SERVICES_AES_KERNELS_H_
#define SRC_SERVICES_AES_KERNELS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/axi/stream.h"
#include "src/services/aes.h"
#include "src/sim/access_guard.h"
#include "src/services/stream_kernel.h"
#include "src/synth/module_library.h"
#include "src/vfpga/kernel.h"
#include "src/vfpga/vfpga.h"

namespace coyote {
namespace services {

// CSR layout shared by both AES kernels.
inline constexpr uint32_t kAesCsrKeyLo = 0;
inline constexpr uint32_t kAesCsrKeyHi = 1;
inline constexpr uint32_t kAesCsrIvLo = 2;
inline constexpr uint32_t kAesCsrIvHi = 3;

class AesEcbKernel : public StreamKernel {
 public:
  enum class Direction : uint8_t { kEncrypt, kDecrypt };

  // `port` selects where the kernel sits: on the host streams (the Fig. 8
  // multi-tenant benchmark) or on the network data path (the §6.2 on-path
  // offload position, e.g. decrypting inbound RDMA traffic like a SmartNIC).
  explicit AesEcbKernel(Direction direction = Direction::kEncrypt,
                        Port port = Port::kHost)
      : StreamKernel({.bytes_per_cycle = 64, .pipeline_depth = 10}, port),
        direction_(direction) {}

  std::string_view name() const override {
    return direction_ == Direction::kEncrypt ? "aes_ecb" : "aes_ecb_dec";
  }
  fabric::ResourceVector resources() const override {
    return synth::LibraryModule("aes_core").res;
  }

 protected:
  axi::BufferView Process(const axi::StreamPacket& in, uint32_t stream_index) override;

 private:
  Direction direction_;
};

class AesCbcKernel : public vfpga::HwKernel {
 public:
  static constexpr uint64_t kPipelineDepth = 10;  // = AES-128 rounds (Fig. 9)
  // Extra cycles in the per-lane recurrence: the XOR feedback path, input
  // arbitration and I/O registering around the core. This is what puts the
  // measured single-thread plateau at ~280 MB/s (16 B / (14 cy * 4 ns))
  // instead of the idealized 400 MB/s of a bare 10-deep pipeline.
  static constexpr uint64_t kLaneTurnaround = 4;

  std::string_view name() const override { return "aes_cbc"; }
  fabric::ResourceVector resources() const override {
    return synth::LibraryModule("aes_core").res;
  }

  void Attach(vfpga::Vfpga* region) override;
  void Detach() override;

 private:
  struct LaneState {
    // CBC chaining value for this stream (starts at the IV).
    std::array<uint8_t, Aes128::kBlockBytes> chain{};
    bool chain_loaded = false;
    // Earliest cycle this lane's next block may enter the pipeline (the
    // 10-cycle CBC recurrence).
    uint64_t next_entry_cycle = 0;
    // Current packet being processed block-by-block.
    std::optional<axi::StreamPacket> current;
    size_t block_offset = 0;
    std::vector<uint8_t> out;
  };

  void Pump(uint32_t stream_index);
  const Aes128& Cipher();
  // Claims the first free pipeline-input cycle >= `desired` (one block may
  // enter the pipeline per cycle, across all lanes).
  uint64_t ClaimInputSlot(uint64_t desired);

  vfpga::Vfpga* region_ = nullptr;
  sim::AccessGuard guard_{"svc.aes_cbc"};
  std::vector<LaneState> lanes_;
  // Input-port cycles already claimed by scheduled blocks.
  std::set<uint64_t> occupied_input_cycles_;

  std::unique_ptr<Aes128> cipher_;
  uint64_t cached_key_lo_ = 0;
  uint64_t cached_key_hi_ = 0;
};

}  // namespace services
}  // namespace coyote

#endif  // SRC_SERVICES_AES_KERNELS_H_
