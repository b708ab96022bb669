// Card memory (HBM/DDR) with striping and a shared virtualization crossbar.
//
// Coyote v2 abstracts memory-controller creation and stripes buffers across
// HBM pseudo-channels to maximize throughput (paper §6.1). Application
// requests use virtual addresses; the translation + striping crossbar is a
// shared resource, which is what makes Fig. 7(a) taper: per-burst translation
// work serializes in the crossbar, capping aggregate bandwidth below the sum
// of channel bandwidths. Shells that need the full raw bandwidth can bypass
// the MMU and bind channels directly (mmu_bypass), trading away the shared
// virtual memory model.

#ifndef SRC_MEMSYS_CARD_MEMORY_H_
#define SRC_MEMSYS_CARD_MEMORY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/memsys/sparse_memory.h"
#include "src/sim/callback.h"
#include "src/sim/engine.h"
#include "src/sim/link.h"
#include "src/sim/time.h"

namespace coyote {
namespace memsys {

class CardMemory {
 public:
  struct Config {
    uint32_t num_channels = 32;
    uint64_t stripe_bytes = 4096;  // striping granularity
    bool mmu_bypass = false;
  };

  // One pseudo-channel: 256 bits at 450 MHz raw, of which the controller
  // achieves 60%.
  static constexpr uint64_t kChannelRawBps = 14'400'000'000ull;
  static constexpr double kControllerEfficiency = 0.60;
  // Per-burst cost of the shared translation crossbar.
  static constexpr sim::TimePs kTranslationOverhead = sim::Nanoseconds(50);

  CardMemory(sim::Engine* engine, const Config& config);

  // Bump-allocates card memory. Returns the card-physical base address.
  uint64_t Allocate(uint64_t bytes);

  // Timing model: moves `len` bytes at `addr` for `source_id`, invoking
  // `on_done` when the last stripe completes. Reads and writes share channel
  // bandwidth symmetrically in this model, so one entry point serves both.
  void Access(uint64_t addr, uint64_t len, uint32_t source_id, sim::InlineCallback on_done);

  // Functional storage (real bytes).
  SparseMemory& store() { return store_; }
  const SparseMemory& store() const { return store_; }

  const Config& config() const { return config_; }
  uint64_t allocated_bytes() const { return next_; }

  // Channel a card-physical address stripes to.
  uint32_t ChannelFor(uint64_t addr) const {
    return static_cast<uint32_t>((addr / config_.stripe_bytes) % config_.num_channels);
  }

 private:
  sim::Engine* engine_;
  Config config_;
  SparseMemory store_;
  uint64_t next_ = 0;

  // One bandwidth server per channel + the shared translation crossbar.
  std::vector<std::unique_ptr<sim::Link>> channels_;
  std::unique_ptr<sim::Link> crossbar_;
};

}  // namespace memsys
}  // namespace coyote

#endif  // SRC_MEMSYS_CARD_MEMORY_H_
