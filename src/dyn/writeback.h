// Completion writeback engine (paper §5.1, utility channel).
//
// Instead of having the host poll device registers over PCIe for transfer
// completion (burning link bandwidth on non-posted reads), the shell writes
// an incrementing counter into host memory when a transfer finishes; the
// host spins on its own cache line. Coyote v2 extends the XDMA-native
// mechanism to card-memory and network transfers, all of which complete
// independently of PCIe.

#ifndef SRC_DYN_WRITEBACK_H_
#define SRC_DYN_WRITEBACK_H_

#include <cstdint>
#include <unordered_map>

#include "src/memsys/host_memory.h"
#include "src/sim/engine.h"
#include "src/sim/link.h"

namespace coyote {
namespace dyn {

class WritebackEngine {
 public:
  // Writeback slots are keyed by (vfpga, cthread, direction).
  struct Key {
    uint32_t vfpga = 0;
    uint32_t cthread = 0;
    bool write_direction = false;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return (static_cast<size_t>(k.vfpga) << 33) ^ (static_cast<size_t>(k.cthread) << 1) ^
             (k.write_direction ? 1 : 0);
    }
  };

  WritebackEngine(sim::Engine* engine, memsys::HostMemory* host, sim::Link* c2h)
      : engine_(engine), host_(host), c2h_(c2h) {}

  // Registers the host-memory address of the counter for `key`.
  void RegisterSlot(const Key& key, uint64_t host_addr) { slots_[key] = host_addr; }

  // Marks one more completed transfer for `key`: a 64-byte posted write
  // travels the C2H direction, then the host-visible counter increments.
  void Complete(const Key& key) {
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      return;  // untracked transfer (no registered cThread slot)
    }
    const uint64_t addr = it->second;
    c2h_->Submit(kWritebackSource, kWritebackBytes, [this, addr]() {
      uint32_t value = 0;
      host_->store().Read(addr, &value, sizeof(value));
      ++value;
      host_->store().Write(addr, &value, sizeof(value));
      ++writebacks_;
    });
  }

  // Host-side read of a counter (from the host's own memory — cheap).
  uint32_t ReadCounter(const Key& key) const {
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      return 0;
    }
    uint32_t value = 0;
    host_->store().Read(it->second, &value, sizeof(value));
    return value;
  }

  uint64_t writebacks() const { return writebacks_; }

 private:
  // Writeback shares the C2H link; give it a dedicated arbitration source so
  // it interleaves fairly with bulk data.
  static constexpr uint32_t kWritebackSource = 0xFFFF'FFFE;
  static constexpr uint64_t kWritebackBytes = 64;

  sim::Engine* engine_;
  memsys::HostMemory* host_;
  sim::Link* c2h_;
  std::unordered_map<Key, uint64_t, KeyHash> slots_;
  uint64_t writebacks_ = 0;
};

}  // namespace dyn
}  // namespace coyote

#endif  // SRC_DYN_WRITEBACK_H_
