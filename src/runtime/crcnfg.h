// cRcnfg: the reconfiguration handle (paper §7.3, Code 2).
//
//   cRcnfg rcnfg(device);
//   rcnfg.ReconfigureShell("/path/to/shell.bin");   // dynamic + app layers
//   rcnfg.ReconfigureApp("/path/to/app.bin", 2);    // vFPGA #2 only
//
// Paths resolve through the device's bitstream store (the simulated
// filesystem the build flows emit into).
//
// Like the paper's host call, each method blocks: it starts the device's
// event-driven reconfiguration and waits for its completion with
// SimDevice::WaitFor. That makes cRcnfg host code: it must never be called
// from inside an event (the scheduler and the supervisor call the device's
// event-driven form instead).

#ifndef SRC_RUNTIME_CRCNFG_H_
#define SRC_RUNTIME_CRCNFG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "src/runtime/device.h"

namespace coyote {
namespace runtime {

class CRcnfg {
 public:
  explicit CRcnfg(SimDevice* dev) : dev_(dev) {}

  SimDevice::ReconfigResult ReconfigureShell(const std::string& bitstream_path) {
    return Wait([&](SimDevice::ReconfigDone done) {
      dev_->ReconfigureShell(bitstream_path, std::move(done));
    });
  }

  SimDevice::ReconfigResult ReconfigureApp(const std::string& bitstream_path,
                                           uint32_t vfpga_id) {
    return Wait([&](SimDevice::ReconfigDone done) {
      dev_->ReconfigureApp(bitstream_path, vfpga_id, std::move(done));
    });
  }

  // Tries `primary`; if every ICAP attempt on it fails (e.g. under fault
  // injection), falls back to `fallback` — a known-good bitstream kept
  // around for exactly this purpose. `used_fallback` reports which one the
  // region ended up running.
  SimDevice::ReconfigResult ReconfigureAppWithFallback(const std::string& primary,
                                                       const std::string& fallback,
                                                       uint32_t vfpga_id) {
    SimDevice::ReconfigResult first = ReconfigureApp(primary, vfpga_id);
    if (first.ok) {
      return first;
    }
    SimDevice::ReconfigResult second = ReconfigureApp(fallback, vfpga_id);
    second.attempts += first.attempts;
    second.used_fallback = true;
    return second;
  }

 private:
  // Starts a reconfiguration through `start` and runs the engine until its
  // on_done reports.
  template <typename Start>
  SimDevice::ReconfigResult Wait(Start start) {
    std::optional<SimDevice::ReconfigResult> result;
    start([&result](const SimDevice::ReconfigResult& r) { result = r; });
    dev_->WaitFor([&result] { return result.has_value(); });
    return result.value_or(SimDevice::ReconfigResult{});
  }

  SimDevice* dev_;
};

// Paper-style spelling.
using cRcnfg = CRcnfg;

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_CRCNFG_H_
