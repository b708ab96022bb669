// Deployment overlays: CoyoteOverlay and the PYNQ/Vitis baseline.
//
// CoyoteOverlay (paper Code 3): program_fpga() loads the generated NN kernel
// into a vFPGA via partial reconfiguration; predict() streams input batches
// straight from host memory through the kernel and back — no staging copy —
// driven by the C++ runtime (cThread under the hood).
//
// PynqBaseline models the hls4ml Vitis/PYNQ flow the paper compares against:
// every batch is (1) copied from host to card memory, (2) processed by the
// same kernel reading from HBM, (3) copied back — plus the Python-side
// runtime overhead PYNQ adds per call and per buffer sync. The kernel is
// identical; the integration path is the experiment (Fig. 12).

#ifndef SRC_HLSCOMPAT_OVERLAY_H_
#define SRC_HLSCOMPAT_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hlscompat/hls_model.h"
#include "src/runtime/cthread.h"
#include "src/runtime/device.h"

namespace coyote {
namespace hlscompat {

struct InferenceResult {
  std::vector<int8_t> outputs;
  sim::TimePs elapsed = 0;
  double samples_per_second = 0;
  double batch_latency_us = 0;  // mean per-batch latency
};

class CoyoteOverlay {
 public:
  CoyoteOverlay(runtime::SimDevice* dev, CompiledModel model, uint32_t vfpga_id = 0);

  // Loads the NN kernel into the vFPGA through cRcnfg (partial
  // reconfiguration) and returns its result. Predict needs an ok one.
  runtime::SimDevice::ReconfigResult ProgramFpga();

  // Batched inference: `num_samples` samples of spec.input_dim() int8
  // features each, processed in batches of `batch_size`.
  InferenceResult Predict(const std::vector<int8_t>& inputs, size_t num_samples,
                          size_t batch_size);

 private:
  runtime::SimDevice* dev_;
  CompiledModel model_;
  uint32_t vfpga_id_;
  std::unique_ptr<runtime::CThread> cthread_;
  bool programmed_ = false;
};

class PynqBaseline {
 public:
  struct Overheads {
    // PYNQ's Python call path: allocate/teardown of the call, numpy
    // marshalling, driver transitions.
    sim::TimePs per_call = sim::Milliseconds(1.0);
    // Per-batch buffer sync + DMA descriptor handling in Python.
    sim::TimePs per_batch = sim::Microseconds(100);
  };

  PynqBaseline(runtime::SimDevice* dev, CompiledModel model, uint32_t vfpga_id = 0);

  runtime::SimDevice::ReconfigResult ProgramFpga();  // as CoyoteOverlay's
  InferenceResult Predict(const std::vector<int8_t>& inputs, size_t num_samples,
                          size_t batch_size);

 private:
  runtime::SimDevice* dev_;
  CompiledModel model_;
  uint32_t vfpga_id_;
  Overheads overheads_;
  std::unique_ptr<runtime::CThread> cthread_;
  bool programmed_ = false;
};

}  // namespace hlscompat
}  // namespace coyote

#endif  // SRC_HLSCOMPAT_OVERLAY_H_
