// Neural network inference with the hls4ml integration (paper §9.7, Code 3).
//
// Mirrors the paper's Python flow in C++:
//   model -> convert (CoyoteAccelerator backend) -> compile (software
//   emulation) -> build (synthesis) -> CoyoteOverlay -> program_fpga ->
//   predict.
// Then runs the same model through the PYNQ/Vitis baseline for comparison.

#include <cstdio>
#include <vector>

#include "src/hlscompat/hls_model.h"
#include "src/hlscompat/overlay.h"
#include "src/runtime/device.h"
#include "src/services/nn.h"
#include "src/sim/rng.h"

using namespace coyote;

int main() {
  // "Load model and dataset".
  const services::MlpSpec spec = services::MakeIntrusionDetectionMlp();
  constexpr size_t kSamples = 4096;
  std::vector<int8_t> features(kSamples * spec.input_dim());
  sim::Rng rng(7);
  for (auto& x : features) {
    x = static_cast<int8_t>(static_cast<int64_t>(rng.NextBounded(255)) - 127);
  }

  // "Create hls4ml model targeting the Coyote backend".
  hlscompat::HlsModel hls_model(spec, hlscompat::Backend::kCoyoteAccelerator);

  // "Compile and run software emulation".
  const std::vector<int8_t> pred_emu = hls_model.PredictEmulated(features, kSamples);

  // "Start hardware synthesis".
  const fabric::Floorplan floorplan = fabric::Floorplan::ForPart(fabric::kAlveoU55C, 1);
  const hlscompat::CompiledModel built = hls_model.Build(floorplan);
  std::printf("built '%s' for %s: %.0f DSPs, II=%llu cycles, synthesis %.1f min\n",
              spec.name.c_str(), std::string(BackendName(built.backend)).c_str(),
              static_cast<double>(built.kernel_resources.dsp),
              static_cast<unsigned long long>(spec.IiCycles()), built.build_seconds / 60.0);

  // "Create an overlay, program the FPGA, run inference on hardware".
  runtime::SimDevice::Config cfg;
  cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
  cfg.shell.num_vfpgas = 1;
  runtime::SimDevice device(cfg);
  hlscompat::CoyoteOverlay overlay(&device, built);
  const runtime::SimDevice::ReconfigResult programmed = overlay.ProgramFpga();
  if (!programmed.ok) {
    std::fprintf(stderr, "program_fpga() failed: %s\n", programmed.error.c_str());
    return 1;
  }
  std::printf("program_fpga(): partial reconfiguration in %.1f ms\n",
              sim::ToMilliseconds(programmed.total_latency));

  const auto pred_fpga = overlay.Predict(features, kSamples, /*batch_size=*/256);
  std::printf("predict(): %zu samples at %.2f M samples/s, outputs %s emulation\n", kSamples,
              pred_fpga.samples_per_second / 1e6,
              pred_fpga.outputs == pred_emu ? "bit-exact vs" : "DIFFER from");

  // Baseline comparison.
  hlscompat::HlsModel pynq_model(spec, hlscompat::Backend::kPynqVitis);
  const hlscompat::CompiledModel pynq_built = pynq_model.Build(floorplan);
  runtime::SimDevice::Config pynq_cfg = cfg;
  runtime::SimDevice pynq_device(pynq_cfg);
  hlscompat::PynqBaseline baseline(&pynq_device, pynq_built);
  baseline.ProgramFpga();
  const auto pred_pynq = baseline.Predict(features, kSamples, /*batch_size=*/256);
  std::printf("PYNQ/Vitis baseline: %.2f M samples/s -> Coyote speedup %.1fx\n",
              pred_pynq.samples_per_second / 1e6,
              pred_fpga.samples_per_second / pred_pynq.samples_per_second);
  return pred_fpga.outputs == pred_emu ? 0 : 1;
}
