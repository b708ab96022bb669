// Quantized MLP inference engine (paper §9.7).
//
// Functional model of an hls4ml-generated, fully quantized feed-forward
// network: int8 weights/activations, int32 accumulators, power-of-two
// requantization, optional ReLU — the design style hls4ml emits for
// real-time inference. The hardware kernel is fully pipelined with a
// per-sample initiation interval derived from the layer geometry and a
// configured reuse factor (hls4ml's parallelism knob).

#ifndef SRC_SERVICES_NN_H_
#define SRC_SERVICES_NN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/axi/stream.h"
#include "src/fabric/resources.h"
#include "src/sim/access_guard.h"
#include "src/synth/module_library.h"
#include "src/vfpga/kernel.h"
#include "src/vfpga/vfpga.h"

namespace coyote {
namespace services {

struct DenseLayer {
  uint32_t in_dim = 0;
  uint32_t out_dim = 0;
  std::vector<int8_t> weights;  // out_dim x in_dim, row-major
  std::vector<int32_t> bias;    // out_dim
  uint32_t requant_shift = 6;   // acc >> shift before clamping to int8
  bool relu = true;
};

// 1-D convolution (valid padding, stride 1), the layer type behind hls4ml's
// CNN deployments. Input layout is channel-last: element (t, c) lives at
// index t * in_channels + c. Output length = in_len - kernel_size + 1.
struct Conv1dLayer {
  uint32_t in_len = 0;
  uint32_t in_channels = 0;
  uint32_t out_channels = 0;
  uint32_t kernel_size = 0;
  // weights[oc][ic][dt] flattened: oc * (in_channels * kernel_size) +
  // ic * kernel_size + dt.
  std::vector<int8_t> weights;
  std::vector<int32_t> bias;  // out_channels
  uint32_t requant_shift = 6;
  bool relu = true;

  uint32_t out_len() const { return in_len - kernel_size + 1; }
};

struct MlpSpec {
  std::string name;
  // Optional convolutional front end, evaluated before the dense layers on
  // the flattened (out_len x out_channels) activations.
  std::vector<Conv1dLayer> conv_layers;
  std::vector<DenseLayer> layers;
  // hls4ml reuse factor: 1 = fully parallel (II = 1 cycle per sample),
  // R reuses each multiplier R times (II = R cycles).
  uint32_t reuse_factor = 4;

  uint32_t input_dim() const {
    if (!conv_layers.empty()) {
      return conv_layers.front().in_len * conv_layers.front().in_channels;
    }
    return layers.empty() ? 0 : layers.front().in_dim;
  }
  uint32_t output_dim() const { return layers.empty() ? 0 : layers.back().out_dim; }
  uint64_t TotalMultiplies() const;

  // Initiation interval (cycles between samples) and latency (cycles from
  // sample in to result out) of the pipelined implementation.
  uint64_t IiCycles() const { return reuse_factor; }
  uint64_t LatencyCycles() const;

  // Resource estimate: DSPs for multipliers (shared by the reuse factor),
  // LUT/FF glue proportional to the layer widths.
  fabric::ResourceVector EstimateResources() const;
};

// Runs one sample through the network (int8 in, int8 out). Shared by the
// hardware kernel and the software-emulation path of the hls4ml backend.
std::vector<int8_t> MlpForward(const MlpSpec& spec, const int8_t* input);

// Builds the network-intrusion-detection MLP the paper deploys (§9.7,
// refs [44]/[55]): a compact fully-connected classifier over flow features.
// Weights are generated deterministically so results are reproducible.
MlpSpec MakeIntrusionDetectionMlp();

// A small 1-D CNN (conv-conv-dense), the other model family hls4ml compiles;
// demonstrates that the CoyoteAccelerator backend is model-agnostic (§9.7:
// "any model that is supported by hls4ml can be deployed").
MlpSpec MakeConv1dClassifier();

class NnKernel : public vfpga::HwKernel {
 public:
  explicit NnKernel(MlpSpec spec) : spec_(std::move(spec)) {}

  std::string_view name() const override { return "nn_inference"; }
  fabric::ResourceVector resources() const override { return spec_.EstimateResources(); }

  void Attach(vfpga::Vfpga* region) override;
  void Detach() override;

  const MlpSpec& spec() const { return spec_; }

 private:
  // The kernel serves both interface kinds: direct host streams (Coyote
  // path) and card streams (the staged PYNQ-style path reads from HBM).
  void Pump(uint32_t stream_index, bool card);

  MlpSpec spec_;
  vfpga::Vfpga* region_ = nullptr;
  uint64_t next_sample_entry_cycle_ = 0;
  // Residual bytes of a sample split across packet boundaries, per stream;
  // host streams first, then card streams.
  sim::AccessGuard guard_{"svc.nn"};
  std::vector<std::vector<uint8_t>> residual_;
};

}  // namespace services
}  // namespace coyote

#endif  // SRC_SERVICES_NN_H_
