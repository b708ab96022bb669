// Unit tests for the hls4ml integration layer: model building, software
// emulation vs hardware bit-exactness, backend differences, overlays.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/hlscompat/hls_model.h"
#include "src/hlscompat/overlay.h"
#include "src/runtime/device.h"
#include "src/services/nn.h"
#include "src/sim/fault.h"
#include "src/sim/rng.h"

namespace coyote {
namespace hlscompat {
namespace {

runtime::SimDevice::Config DeviceConfig() {
  runtime::SimDevice::Config cfg;
  cfg.shell.name = "nn-test";
  cfg.shell.services = {fabric::Service::kHostStream, fabric::Service::kCardMemory};
  cfg.shell.num_vfpgas = 1;
  return cfg;
}

std::vector<int8_t> RandomInputs(size_t samples, uint32_t dim, uint64_t seed) {
  std::vector<int8_t> v(samples * dim);
  sim::Rng rng(seed);
  for (auto& x : v) {
    x = static_cast<int8_t>(static_cast<int64_t>(rng.NextBounded(255)) - 127);
  }
  return v;
}

TEST(HlsModelTest, BackendNames) {
  EXPECT_EQ(BackendName(Backend::kCoyoteAccelerator), "CoyoteAccelerator");
  EXPECT_EQ(BackendName(Backend::kPynqVitis), "PYNQ/Vitis");
}

TEST(HlsModelTest, EmulationMatchesDirectForward) {
  const services::MlpSpec spec = services::MakeIntrusionDetectionMlp();
  HlsModel model(spec, Backend::kCoyoteAccelerator);
  const auto inputs = RandomInputs(10, spec.input_dim(), 1);
  const auto out = model.PredictEmulated(inputs, 10);
  ASSERT_EQ(out.size(), 10u * spec.output_dim());
  for (int s = 0; s < 10; ++s) {
    const auto direct = services::MlpForward(spec, &inputs[s * spec.input_dim()]);
    for (uint32_t j = 0; j < spec.output_dim(); ++j) {
      EXPECT_EQ(out[s * spec.output_dim() + j], direct[j]);
    }
  }
}

TEST(HlsModelTest, BuildReportsResourcesAndTimes) {
  const services::MlpSpec spec = services::MakeIntrusionDetectionMlp();
  const fabric::Floorplan fp = fabric::Floorplan::ForPart(fabric::kAlveoU55C, 1);
  const CompiledModel coyote = HlsModel(spec, Backend::kCoyoteAccelerator).Build(fp);
  const CompiledModel pynq = HlsModel(spec, Backend::kPynqVitis).Build(fp);
  // Same kernel both ways.
  EXPECT_EQ(coyote.kernel_resources.dsp, pynq.kernel_resources.dsp);
  // Coyote links against a prebuilt shell: faster build.
  EXPECT_LT(coyote.build_seconds, pynq.build_seconds);
  // Totals comparable (the Fig. 12 claim): within 2.5x either way.
  const double ratio = static_cast<double>(coyote.total_resources().luts) /
                       static_cast<double>(pynq.total_resources().luts);
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5);
}

TEST(OverlayTest, CoyotePredictIsBitExactVsEmulation) {
  const services::MlpSpec spec = services::MakeIntrusionDetectionMlp();
  const fabric::Floorplan fp = fabric::Floorplan::ForPart(fabric::kAlveoU55C, 1);
  HlsModel model(spec, Backend::kCoyoteAccelerator);
  const CompiledModel built = model.Build(fp);

  runtime::SimDevice dev(DeviceConfig());
  CoyoteOverlay overlay(&dev, built);
  EXPECT_GT(overlay.ProgramFpga().total_latency, 0u);

  constexpr size_t kSamples = 500;
  const auto inputs = RandomInputs(kSamples, spec.input_dim(), 2);
  const auto result = overlay.Predict(inputs, kSamples, 128);
  EXPECT_EQ(result.outputs, model.PredictEmulated(inputs, kSamples));
  EXPECT_GT(result.samples_per_second, 0.0);
}

TEST(OverlayTest, PynqPredictIsBitExactButSlower) {
  const services::MlpSpec spec = services::MakeIntrusionDetectionMlp();
  const fabric::Floorplan fp = fabric::Floorplan::ForPart(fabric::kAlveoU55C, 1);
  HlsModel model(spec, Backend::kPynqVitis);
  const CompiledModel built = model.Build(fp);

  constexpr size_t kSamples = 500;
  const auto inputs = RandomInputs(kSamples, spec.input_dim(), 3);
  const auto reference = model.PredictEmulated(inputs, kSamples);

  runtime::SimDevice dev_p(DeviceConfig());
  PynqBaseline baseline(&dev_p, built);
  baseline.ProgramFpga();
  const auto pynq = baseline.Predict(inputs, kSamples, 128);
  EXPECT_EQ(pynq.outputs, reference);

  runtime::SimDevice dev_c(DeviceConfig());
  CoyoteOverlay overlay(&dev_c, HlsModel(spec, Backend::kCoyoteAccelerator).Build(fp));
  overlay.ProgramFpga();
  const auto coyote = overlay.Predict(inputs, kSamples, 128);
  EXPECT_EQ(coyote.outputs, reference);

  // The headline claim: order-of-magnitude advantage for direct streaming.
  EXPECT_GT(coyote.samples_per_second / pynq.samples_per_second, 8.0);
}

// A failed program reaches the caller in every build, NDEBUG included, and
// the region keeps no kernel.
TEST(OverlayTest, FailedProgramIsReportedToTheCaller) {
  const services::MlpSpec spec = services::MakeIntrusionDetectionMlp();
  const fabric::Floorplan fp = fabric::Floorplan::ForPart(fabric::kAlveoU55C, 1);
  sim::FaultPlan plan;
  plan.seed = 12;
  plan.reconfig_fail_rate = 1.0;  // every ICAP program aborts
  auto check = [](runtime::SimDevice& dev, const runtime::SimDevice::ReconfigResult& result) {
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.attempts, runtime::SimDevice::kReconfigMaxRetries);
    EXPECT_NE(result.error.find("ICAP programming failed"), std::string::npos);
    EXPECT_EQ(dev.vfpga(0).kernel(), nullptr);
  };

  runtime::SimDevice dev_c(DeviceConfig());
  sim::FaultInjector injector_c(&dev_c.engine(), plan);
  dev_c.AttachFaultInjector(&injector_c);
  CoyoteOverlay overlay(&dev_c, HlsModel(spec, Backend::kCoyoteAccelerator).Build(fp));
  check(dev_c, overlay.ProgramFpga());

  runtime::SimDevice dev_p(DeviceConfig());
  sim::FaultInjector injector_p(&dev_p.engine(), plan);
  dev_p.AttachFaultInjector(&injector_p);
  PynqBaseline baseline(&dev_p, HlsModel(spec, Backend::kPynqVitis).Build(fp));
  check(dev_p, baseline.ProgramFpga());
}

TEST(HlsModelTest, ReuseFactorTradesDspForThroughput) {
  // hls4ml's central knob: higher reuse -> fewer DSPs, higher II (lower
  // throughput), slightly higher latency.
  services::MlpSpec base = services::MakeIntrusionDetectionMlp();
  services::MlpSpec parallel = base;
  parallel.reuse_factor = 1;
  services::MlpSpec frugal = base;
  frugal.reuse_factor = 16;

  EXPECT_LT(parallel.IiCycles(), frugal.IiCycles());
  EXPECT_GT(parallel.EstimateResources().dsp, frugal.EstimateResources().dsp);
  EXPECT_LE(parallel.LatencyCycles(), frugal.LatencyCycles());
  // DSPs scale ~1/reuse.
  EXPECT_NEAR(static_cast<double>(parallel.EstimateResources().dsp),
              16.0 * static_cast<double>(frugal.EstimateResources().dsp),
              static_cast<double>(parallel.EstimateResources().dsp) * 0.05);
  // Outputs are identical regardless of the schedule.
  const auto inputs = RandomInputs(8, base.input_dim(), 12);
  EXPECT_EQ(HlsModel(parallel, Backend::kCoyoteAccelerator).PredictEmulated(inputs, 8),
            HlsModel(frugal, Backend::kCoyoteAccelerator).PredictEmulated(inputs, 8));
}

TEST(OverlayTest, BackendIsModelAgnosticConvNet) {
  // §9.7: "any model that is supported by hls4ml can be deployed with
  // Coyote v2" — same flow, CNN instead of MLP, still bit-exact.
  const services::MlpSpec spec = services::MakeConv1dClassifier();
  const fabric::Floorplan fp = fabric::Floorplan::ForPart(fabric::kAlveoU55C, 1);
  HlsModel model(spec, Backend::kCoyoteAccelerator);
  const CompiledModel built = model.Build(fp);
  EXPECT_GT(built.kernel_resources.dsp, 0u);

  runtime::SimDevice dev(DeviceConfig());
  CoyoteOverlay overlay(&dev, built);
  overlay.ProgramFpga();
  constexpr size_t kSamples = 64;
  const auto inputs = RandomInputs(kSamples, spec.input_dim(), 9);
  const auto result = overlay.Predict(inputs, kSamples, 16);
  EXPECT_EQ(result.outputs, model.PredictEmulated(inputs, kSamples));
}

// Property: bit-exactness holds across batch sizes (batches that split
// samples across packets must not corrupt outputs).
class BatchSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchSweep, OutputsIndependentOfBatching) {
  const services::MlpSpec spec = services::MakeIntrusionDetectionMlp();
  const fabric::Floorplan fp = fabric::Floorplan::ForPart(fabric::kAlveoU55C, 1);
  HlsModel model(spec, Backend::kCoyoteAccelerator);
  const CompiledModel built = model.Build(fp);

  constexpr size_t kSamples = 257;  // deliberately not a power of two
  const auto inputs = RandomInputs(kSamples, spec.input_dim(), 4);
  const auto reference = model.PredictEmulated(inputs, kSamples);

  runtime::SimDevice dev(DeviceConfig());
  CoyoteOverlay overlay(&dev, built);
  overlay.ProgramFpga();
  EXPECT_EQ(overlay.Predict(inputs, kSamples, GetParam()).outputs, reference);
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSweep, ::testing::Values(1, 3, 64, 100, 257, 1000));

}  // namespace
}  // namespace hlscompat
}  // namespace coyote
