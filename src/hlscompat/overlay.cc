#include "src/hlscompat/overlay.h"

#include <algorithm>
#include <cassert>

#include "src/runtime/crcnfg.h"
#include "src/services/nn.h"

namespace coyote {
namespace hlscompat {
namespace {

constexpr char kBitstreamPath[] = "/tmp/coyote/nn_inference.bin";

fabric::PartialBitstream MakeAppBitstream(runtime::SimDevice* dev,
                                          const CompiledModel& model, uint32_t vfpga_id) {
  const fabric::Region& region = dev->floorplan().app_regions().at(vfpga_id);
  fabric::PartialBitstream bs;
  bs.name = "app:nn_inference";
  bs.target_layer = fabric::Layer::kApp;
  bs.region_index = vfpga_id;
  bs.size_bytes = dev->floorplan().RegionBitstreamBytes(region, model.kernel_resources);
  bs.shell_config_id = dev->active_shell().ConfigId();
  bs.occupied = model.kernel_resources;
  return bs;
}

// The one ProgramFpga body of both overlays; `programmed` records success.
runtime::SimDevice::ReconfigResult Program(runtime::SimDevice* dev, const CompiledModel& model,
                                           uint32_t vfpga_id, bool* programmed) {
  dev->WriteBitstreamFile(kBitstreamPath, MakeAppBitstream(dev, model, vfpga_id));
  runtime::SimDevice::ReconfigResult result =
      runtime::CRcnfg(dev).ReconfigureApp(kBitstreamPath, vfpga_id);
  *programmed = result.ok;
  return result;
}

}  // namespace

CoyoteOverlay::CoyoteOverlay(runtime::SimDevice* dev, CompiledModel model, uint32_t vfpga_id)
    : dev_(dev), model_(std::move(model)), vfpga_id_(vfpga_id) {
  cthread_ = std::make_unique<runtime::CThread>(dev_, vfpga_id_);
  dev_->RegisterKernelFactory("nn_inference", [spec = model_.spec]() {
    return std::make_unique<services::NnKernel>(spec);
  });
}

runtime::SimDevice::ReconfigResult CoyoteOverlay::ProgramFpga() {
  return Program(dev_, model_, vfpga_id_, &programmed_);
}

InferenceResult CoyoteOverlay::Predict(const std::vector<int8_t>& inputs, size_t num_samples,
                                       size_t batch_size) {
  assert(programmed_);
  const uint32_t in_dim = model_.spec.input_dim();
  const uint32_t out_dim = model_.spec.output_dim();
  assert(inputs.size() >= num_samples * in_dim);

  InferenceResult result;
  result.outputs.resize(num_samples * out_dim);

  const uint64_t src = cthread_->GetMem({runtime::Alloc::kHpf, num_samples * in_dim});
  const uint64_t dst = cthread_->GetMem({runtime::Alloc::kHpf, num_samples * out_dim});
  cthread_->WriteBuffer(src, inputs.data(), num_samples * in_dim);

  const sim::TimePs start = dev_->engine().Now();
  size_t done = 0;
  uint64_t batches = 0;
  while (done < num_samples) {
    const size_t n = std::min(batch_size, num_samples - done);
    runtime::SgEntry sg;
    sg.local.src_addr = src + done * in_dim;
    sg.local.src_len = n * in_dim;
    sg.local.dst_addr = dst + done * out_dim;
    sg.local.dst_len = n * out_dim;
    // Direct host streaming, no staging: the Coyote v2 path (§2.2).
    const bool ok = cthread_->InvokeSync(runtime::Oper::kLocalTransfer, sg);
    assert(ok);
    (void)ok;
    done += n;
    ++batches;
  }
  result.elapsed = dev_->engine().Now() - start;
  cthread_->ReadBuffer(dst, result.outputs.data(), result.outputs.size());
  result.samples_per_second =
      static_cast<double>(num_samples) / sim::ToSeconds(result.elapsed);
  result.batch_latency_us =
      sim::ToMicroseconds(result.elapsed) / static_cast<double>(batches);
  cthread_->FreeMem(src);
  cthread_->FreeMem(dst);
  return result;
}

PynqBaseline::PynqBaseline(runtime::SimDevice* dev, CompiledModel model, uint32_t vfpga_id)
    : dev_(dev), model_(std::move(model)), vfpga_id_(vfpga_id) {
  cthread_ = std::make_unique<runtime::CThread>(dev_, vfpga_id_);
  dev_->RegisterKernelFactory("nn_inference", [spec = model_.spec]() {
    return std::make_unique<services::NnKernel>(spec);
  });
}

runtime::SimDevice::ReconfigResult PynqBaseline::ProgramFpga() {
  return Program(dev_, model_, vfpga_id_, &programmed_);
}

InferenceResult PynqBaseline::Predict(const std::vector<int8_t>& inputs, size_t num_samples,
                                      size_t batch_size) {
  assert(programmed_);
  const uint32_t in_dim = model_.spec.input_dim();
  const uint32_t out_dim = model_.spec.output_dim();

  InferenceResult result;
  result.outputs.resize(num_samples * out_dim);

  const uint64_t src = cthread_->GetMem({runtime::Alloc::kHpf, num_samples * in_dim});
  const uint64_t dst = cthread_->GetMem({runtime::Alloc::kHpf, num_samples * out_dim});
  cthread_->WriteBuffer(src, inputs.data(), num_samples * in_dim);

  const sim::TimePs start = dev_->engine().Now();
  // Python-side call overhead (PYNQ runtime entry, numpy marshalling).
  dev_->engine().RunUntil(dev_->engine().Now() + overheads_.per_call);

  size_t done = 0;
  uint64_t batches = 0;
  while (done < num_samples) {
    const size_t n = std::min(batch_size, num_samples - done);
    // Per-batch Python buffer handling.
    dev_->engine().RunUntil(dev_->engine().Now() + overheads_.per_batch);

    runtime::SgEntry stage;
    stage.local.src_addr = src + done * in_dim;
    stage.local.src_len = n * in_dim;

    // (1) Stage the batch into card memory.
    cthread_->InvokeSync(runtime::Oper::kMigrateToCard, stage);
    // (2) Run the kernel out of HBM (and back into HBM). The destination
    //     pages fault to the card on first write.
    runtime::SgEntry sg;
    sg.local.src_addr = src + done * in_dim;
    sg.local.src_len = n * in_dim;
    sg.local.src_target = mmu::MemKind::kCard;
    sg.local.dst_addr = dst + done * out_dim;
    sg.local.dst_len = n * out_dim;
    sg.local.dst_target = mmu::MemKind::kCard;
    const bool ok = cthread_->InvokeSync(runtime::Oper::kLocalTransfer, sg);
    assert(ok);
    (void)ok;
    // (3) Sync the results back to the host.
    runtime::SgEntry back;
    back.local.src_addr = dst + done * out_dim;
    back.local.src_len = n * out_dim;
    cthread_->InvokeSync(runtime::Oper::kMigrateToHost, back);

    done += n;
    ++batches;
  }
  result.elapsed = dev_->engine().Now() - start;
  cthread_->ReadBuffer(dst, result.outputs.data(), result.outputs.size());
  result.samples_per_second =
      static_cast<double>(num_samples) / sim::ToSeconds(result.elapsed);
  result.batch_latency_us =
      sim::ToMicroseconds(result.elapsed) / static_cast<double>(batches);
  cthread_->FreeMem(src);
  cthread_->FreeMem(dst);
  return result;
}

}  // namespace hlscompat
}  // namespace coyote
