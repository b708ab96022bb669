#include "src/services/nn.h"

#include <algorithm>
#include <cstring>

#include "src/sim/clock.h"
#include "src/sim/rng.h"

namespace coyote {
namespace services {

uint64_t MlpSpec::TotalMultiplies() const {
  uint64_t n = 0;
  for (const Conv1dLayer& l : conv_layers) {
    n += static_cast<uint64_t>(l.out_len()) * l.out_channels * l.in_channels * l.kernel_size;
  }
  for (const DenseLayer& l : layers) {
    n += static_cast<uint64_t>(l.in_dim) * l.out_dim;
  }
  return n;
}

uint64_t MlpSpec::LatencyCycles() const {
  // Each layer: log2-deep adder tree + activation + requant registering,
  // serialized across layers; reuse multiplies the per-layer schedule.
  uint64_t latency = 0;
  auto tree_depth = [](uint32_t fan_in) {
    uint64_t tree = 1;
    while (fan_in > 1) {
      fan_in = (fan_in + 1) / 2;
      ++tree;
    }
    return tree;
  };
  for (const Conv1dLayer& l : conv_layers) {
    // The line buffer adds kernel_size cycles of fill before the first tap.
    latency += tree_depth(l.in_channels * l.kernel_size) + l.kernel_size + 2 + reuse_factor;
  }
  for (const DenseLayer& l : layers) {
    latency += tree_depth(l.in_dim) + 2 + reuse_factor;
  }
  return latency;
}

fabric::ResourceVector MlpSpec::EstimateResources() const {
  const uint64_t mults = TotalMultiplies();
  const uint64_t dsp = (mults + reuse_factor - 1) / reuse_factor;
  uint64_t width_sum = 0;
  for (const Conv1dLayer& l : conv_layers) {
    width_sum += l.in_channels * l.kernel_size + l.out_channels;
  }
  for (const DenseLayer& l : layers) {
    width_sum += l.in_dim + l.out_dim;
  }
  return fabric::ResourceVector{
      .luts = 1200 + 28 * width_sum + 6 * dsp,
      .ffs = 2000 + 40 * width_sum + 8 * dsp,
      .bram36 = 4 + (TotalMultiplies() / 4096),  // weight storage
      .uram = 0,
      .dsp = dsp,
  };
}

std::vector<int8_t> MlpForward(const MlpSpec& spec, const int8_t* input) {
  std::vector<int32_t> acc;
  std::vector<int8_t> act(input, input + spec.input_dim());

  // Convolutional front end (channel-last layout).
  for (const Conv1dLayer& l : spec.conv_layers) {
    const uint32_t out_len = l.out_len();
    std::vector<int8_t> next(static_cast<size_t>(out_len) * l.out_channels);
    for (uint32_t t = 0; t < out_len; ++t) {
      for (uint32_t oc = 0; oc < l.out_channels; ++oc) {
        int32_t a = l.bias[oc];
        for (uint32_t ic = 0; ic < l.in_channels; ++ic) {
          for (uint32_t dt = 0; dt < l.kernel_size; ++dt) {
            const int8_t w =
                l.weights[(static_cast<size_t>(oc) * l.in_channels + ic) * l.kernel_size + dt];
            const int8_t x = act[static_cast<size_t>(t + dt) * l.in_channels + ic];
            a += static_cast<int32_t>(w) * static_cast<int32_t>(x);
          }
        }
        int32_t v = a >> l.requant_shift;
        if (l.relu && v < 0) {
          v = 0;
        }
        next[static_cast<size_t>(t) * l.out_channels + oc] =
            static_cast<int8_t>(std::clamp(v, -128, 127));
      }
    }
    act = std::move(next);
  }

  for (const DenseLayer& l : spec.layers) {
    acc.assign(l.out_dim, 0);
    for (uint32_t j = 0; j < l.out_dim; ++j) {
      int32_t a = l.bias[j];
      const int8_t* w = &l.weights[static_cast<size_t>(j) * l.in_dim];
      for (uint32_t i = 0; i < l.in_dim; ++i) {
        a += static_cast<int32_t>(w[i]) * static_cast<int32_t>(act[i]);
      }
      acc[j] = a;
    }
    act.assign(l.out_dim, 0);
    for (uint32_t j = 0; j < l.out_dim; ++j) {
      int32_t v = acc[j] >> l.requant_shift;
      if (l.relu && v < 0) {
        v = 0;
      }
      act[j] = static_cast<int8_t>(std::clamp(v, -128, 127));
    }
  }
  return act;
}

MlpSpec MakeIntrusionDetectionMlp() {
  // Geometry after the line-rate intrusion-detection demo [55]: 49 input
  // flow features, three hidden layers, binary (attack / benign) output.
  MlpSpec spec;
  spec.name = "intrusion_detection";
  spec.reuse_factor = 4;
  const std::vector<std::pair<uint32_t, uint32_t>> dims = {
      {49, 64}, {64, 32}, {32, 16}, {16, 2}};
  sim::Rng rng2(0x1D5EED);  // deterministic weights; final layer emits logits

  for (size_t k = 0; k < dims.size(); ++k) {
    DenseLayer l;
    l.in_dim = dims[k].first;
    l.out_dim = dims[k].second;
    l.weights.resize(static_cast<size_t>(l.in_dim) * l.out_dim);
    l.bias.resize(l.out_dim);
    for (auto& w : l.weights) {
      w = static_cast<int8_t>(static_cast<int64_t>(rng2.NextBounded(31)) - 15);
    }
    for (auto& b : l.bias) {
      b = static_cast<int32_t>(rng2.NextBounded(65)) - 32;
    }
    l.requant_shift = 6;
    l.relu = (k + 1 != dims.size());
    spec.layers.push_back(std::move(l));
  }
  return spec;
}

MlpSpec MakeConv1dClassifier() {
  // 64 time steps x 2 channels -> conv(8ch,k5) -> conv(4ch,k3) -> dense(32)
  // -> dense(4 logits). Deterministic weights, as with the MLP.
  MlpSpec spec;
  spec.name = "conv1d_classifier";
  spec.reuse_factor = 8;
  sim::Rng rng(0xC04D);
  auto w8 = [&rng]() { return static_cast<int8_t>(static_cast<int64_t>(rng.NextBounded(15)) - 7); };
  auto b32 = [&rng]() { return static_cast<int32_t>(rng.NextBounded(33)) - 16; };

  Conv1dLayer c1;
  c1.in_len = 64;
  c1.in_channels = 2;
  c1.out_channels = 8;
  c1.kernel_size = 5;
  c1.weights.resize(static_cast<size_t>(c1.out_channels) * c1.in_channels * c1.kernel_size);
  c1.bias.resize(c1.out_channels);
  for (auto& w : c1.weights) {
    w = w8();
  }
  for (auto& b : c1.bias) {
    b = b32();
  }
  spec.conv_layers.push_back(std::move(c1));

  Conv1dLayer c2;
  c2.in_len = 60;  // 64 - 5 + 1
  c2.in_channels = 8;
  c2.out_channels = 4;
  c2.kernel_size = 3;
  c2.weights.resize(static_cast<size_t>(c2.out_channels) * c2.in_channels * c2.kernel_size);
  c2.bias.resize(c2.out_channels);
  for (auto& w : c2.weights) {
    w = w8();
  }
  for (auto& b : c2.bias) {
    b = b32();
  }
  spec.conv_layers.push_back(std::move(c2));

  const uint32_t flat = 58 * 4;  // (60 - 3 + 1) x 4 channels
  for (auto [in, out, relu] :
       {std::tuple<uint32_t, uint32_t, bool>{flat, 32, true}, {32u, 4u, false}}) {
    DenseLayer l;
    l.in_dim = in;
    l.out_dim = out;
    l.relu = relu;
    l.weights.resize(static_cast<size_t>(in) * out);
    l.bias.resize(out);
    for (auto& w : l.weights) {
      w = w8();
    }
    for (auto& b : l.bias) {
      b = b32();
    }
    spec.layers.push_back(std::move(l));
  }
  return spec;
}

void NnKernel::Attach(vfpga::Vfpga* region) {
  region_ = region;
  next_sample_entry_cycle_ = 0;
  const uint32_t nh = region->config().num_host_streams;
  const uint32_t nc = region->config().num_card_streams;
  guard_.Write();
  residual_.assign(nh + nc, {});
  for (uint32_t i = 0; i < nh; ++i) {
    region->host_in(i).set_on_data([this, i]() { Pump(i, false); });
    Pump(i, false);
  }
  for (uint32_t i = 0; i < nc; ++i) {
    region->card_in(i).set_on_data([this, i]() { Pump(i, true); });
    Pump(i, true);
  }
}

void NnKernel::Detach() {
  if (region_ != nullptr) {
    for (uint32_t i = 0; i < region_->config().num_host_streams; ++i) {
      region_->host_in(i).set_on_data(nullptr);
    }
    for (uint32_t i = 0; i < region_->config().num_card_streams; ++i) {
      region_->card_in(i).set_on_data(nullptr);
    }
    region_ = nullptr;
  }
}

void NnKernel::Pump(uint32_t stream_index, bool card) {
  auto& in = card ? region_->card_in(stream_index) : region_->host_in(stream_index);
  const uint32_t residual_index =
      card ? region_->config().num_host_streams + stream_index : stream_index;
  const sim::Clock& clk = sim::kSystemClock;
  const uint32_t in_dim = spec_.input_dim();
  const uint32_t out_dim = spec_.output_dim();

  while (!in.Empty()) {
    auto pkt = in.Pop();
    auto& residual = residual_[residual_index];
    residual.insert(residual.end(), pkt->data.begin(), pkt->data.end());

    std::vector<uint8_t> out_bytes;
    const uint64_t now_cycle = clk.PsToCycles(region_->engine()->Now());
    uint64_t last_exit = now_cycle;
    size_t off = 0;
    while (residual.size() - off >= in_dim) {
      const auto* sample = reinterpret_cast<const int8_t*>(&residual[off]);
      std::vector<int8_t> result = MlpForward(spec_, sample);
      out_bytes.insert(out_bytes.end(), reinterpret_cast<uint8_t*>(result.data()),
                       reinterpret_cast<uint8_t*>(result.data()) + out_dim);
      off += in_dim;

      const uint64_t entry = std::max(now_cycle, next_sample_entry_cycle_);
      next_sample_entry_cycle_ = entry + spec_.IiCycles();
      last_exit = entry + spec_.LatencyCycles();
    }
    residual.erase(residual.begin(), residual.begin() + static_cast<ptrdiff_t>(off));

    if (!out_bytes.empty()) {
      axi::StreamPacket out;
      out.data = std::move(out_bytes);
      out.tid = pkt->tid;
      out.last = pkt->last;
      vfpga::Vfpga* r = region_;
      region_->engine()->ScheduleAt(clk.CyclesToPs(last_exit),
                                    [r, stream_index, card, out = std::move(out)]() mutable {
                                      auto& dst = card ? r->card_out(stream_index)
                                                       : r->host_out(stream_index);
                                      dst.Push(std::move(out));
                                    });
    }
  }
}

}  // namespace services
}  // namespace coyote
