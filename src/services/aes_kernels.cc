#include "src/services/aes_kernels.h"

#include <algorithm>

namespace coyote {
namespace services {

axi::BufferView AesEcbKernel::Process(const axi::StreamPacket& in, uint32_t stream_index) {
  (void)stream_index;
  const uint64_t key_lo = region()->csr().Peek(kAesCsrKeyLo);
  const uint64_t key_hi = region()->csr().Peek(kAesCsrKeyHi);
  Aes128 cipher(key_lo, key_hi);

  std::vector<uint8_t> out(in.data.size());
  const uint8_t* src = in.data.data();
  size_t i = 0;
  for (; i + Aes128::kBlockBytes <= in.data.size(); i += Aes128::kBlockBytes) {
    if (direction_ == Direction::kEncrypt) {
      cipher.EncryptBlock(src + i, &out[i]);
    } else {
      cipher.DecryptBlock(src + i, &out[i]);
    }
  }
  // Trailing partial block (non-multiple-of-16 transfers) passes through
  // unencrypted, as the hardware would simply forward unaligned residue.
  for (; i < in.data.size(); ++i) {
    out[i] = in.data[i];
  }
  return out;
}

void AesCbcKernel::Attach(vfpga::Vfpga* region) {
  region_ = region;
  guard_.Write();
  lanes_.assign(region->config().num_host_streams, LaneState{});
  occupied_input_cycles_.clear();
  for (uint32_t i = 0; i < region->config().num_host_streams; ++i) {
    region->host_in(i).set_on_data([this, i]() { Pump(i); });
    Pump(i);
  }
}

void AesCbcKernel::Detach() {
  if (region_ != nullptr) {
    for (uint32_t i = 0; i < region_->config().num_host_streams; ++i) {
      region_->host_in(i).set_on_data(nullptr);
    }
    region_ = nullptr;
  }
}

const Aes128& AesCbcKernel::Cipher() {
  const uint64_t key_lo = region_->csr().Peek(kAesCsrKeyLo);
  const uint64_t key_hi = region_->csr().Peek(kAesCsrKeyHi);
  if (!cipher_ || key_lo != cached_key_lo_ || key_hi != cached_key_hi_) {
    cipher_ = std::make_unique<Aes128>(key_lo, key_hi);
    cached_key_lo_ = key_lo;
    cached_key_hi_ = key_hi;
  }
  return *cipher_;
}

uint64_t AesCbcKernel::ClaimInputSlot(uint64_t desired) {
  guard_.Write();
  // Prune slots in the past; they can never conflict again.
  const uint64_t now_cycle = sim::kSystemClock.PsToCycles(region_->engine()->Now());
  occupied_input_cycles_.erase(occupied_input_cycles_.begin(),
                               occupied_input_cycles_.lower_bound(now_cycle));
  uint64_t c = desired;
  while (occupied_input_cycles_.count(c) != 0) {
    ++c;
  }
  occupied_input_cycles_.insert(c);
  return c;
}

void AesCbcKernel::Pump(uint32_t stream_index) {
  LaneState& lane = lanes_[stream_index];
  auto& in = region_->host_in(stream_index);
  const sim::Clock& clk = sim::kSystemClock;

  for (;;) {
    if (!lane.current) {
      auto pkt = in.Pop();
      if (!pkt) {
        return;
      }
      lane.current = std::move(pkt);
      lane.block_offset = 0;
      lane.out.assign(lane.current->data.size(), 0);
      if (!lane.chain_loaded) {
        const uint64_t iv_lo = region_->csr().Peek(kAesCsrIvLo);
        const uint64_t iv_hi = region_->csr().Peek(kAesCsrIvHi);
        for (int b = 0; b < 8; ++b) {
          lane.chain[b] = static_cast<uint8_t>(iv_lo >> (8 * b));
          lane.chain[8 + b] = static_cast<uint8_t>(iv_hi >> (8 * b));
        }
        lane.chain_loaded = true;
      }
    }

    const Aes128& cipher = Cipher();
    const axi::BufferView& data = lane.current->data;
    const uint64_t now_cycle = clk.PsToCycles(region_->engine()->Now());
    uint64_t last_exit_cycle = now_cycle;

    while (lane.block_offset + Aes128::kBlockBytes <= data.size()) {
      // CBC recurrence: this lane's next block may enter only after the
      // previous one exits the 10-stage pipeline; the shared input port
      // admits one block per cycle across all lanes.
      const uint64_t desired = std::max(now_cycle, lane.next_entry_cycle);
      const uint64_t entry = ClaimInputSlot(desired);
      lane.next_entry_cycle = entry + kPipelineDepth + kLaneTurnaround;
      last_exit_cycle = entry + kPipelineDepth;

      uint8_t x[Aes128::kBlockBytes];
      for (size_t b = 0; b < Aes128::kBlockBytes; ++b) {
        x[b] = data[lane.block_offset + b] ^ lane.chain[b];
      }
      cipher.EncryptBlock(x, &lane.out[lane.block_offset]);
      std::copy_n(&lane.out[lane.block_offset], Aes128::kBlockBytes, lane.chain.begin());
      lane.block_offset += Aes128::kBlockBytes;
    }
    // Unaligned residue passes through.
    while (lane.block_offset < data.size()) {
      lane.out[lane.block_offset] = data[lane.block_offset];
      ++lane.block_offset;
    }

    axi::StreamPacket out;
    out.data = std::move(lane.out);
    out.tid = lane.current->tid;
    out.tdest = lane.current->tdest;
    out.last = lane.current->last;
    lane.current.reset();
    lane.out.clear();

    vfpga::Vfpga* r = region_;
    region_->engine()->ScheduleAt(clk.CyclesToPs(last_exit_cycle),
                                  [r, stream_index, out = std::move(out)]() mutable {
                                    r->host_out(stream_index).Push(std::move(out));
                                  });
  }
}

}  // namespace services
}  // namespace coyote
