// Compression codecs + kernels.
//
// Requirement 1 of the paper names compression cores among the reusable
// services and "changing the compression algorithm" as a canonical service
// reconfiguration. Two real codecs are provided so that swap actually
// changes behaviour:
//
//   * RLE  — byte run-length encoding; tiny, fast, great on runs.
//   * LZ   — LZ77 with a hash-chain match finder and LZ4-style tokens
//            (literal runs + (offset, length) matches); general purpose.
//
// Both are lossless and verified by round-trip property tests. The kernels
// process stream packets independently (each packet is a self-contained
// compressed frame with a 4-byte original-size header), so they compose
// with the packetized data path.

#ifndef SRC_SERVICES_COMPRESSION_H_
#define SRC_SERVICES_COMPRESSION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/fabric/resources.h"
#include "src/services/stream_kernel.h"

namespace coyote {
namespace services {

enum class Codec : uint8_t {
  kRle,
  kLz,
};

std::string_view CodecName(Codec codec);

// --- Raw codecs ---------------------------------------------------------------
std::vector<uint8_t> RleCompress(const std::vector<uint8_t>& input);
std::optional<std::vector<uint8_t>> RleDecompress(const std::vector<uint8_t>& input);

std::vector<uint8_t> LzCompress(const std::vector<uint8_t>& input);
std::optional<std::vector<uint8_t>> LzDecompress(const std::vector<uint8_t>& input);

std::vector<uint8_t> Compress(Codec codec, const std::vector<uint8_t>& input);
std::optional<std::vector<uint8_t>> Decompress(Codec codec, const std::vector<uint8_t>& input);

// --- Framed packet format (kernel I/O) -----------------------------------------
// [0..3] original size (LE) | [4] codec id | [5..] codec payload.
std::vector<uint8_t> CompressFramed(Codec codec, const std::vector<uint8_t>& input);
std::optional<std::vector<uint8_t>> DecompressFramed(const std::vector<uint8_t>& frame);

// --- Kernels --------------------------------------------------------------------
class CompressKernel : public StreamKernel {
 public:
  explicit CompressKernel(Codec codec)
      : StreamKernel({.bytes_per_cycle = 32, .pipeline_depth = 16}), codec_(codec) {}

  std::string_view name() const override {
    return codec_ == Codec::kRle ? "compress_rle" : "compress_lz";
  }
  fabric::ResourceVector resources() const override {
    // LZ needs the hash-chain window in BRAM; RLE is a counter.
    return codec_ == Codec::kRle ? fabric::ResourceVector{2'000, 3'200, 4, 0, 0}
                                 : fabric::ResourceVector{9'500, 14'000, 48, 0, 0};
  }

 protected:
  axi::BufferView Process(const axi::StreamPacket& in, uint32_t) override {
    ++frames_;
    return CompressFramed(codec_, in.data.ToVector());
  }

 private:
  Codec codec_;
  uint64_t frames_ = 0;
};

class DecompressKernel : public StreamKernel {
 public:
  DecompressKernel() : StreamKernel({.bytes_per_cycle = 32, .pipeline_depth = 16}) {}

  std::string_view name() const override { return "decompress"; }
  fabric::ResourceVector resources() const override {
    return fabric::ResourceVector{7'800, 11'500, 40, 0, 0};
  }
  uint64_t corrupt_frames() const { return corrupt_frames_; }

 protected:
  axi::BufferView Process(const axi::StreamPacket& in, uint32_t) override {
    auto out = DecompressFramed(in.data.ToVector());
    if (!out) {
      ++corrupt_frames_;
      return {};  // swallow corrupt frames; real HW would raise an interrupt
    }
    return std::move(*out);
  }

 private:
  uint64_t corrupt_frames_ = 0;
};

}  // namespace services
}  // namespace coyote

#endif  // SRC_SERVICES_COMPRESSION_H_
