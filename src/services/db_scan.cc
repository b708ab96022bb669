#include "src/services/db_scan.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/sim/clock.h"

namespace coyote {
namespace services {

void DbScanKernel::Attach(vfpga::Vfpga* region) {
  region_ = region;
  pipe_free_cycle_ = 0;
  Reset();
  region->host_in(0).set_on_data([this]() { Pump(); });
  Pump();
}

void DbScanKernel::Detach() {
  if (region_ != nullptr) {
    region_->host_in(0).set_on_data(nullptr);
    region_ = nullptr;
  }
}

void DbScanKernel::Reset() {
  guard_.Write();
  matched_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<int64_t>::max();
  max_ = std::numeric_limits<int64_t>::min();
  residual_.clear();
}

void DbScanKernel::Pump() {
  guard_.Write();
  auto& in = region_->host_in(0);
  const sim::Clock& clk = sim::kSystemClock;
  const int64_t min_key = static_cast<int64_t>(region_->csr().Peek(kScanCsrMinKey));
  const int64_t max_key = static_cast<int64_t>(region_->csr().Peek(kScanCsrMaxKey));

  while (!in.Empty()) {
    auto pkt = in.Pop();
    residual_.insert(residual_.end(), pkt->data.begin(), pkt->data.end());

    size_t off = 0;
    while (residual_.size() - off >= sizeof(DbRecord)) {
      DbRecord rec;
      std::memcpy(&rec, &residual_[off], sizeof(rec));
      off += sizeof(rec);
      if (rec.key >= min_key && rec.key <= max_key) {
        ++matched_;
        sum_ += rec.value;
        min_ = std::min(min_, rec.value);
        max_ = std::max(max_, rec.value);
      }
    }
    residual_.erase(residual_.begin(), residual_.begin() + static_cast<ptrdiff_t>(off));

    // Line-rate: one 512-bit beat (4 records) per cycle.
    const uint64_t now_cycle = clk.PsToCycles(region_->engine()->Now());
    const uint64_t start = std::max(now_cycle, pipe_free_cycle_);
    pipe_free_cycle_ = start + (pkt->data.size() + 63) / 64;

    region_->csr().Poke(kScanCsrCount, matched_);
    region_->csr().Poke(kScanCsrSum, static_cast<uint64_t>(sum_));
    region_->csr().Poke(kScanCsrMin, static_cast<uint64_t>(min_));
    region_->csr().Poke(kScanCsrMax, static_cast<uint64_t>(max_));

    if (pkt->last) {
      axi::StreamPacket out;
      out.data.resize(16);
      std::memcpy(out.data.data(), &matched_, 8);
      std::memcpy(out.data.data() + 8, &sum_, 8);
      out.tid = pkt->tid;
      out.last = true;
      vfpga::Vfpga* r = region_;
      const sim::TimePs when = clk.CyclesToPs(pipe_free_cycle_ + 6);
      region_->engine()->ScheduleAt(when, [r, out = std::move(out)]() mutable {
        r->host_out(0).Push(std::move(out));
      });
      // Ready for the next query (aggregation state is per scan).
      Reset();
    }
  }
}

}  // namespace services
}  // namespace coyote
