// Database scan/aggregation offload kernel.
//
// The paper's introduction motivates FPGAs with database offloading ([16],
// Farview [33]: disaggregated memory with operator push-down). This kernel
// is that style of operator: it streams fixed-width records, applies a
// predicate on the key column and aggregates the value column — returning
// only the aggregate instead of the table (the bandwidth-saving argument for
// near-data processing).
//
// Record layout (16 bytes): int64 key | int64 value.
//
// CSR map:
//   0 (W) predicate: minimum key (inclusive)
//   1 (W) predicate: maximum key (inclusive)
//   8 (R) matching-row count
//   9 (R) sum of matching values
//  10 (R) min of matching values (int64, INT64_MAX when none)
//  11 (R) max of matching values (int64, INT64_MIN when none)
//
// The 16-byte result packet emitted at end-of-stream carries {count, sum}.

#ifndef SRC_SERVICES_DB_SCAN_H_
#define SRC_SERVICES_DB_SCAN_H_

#include <cstdint>
#include <vector>

#include "src/fabric/resources.h"
#include "src/sim/access_guard.h"
#include "src/vfpga/kernel.h"
#include "src/vfpga/vfpga.h"

namespace coyote {
namespace services {

inline constexpr uint32_t kScanCsrMinKey = 0;
inline constexpr uint32_t kScanCsrMaxKey = 1;
inline constexpr uint32_t kScanCsrCount = 8;
inline constexpr uint32_t kScanCsrSum = 9;
inline constexpr uint32_t kScanCsrMin = 10;
inline constexpr uint32_t kScanCsrMax = 11;

struct DbRecord {
  int64_t key = 0;
  int64_t value = 0;
};
static_assert(sizeof(DbRecord) == 16);

class DbScanKernel : public vfpga::HwKernel {
 public:
  std::string_view name() const override { return "db_scan"; }
  fabric::ResourceVector resources() const override {
    // Comparators + aggregation adders across a 512-bit record lane.
    return fabric::ResourceVector{6'800, 10'500, 12, 0, 16};
  }

  void Attach(vfpga::Vfpga* region) override;
  void Detach() override;

 private:
  void Pump();
  void Reset();

  vfpga::Vfpga* region_ = nullptr;
  uint64_t pipe_free_cycle_ = 0;
  uint64_t matched_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  // Partial record split across packet boundaries.
  sim::AccessGuard guard_{"svc.db_scan"};
  std::vector<uint8_t> residual_;
};

}  // namespace services
}  // namespace coyote

#endif  // SRC_SERVICES_DB_SCAN_H_
