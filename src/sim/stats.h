// Lightweight statistics helpers shared by tests and the benchmark harness.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/hash.h"
#include "src/sim/time.h"

namespace coyote {
namespace sim {

// Fixed set of samples with percentile queries; used for latency reporting.
class Samples {
 public:
  void Add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }

  uint64_t count() const { return values_.size(); }

  double Percentile(double p) {
    if (values_.empty()) {
      return 0.0;
    }
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values_[lo] * (1.0 - frac) + values_[hi] * frac;
  }

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

// Log2-bucketed histogram for integer-valued gauges sampled at high rate
// (queue depths, batch sizes, latencies in time units). Bucket b counts
// samples in [2^(b-1), 2^b); bucket 0 counts zeros. Exact percentiles come
// from sim::Samples; this trades resolution for O(1) memory so the serving
// tier can sample every admission without distorting the run.
class Histogram {
 public:
  void Add(uint64_t v) {
    ++count_;
    sum_ += v;
    max_ = std::max(max_, v);
    ++buckets_[BucketOf(v)];
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0; }
  uint64_t bucket(size_t b) const { return b < kBuckets ? buckets_[b] : 0; }

  // Upper bound of the bucket holding the p-th percentile sample (0 when
  // empty). Deterministic: pure integer arithmetic over the counts.
  uint64_t PercentileBound(double p) const {
    if (count_ == 0) {
      return 0;
    }
    const uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_ - 1));
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += buckets_[b];
      if (seen > rank) {
        return b == 0 ? 0 : (1ull << b) - 1;
      }
    }
    return max_;
  }

  // FNV-1a over (count, sum, max, buckets): two deterministic runs that fed
  // the same samples produce equal fingerprints.
  uint64_t Fingerprint() const {
    uint64_t h = kFnvOffset;
    FnvFoldU64(&h, count_);
    FnvFoldU64(&h, sum_);
    FnvFoldU64(&h, max_);
    for (uint64_t b : buckets_) {
      FnvFoldU64(&h, b);
    }
    return h;
  }

  bool operator==(const Histogram&) const = default;

 private:
  static constexpr size_t kBuckets = 64;

  static size_t BucketOf(uint64_t v) {
    size_t b = 0;
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return b < kBuckets ? b : kBuckets - 1;
  }

  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  uint64_t buckets_[kBuckets] = {};
};

// Named monotonic counters with deterministic (sorted) iteration order: the
// one way a component accounts an event. Increment counts a name; Record also
// folds (name, fields..., t) into an ordered event hash, so two runs whose
// recorded events differ in order, in any field or in time fingerprint
// differently. Lookups of an existing name build no std::string.
class CounterSet {
 public:
  void Increment(std::string_view name, uint64_t n = 1) {
    auto it = counters_.lower_bound(name);
    if (it != counters_.end() && it->first == name) {
      it->second += n;
    } else {
      counters_.emplace_hint(it, std::string(name), n);
    }
  }

  // Counts `what` and folds its bytes, each field and `t` (eight
  // little-endian bytes apiece) into the event hash.
  void Record(std::string_view what, std::initializer_list<uint64_t> fields, TimePs t) {
    Increment(what);
    FnvFold(&events_, what.data(), what.size());
    for (const uint64_t f : fields) {
      FnvFoldU64(&events_, f);
    }
    FnvFoldU64(&events_, t);
  }

  uint64_t value(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  uint64_t total() const {
    uint64_t sum = 0;
    for (const auto& [name, v] : counters_) {
      sum += v;
    }
    return sum;
  }

  // FNV-1a: starts from the event hash, then folds (name, value) pairs in
  // name order. A set that was only Incremented starts from the FNV basis.
  uint64_t Fingerprint() const {
    uint64_t h = events_;
    for (const auto& [name, v] : counters_) {
      FnvFold(&h, name.data(), name.size());
      FnvFold(&h, &v, sizeof(v));
    }
    return h;
  }

  bool operator==(const CounterSet&) const = default;

 private:
  std::map<std::string, uint64_t, std::less<>> counters_;
  uint64_t events_ = kFnvOffset;
};

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_STATS_H_
