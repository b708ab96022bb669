// Lightweight statistics helpers shared by tests and the benchmark harness.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/hash.h"

namespace coyote {
namespace sim {

// Online mean/stddev/min/max accumulator (Welford).
class Summary {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  // Bit-exact comparison: two deterministic runs that fed the same samples in
  // the same order produce equal Summaries (the chaos tests rely on this).
  bool operator==(const Summary&) const = default;

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

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

  double Mean() const {
    if (values_.empty()) {
      return 0.0;
    }
    double s = 0.0;
    for (double v : values_) {
      s += v;
    }
    return s / static_cast<double>(values_.size());
  }

  const std::vector<double>& values() const { return values_; }

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

// Named monotonic counters with deterministic (sorted) iteration order.
// Subsystems that inject or absorb faults account every event here, so a test
// can assert that two runs with the same seed saw the exact same fault
// schedule by comparing fingerprints.
class CounterSet {
 public:
  void Increment(std::string_view name, uint64_t n = 1) {
    counters_[std::string(name)] += n;
  }

  uint64_t value(std::string_view name) const {
    auto it = counters_.find(std::string(name));
    return it == counters_.end() ? 0 : it->second;
  }

  const std::map<std::string, uint64_t>& counters() const { return counters_; }

  uint64_t total() const {
    uint64_t sum = 0;
    for (const auto& [name, v] : counters_) {
      sum += v;
    }
    return sum;
  }

  // FNV-1a over (name, value) pairs in sorted order.
  uint64_t Fingerprint() const {
    uint64_t h = kFnvOffset;
    for (const auto& [name, v] : counters_) {
      FnvFold(&h, name.data(), name.size());
      FnvFold(&h, &v, sizeof(v));
    }
    return h;
  }

  bool operator==(const CounterSet&) const = default;

 private:
  std::map<std::string, uint64_t> counters_;
};

}  // namespace sim
}  // namespace coyote

#endif  // SRC_SIM_STATS_H_
