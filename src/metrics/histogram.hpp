// Fixed-bucket log2-linear latency histogram (HDR-histogram style).
//
// The shard pipelines need a latency recorder cheap enough to sit on the
// data path: record() is a handful of ALU ops and one counter increment --
// no allocation, no sorting, no floating point.  Values are nanoseconds in
// a 64-bit range bucketed log2-linearly: 64 linear buckets per power-of-two
// octave, so any recorded value is off by at most 1/64 (~1.6%) of itself.
// That is plenty for p50/p99/p999 reporting while the whole histogram stays
// a flat ~30 KB array that merges across shards with one vector add.
//
// Exact count/sum/min/max ride along so mean() and max() are not subject
// to bucketing error; only the quantiles are approximate (quantile()
// returns the upper bound of the target bucket, so tail estimates err
// conservatively high, never low).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace espice {

class LatencyHistogram {
 public:
  /// Sub-bucket resolution: 2^6 = 64 linear buckets per octave.
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSubCount = std::uint64_t{1} << kSubBits;
  /// Enough groups to cover the full 64-bit value range.
  static constexpr std::size_t kBuckets =
      (64 - kSubBits + 1) * static_cast<std::size_t>(kSubCount);

  void record(std::uint64_t value_ns) {
    ++counts_[bucket_index(value_ns)];
    ++count_;
    sum_ += value_ns;
    if (value_ns > max_) max_ = value_ns;
    if (value_ns < min_) min_ = value_ns;
  }

  void merge(const LatencyHistogram& other) {
    if (other.count_ == 0) return;
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
    if (other.min_ < min_) min_ = other.min_;
  }

  void reset() { *this = LatencyHistogram{}; }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  double mean() const {
    return count_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile q in [0, 1]: the upper bound of the bucket holding
  /// the ceil(q * count)-th smallest sample (nearest-rank), clamped to the
  /// exact observed min/max.  0 when empty.
  std::uint64_t quantile(double q) const {
    if (count_ == 0) return 0;
    if (q <= 0.0) return min_;
    if (q >= 1.0) return max_;
    // Nearest-rank: smallest rank r with r >= q * count, at least 1.
    const double target = q * static_cast<double>(count_);
    std::uint64_t rank = static_cast<std::uint64_t>(target);
    if (static_cast<double>(rank) < target) ++rank;
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        const std::uint64_t hi = bucket_upper_bound(i);
        return hi > max_ ? max_ : (hi < min_ ? min_ : hi);
      }
    }
    return max_;  // unreachable: counts_ sums to count_
  }

  /// Bucket of `value_ns`: identity for values below 2^kSubBits, then 64
  /// linear sub-buckets per octave keyed off the MSB position.
  static constexpr std::size_t bucket_index(std::uint64_t value_ns) {
    if (value_ns < kSubCount) return static_cast<std::size_t>(value_ns);
    const unsigned msb =
        63u - static_cast<unsigned>(std::countl_zero(value_ns));
    const unsigned shift = msb - kSubBits;
    const auto group = static_cast<std::size_t>(shift + 1);
    const auto sub =
        static_cast<std::size_t>((value_ns >> shift) & (kSubCount - 1));
    return (group << kSubBits) + sub;
  }

  /// Largest value mapping to bucket `index` (inverse of bucket_index).
  static constexpr std::uint64_t bucket_upper_bound(std::size_t index) {
    const std::size_t group = index >> kSubBits;
    const std::uint64_t sub = index & (kSubCount - 1);
    if (group == 0) return sub;
    const unsigned shift = static_cast<unsigned>(group - 1);
    const std::uint64_t lo = (kSubCount + sub) << shift;
    return lo + ((std::uint64_t{1} << shift) - 1);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
};

}  // namespace espice
