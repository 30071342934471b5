#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "itoyori/common/error.hpp"

namespace ityr::common {

/// Log2-bucketed histogram for latency/size distributions
/// (docs/observability.md). Bucket i >= 1 covers (min_value * 2^(i-1),
/// min_value * 2^i]; bucket 0 absorbs everything <= min_value and the last
/// bucket everything beyond the range. Counts are exact integers, so one
/// histogram that every rank records into is deterministic regardless of
/// the order in which ranks record.
///
/// Percentiles interpolate geometrically inside the target bucket (a log
/// bucket is "uniform in log space"), so estimates are off by at most one
/// bucket width (2x with the default geometry).
class log_histogram {
public:
  /// Every runtime histogram has 48 buckets: over a 1 ns floor they cover
  /// ~77 hours, comfortably past any simulated duration, and over a 1-byte
  /// floor any message size.
  static constexpr std::size_t kDefaultBuckets = 48;

  /// `n_buckets` is clamped to [4, 512].
  explicit log_histogram(std::size_t n_buckets = kDefaultBuckets, double min_value = 1.0e-9) {
    configure(n_buckets, min_value);
  }

  /// Re-geometry (drops all counts).
  void configure(std::size_t n_buckets, double min_value) {
    if (n_buckets < 4) n_buckets = 4;
    if (n_buckets > 512) n_buckets = 512;
    if (!(min_value > 0)) min_value = 1.0e-9;
    min_value_ = min_value;
    counts_.assign(n_buckets, 0);
    total_ = 0;
  }

  std::size_t n_buckets() const { return counts_.size(); }
  double min_value() const { return min_value_; }
  std::uint64_t count() const { return total_; }
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }
  const std::vector<std::uint64_t>& buckets() const { return counts_; }

  void record(double v) {
    counts_[bucket_of(v)]++;
    total_++;
  }

  /// Lower/upper edge of bucket i (bucket 0 is (0, min_value]).
  double bucket_lo(std::size_t i) const {
    return i == 0 ? 0.0 : min_value_ * std::ldexp(1.0, static_cast<int>(i) - 1);
  }
  double bucket_hi(std::size_t i) const {
    return min_value_ * std::ldexp(1.0, static_cast<int>(i));
  }

  /// Elementwise count subtract (for snapshot deltas; counts are monotone).
  void subtract(const log_histogram& o) {
    ITYR_CHECK(o.counts_.size() == counts_.size());
    for (std::size_t i = 0; i < counts_.size(); i++) {
      counts_[i] = counts_[i] >= o.counts_[i] ? counts_[i] - o.counts_[i] : 0;
    }
    total_ = total_ >= o.total_ ? total_ - o.total_ : 0;
  }

  /// p in [0, 100]. Returns 0 for an empty histogram. Deterministic: depends
  /// only on the (integer) counts and the geometry.
  double percentile(double p) const {
    if (total_ == 0) return 0.0;
    if (p < 0) p = 0;
    if (p > 100) p = 100;
    // Rank of the target sample, 1-based, ceil like classic nearest-rank.
    const double target = p / 100.0 * static_cast<double>(total_);
    std::uint64_t need = static_cast<std::uint64_t>(std::ceil(target));
    if (need == 0) need = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); i++) {
      if (counts_[i] == 0) continue;
      if (seen + counts_[i] >= need) {
        // Geometric interpolation within the bucket: fraction f of the
        // bucket's samples below the target maps to lo * 2^f.
        const double f = static_cast<double>(need - seen) / static_cast<double>(counts_[i]);
        if (i == 0) return min_value_ * f;  // degenerate linear floor bucket
        return bucket_lo(i) * std::exp2(f);
      }
      seen += counts_[i];
    }
    return bucket_hi(counts_.size() - 1);
  }

private:
  std::size_t bucket_of(double v) const {
    if (!(v > min_value_)) return 0;  // also catches NaN/negatives
    // frexp(x) = m * 2^e with m in [0.5, 1): values in (2^(e-1), 2^e] of
    // min_value land in bucket e — one exact integer exponent read, no log().
    int e = 0;
    const double m = std::frexp(v / min_value_, &e);
    // Exact powers of two belong to the lower bucket (interval is lo-open).
    if (m == 0.5) e--;
    if (e < 1) return 1;
    const auto i = static_cast<std::size_t>(e);
    return i < counts_.size() ? i : counts_.size() - 1;
  }

  double min_value_ = 1.0e-9;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace ityr::common
