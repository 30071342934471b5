// Unit tests for the log2-bucketed histogram behind the hist.* metrics
// (docs/observability.md): bucket geometry, percentile bounds, and the
// snapshot subtraction that isolates a region's own samples.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "itoyori/common/histogram.hpp"
#include "itoyori/common/rng.hpp"

namespace {

using ityr::common::log_histogram;

TEST(Histogram, BucketGeometryAndEdgeCases) {
  log_histogram h(8, 1.0);
  ASSERT_EQ(h.n_buckets(), 8u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 4.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(3), 8.0);

  h.record(0.5);     // below the floor -> bucket 0
  h.record(1.0);     // == min_value: intervals are lo-open, so bucket 0
  h.record(1.5);     // (1, 2]  -> bucket 1
  h.record(2.0);     // exact power of two belongs to the lower bucket
  h.record(2.0001);  // (2, 4]  -> bucket 2
  h.record(1.0e30);  // beyond the range -> clamped into the last bucket
  h.record(-3.0);    // negatives -> bucket 0 (never out of range)
  h.record(0.0);     // zero -> bucket 0

  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.bucket_count(0), 4u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(7), 1u);

  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < h.n_buckets(); i++) sum += h.bucket_count(i);
  EXPECT_EQ(sum, h.count());
}

TEST(Histogram, ConfigureClampsGeometry) {
  log_histogram lo(2, 1.0);
  EXPECT_EQ(lo.n_buckets(), 4u);  // floor of the clamped range
  log_histogram hi(100000, 1.0);
  EXPECT_EQ(hi.n_buckets(), 512u);  // ceiling
  log_histogram bad(16, -5.0);
  EXPECT_GT(bad.min_value(), 0.0);  // nonsense floors fall back to the default

  bad.record(1.0);
  EXPECT_EQ(bad.count(), 1u);
  bad.configure(16, 1.0);  // re-geometry drops counts
  EXPECT_EQ(bad.count(), 0u);
}

TEST(Histogram, PercentileStaysInsideSampleBucketAndIsMonotone) {
  // All samples equal: every percentile must land inside that value's bucket.
  log_histogram h(16, 1.0);
  for (int i = 0; i < 100; i++) h.record(3.7);  // bucket (2, 4]
  for (double p : {1.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_GT(h.percentile(p), 2.0) << "p" << p;
    EXPECT_LE(h.percentile(p), 4.0) << "p" << p;
  }

  // Random samples: percentiles are monotone non-decreasing in p and bounded
  // by the overall range of the histogram.
  log_histogram r(48, 1.0e-9);
  ityr::common::xoshiro256ss rng(7);
  for (int i = 0; i < 1000; i++) {
    r.record(1.0e-9 * std::exp2(rng.uniform() * 30.0));  // spread over 30 octaves
  }
  double prev = 0.0;
  for (double p = 0.0; p <= 100.0; p += 5.0) {
    const double v = r.percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    EXPECT_LE(v, r.bucket_hi(r.n_buckets() - 1));
    prev = v;
  }

  log_histogram empty(8, 1.0);
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
}

TEST(Histogram, SubtractRecoversRegionDelta) {
  log_histogram base(16, 1.0);
  base.record(1.5);
  base.record(3.0);

  log_histogram now = base;
  now.record(3.5);
  now.record(100.0);
  now.record(0.2);

  log_histogram d = now;
  d.subtract(base);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_EQ(d.bucket_count(0), 1u);  // 0.2
  EXPECT_EQ(d.bucket_count(2), 1u);  // 3.5 in (2, 4]
  EXPECT_EQ(d.bucket_count(7), 1u);  // 100 in (64, 128]

  // Subtracting a superset saturates at zero instead of wrapping.
  log_histogram z = base;
  z.subtract(now);
  EXPECT_EQ(z.count(), 0u);
  for (std::size_t i = 0; i < z.n_buckets(); i++) EXPECT_EQ(z.bucket_count(i), 0u);
}

}  // namespace
