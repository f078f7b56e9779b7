// Tests for DTW / FastDTW and the warp-path post-processing (Eq. 5, 15).
#include <gtest/gtest.h>

#include <cmath>

#include "core/dtw.hpp"
#include "signal/rng.hpp"

namespace nsync::core {
namespace {

using nsync::signal::Rng;
using nsync::signal::Signal;

Signal from_values(const std::vector<double>& v) {
  return Signal::from_frames(v, 1, 100.0);
}

Signal smooth_noise(std::size_t frames, std::size_t channels,
                    std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, channels, 100.0);
  std::vector<double> lp(channels, 0.0);
  for (std::size_t n = 0; n < frames; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      lp[c] += 0.4 * (rng.normal() - lp[c]);
      s(n, c) = lp[c];
    }
  }
  return s;
}

void check_path_validity(const WarpPath& path, std::size_t na,
                         std::size_t nb) {
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front().i, 0u);
  EXPECT_EQ(path.front().j, 0u);
  EXPECT_EQ(path.back().i, na - 1);
  EXPECT_EQ(path.back().j, nb - 1);
  for (std::size_t k = 1; k < path.size(); ++k) {
    const std::size_t di = path[k].i - path[k - 1].i;
    const std::size_t dj = path[k].j - path[k - 1].j;
    EXPECT_LE(di, 1u);
    EXPECT_LE(dj, 1u);
    EXPECT_TRUE(di + dj >= 1) << "path must advance";
  }
}

TEST(Dtw, IdenticalSequencesFollowDiagonal) {
  const Signal a = smooth_noise(32, 1, 1);
  const DtwResult r = dtw(a, a, DistanceMetric::kEuclidean);
  check_path_validity(r.path, 32, 32);
  EXPECT_NEAR(r.cost, 0.0, 1e-9);
  for (const auto& p : r.path) {
    EXPECT_EQ(p.i, p.j);
  }
}

TEST(Dtw, AlignsShiftedSequence) {
  // b is a delayed by two steps (with edge padding); the path must stay
  // near the j = i + 2 diagonal in the middle.
  const Signal a = from_values({0, 0, 1, 5, 9, 5, 1, 0, 0, 0, 0, 0});
  const Signal b = from_values({0, 0, 0, 0, 1, 5, 9, 5, 1, 0, 0, 0});
  const DtwResult r = dtw(a, b, DistanceMetric::kEuclidean);
  check_path_validity(r.path, a.frames(), b.frames());
  // The peak (a[4] = 9) must match the peak (b[6] = 9).
  bool peak_matched = false;
  for (const auto& p : r.path) {
    if (p.i == 4 && p.j == 6) peak_matched = true;
  }
  EXPECT_TRUE(peak_matched);
  EXPECT_NEAR(r.cost, 0.0, 1e-9);  // perfect warp exists
}

TEST(Dtw, CostIsSymmetricForSymmetricMetric) {
  const Signal a = smooth_noise(20, 2, 2);
  const Signal b = smooth_noise(24, 2, 3);
  const DtwResult ab = dtw(a, b, DistanceMetric::kEuclidean);
  const DtwResult ba = dtw(b, a, DistanceMetric::kEuclidean);
  EXPECT_NEAR(ab.cost, ba.cost, 1e-9);
}

TEST(Dtw, RejectsBadInput) {
  Signal empty;
  const Signal a = smooth_noise(5, 1, 4);
  EXPECT_THROW(dtw(empty, a, DistanceMetric::kEuclidean),
               std::invalid_argument);
  const Signal c2 = smooth_noise(5, 2, 5);
  EXPECT_THROW(dtw(a, c2, DistanceMetric::kEuclidean), std::invalid_argument);
}

TEST(DtwWindowed, BandMustCoverEndpoints) {
  const Signal a = smooth_noise(8, 1, 6);
  const Signal b = smooth_noise(8, 1, 7);
  DtwWindow w(8, {1, 8});  // (0, 0) excluded
  EXPECT_THROW(dtw_windowed(a, b, DistanceMetric::kEuclidean, w),
               std::invalid_argument);
  DtwWindow bad_rows(5, {0, 8});
  EXPECT_THROW(dtw_windowed(a, b, DistanceMetric::kEuclidean, bad_rows),
               std::invalid_argument);
}

TEST(DtwWindowed, FullBandEqualsExactDtw) {
  const Signal a = smooth_noise(24, 2, 8);
  const Signal b = smooth_noise(30, 2, 9);
  const DtwWindow w(24, {0, 30});
  const DtwResult exact = dtw(a, b, DistanceMetric::kCorrelation);
  const DtwResult banded = dtw_windowed(a, b, DistanceMetric::kCorrelation, w);
  EXPECT_NEAR(exact.cost, banded.cost, 1e-9);
}

TEST(HalfResolution, AveragesPairs) {
  const Signal s = from_values({1.0, 3.0, 5.0, 7.0, 9.0});
  const Signal h = half_resolution(s);
  ASSERT_EQ(h.frames(), 3u);
  EXPECT_DOUBLE_EQ(h(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(h(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(h(2, 0), 9.0);  // odd tail repeats the last sample
  EXPECT_DOUBLE_EQ(h.sample_rate(), 50.0);
}

class FastDtwAccuracy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FastDtwAccuracy, CostWithinFactorOfExact) {
  const std::size_t radius = GetParam();
  const Signal a = smooth_noise(120, 2, 10);
  const Signal b = smooth_noise(132, 2, 11);
  const DtwResult exact = dtw(a, b, DistanceMetric::kEuclidean);
  const DtwResult fast = fast_dtw(a, b, radius, DistanceMetric::kEuclidean);
  check_path_validity(fast.path, a.frames(), b.frames());
  EXPECT_GE(fast.cost, exact.cost - 1e-9);  // exact is the lower bound
  EXPECT_LE(fast.cost, exact.cost * 1.35 + 1e-9)
      << "radius " << radius << " strayed too far from the optimum";
}

INSTANTIATE_TEST_SUITE_P(Radii, FastDtwAccuracy, ::testing::Values(1, 2, 4));

TEST(FastDtw, LargerRadiusNeverWorse) {
  const Signal a = smooth_noise(150, 1, 12);
  const Signal b = smooth_noise(160, 1, 13);
  const double c1 = fast_dtw(a, b, 1, DistanceMetric::kEuclidean).cost;
  const double c4 = fast_dtw(a, b, 4, DistanceMetric::kEuclidean).cost;
  EXPECT_LE(c4, c1 + 1e-9);
  EXPECT_THROW(fast_dtw(a, b, 0, DistanceMetric::kEuclidean),
               std::invalid_argument);
}

TEST(FastDtw, SmallInputsFallBackToExact) {
  const Signal a = smooth_noise(4, 1, 14);
  const Signal b = smooth_noise(4, 1, 15);
  const DtwResult fast = fast_dtw(a, b, 2, DistanceMetric::kEuclidean);
  const DtwResult exact = dtw(a, b, DistanceMetric::kEuclidean);
  EXPECT_NEAR(fast.cost, exact.cost, 1e-12);
}

TEST(HDispFromPath, AveragesMultipleMatches) {
  // Tuples (0,0), (1,1), (1,2), (1,3), (2,4): h_disp[1] = mean(0,1,2) = 1.
  const WarpPath path = {{0, 0}, {1, 1}, {1, 2}, {1, 3}, {2, 4}};
  const auto h = h_disp_from_path(path, 3);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_DOUBLE_EQ(h[0], 0.0);
  EXPECT_DOUBLE_EQ(h[1], 1.0);
  EXPECT_DOUBLE_EQ(h[2], 2.0);
}

TEST(HDispFromPath, CarriesForwardSkippedIndexes) {
  const WarpPath path = {{0, 0}, {2, 3}};  // index 1 never matched
  const auto h = h_disp_from_path(path, 3);
  EXPECT_DOUBLE_EQ(h[1], 0.0);  // carried from index 0
  EXPECT_DOUBLE_EQ(h[2], 1.0);
}

TEST(VDistFromPath, AveragesDistances) {
  const Signal a = from_values({0.0, 10.0});
  const Signal b = from_values({0.0, 4.0, 8.0});
  const WarpPath path = {{0, 0}, {1, 1}, {1, 2}};
  const auto v = v_dist_from_path(a, b, path, DistanceMetric::kMae);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], (6.0 + 2.0) / 2.0);
}

}  // namespace
}  // namespace nsync::core
