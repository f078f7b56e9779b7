// Unit and property tests for the 1-D filters used by the discriminator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "signal/filters.hpp"
#include "signal/rng.hpp"

namespace nsync::signal {
namespace {

TEST(MinFilter, KnownSequence) {
  const std::vector<double> v = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0};
  const auto f = min_filter(v, 3);
  const std::vector<double> expected = {3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0};
  ASSERT_EQ(f.size(), expected.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_DOUBLE_EQ(f[i], expected[i]) << "at " << i;
  }
}

TEST(MinFilter, WindowOneIsIdentity) {
  const std::vector<double> v = {5.0, 2.0, 8.0};
  const auto f = min_filter(v, 1);
  EXPECT_EQ(f, v);
}

TEST(MinFilter, SuppressesIsolatedSpike) {
  // The discriminator's use case (Eq. 21-22): an isolated spike shorter
  // than the window disappears from the filtered array.
  std::vector<double> v(20, 0.1);
  v[10] = 9.0;
  const auto f = min_filter(v, 3);
  for (double x : f) EXPECT_LE(x, 0.1 + 1e-12);
}

TEST(MinFilter, KeepsSustainedElevation) {
  std::vector<double> v(20, 0.1);
  for (std::size_t i = 10; i < 14; ++i) v[i] = 9.0;  // 4 >= window
  const auto f = min_filter(v, 3);
  EXPECT_DOUBLE_EQ(*std::max_element(f.begin(), f.end()), 9.0);
}

TEST(MinFilter, RejectsZeroWindow) {
  EXPECT_THROW(min_filter(std::vector<double>{1.0}, 0),
               std::invalid_argument);
}

// Property: the deque implementation agrees with a brute-force window min.
class MinFilterProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(MinFilterProperty, MatchesBruteForce) {
  const auto [window, seed] = GetParam();
  Rng rng(seed);
  std::vector<double> v(200);
  for (auto& x : v) x = rng.uniform(-10.0, 10.0);
  const auto fast = min_filter(v, window);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::size_t lo = i + 1 >= window ? i + 1 - window : 0;
    double m = v[lo];
    for (std::size_t j = lo; j <= i; ++j) m = std::min(m, v[j]);
    EXPECT_DOUBLE_EQ(fast[i], m) << "window=" << window << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndSeeds, MinFilterProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 50, 200, 300),
                       ::testing::Values(11, 22)));

TEST(MovingAverage, TrailingWindowSemantics) {
  const std::vector<double> v = {2.0, 4.0, 6.0, 8.0};
  const auto f = moving_average(v, 2);
  EXPECT_DOUBLE_EQ(f[0], 2.0);  // shrunken leading window
  EXPECT_DOUBLE_EQ(f[1], 3.0);
  EXPECT_DOUBLE_EQ(f[2], 5.0);
  EXPECT_DOUBLE_EQ(f[3], 7.0);
}

TEST(MovingAverage, ConstantInputIsFixedPoint) {
  const std::vector<double> v(50, 3.25);
  const auto f = moving_average(v, 7);
  for (double x : f) EXPECT_NEAR(x, 3.25, 1e-12);
}

TEST(MedianFilter, RemovesImpulse) {
  std::vector<double> v(11, 1.0);
  v[5] = 100.0;
  const auto f = median_filter(v, 3);
  for (double x : f) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(MedianFilter, RequiresOddWindow) {
  EXPECT_THROW(median_filter(std::vector<double>{1.0, 2.0}, 2),
               std::invalid_argument);
}

TEST(CumulativeAbsDiff, MatchesEq17) {
  // c[i] = sum_{j<=i} |v[j] - v[j-1]|, v[-1] = 0 (Eq. 17).
  const std::vector<double> v = {2.0, 2.0, -1.0, 4.0};
  const auto c = cumulative_abs_diff(v, 0.0);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
  EXPECT_DOUBLE_EQ(c[2], 5.0);
  EXPECT_DOUBLE_EQ(c[3], 10.0);
}

TEST(CumulativeAbsDiff, MonotoneNondecreasing) {
  Rng rng(5);
  std::vector<double> v(100);
  for (auto& x : v) x = rng.normal();
  const auto c = cumulative_abs_diff(v);
  for (std::size_t i = 1; i < c.size(); ++i) {
    EXPECT_GE(c[i], c[i - 1]);
  }
}

}  // namespace
}  // namespace nsync::signal
