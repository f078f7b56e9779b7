// Tests for sliding normalized correlation: the FFT-accelerated path must
// agree with the naive reference exactly (this is the TDE ablation's
// correctness half).
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "dsp/reference/reference.hpp"
#include "dsp/xcorr.hpp"
#include "signal/rng.hpp"

namespace nsync::dsp {
namespace {

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  nsync::signal::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

TEST(SlidingPearson, PerfectMatchScoresOne) {
  const auto y = random_series(32, 1);
  std::vector<double> x(100);
  nsync::signal::Rng rng(2);
  for (auto& v : x) v = rng.normal();
  const std::size_t at = 40;
  for (std::size_t i = 0; i < y.size(); ++i) x[at + i] = y[i];
  const auto s = sliding_pearson_naive(x, y);
  EXPECT_NEAR(s[at], 1.0, 1e-12);
  for (std::size_t n = 0; n < s.size(); ++n) {
    EXPECT_LE(std::abs(s[n]), 1.0 + 1e-9);
  }
}

TEST(SlidingPearson, GainInvariance) {
  auto y = random_series(16, 3);
  std::vector<double> x = random_series(64, 4);
  for (std::size_t i = 0; i < y.size(); ++i) x[20 + i] = 7.0 * y[i] + 2.0;
  const auto s = sliding_pearson_naive(x, y);
  EXPECT_NEAR(s[20], 1.0, 1e-12);  // correlation ignores gain and offset
}

TEST(SlidingPearson, ConstantTemplateScoresZero) {
  const std::vector<double> y(8, 5.0);
  const auto x = random_series(32, 6);
  const auto naive = sliding_pearson_naive(x, y);
  const auto fft = sliding_pearson_fft(x, y);
  for (std::size_t n = 0; n < naive.size(); ++n) {
    EXPECT_DOUBLE_EQ(naive[n], 0.0);
    EXPECT_DOUBLE_EQ(fft[n], 0.0);
  }
}

TEST(SlidingPearson, FlatWindowInSignalScoresZero) {
  std::vector<double> x(40, 1.0);  // constant signal regions
  for (std::size_t i = 30; i < 40; ++i) x[i] = static_cast<double>(i);
  const auto y = random_series(8, 7);
  const auto fft = sliding_pearson_fft(x, y);
  // Windows fully inside the flat region have zero variance -> score 0.
  EXPECT_DOUBLE_EQ(fft[0], 0.0);
  EXPECT_DOUBLE_EQ(fft[10], 0.0);
}

TEST(SlidingPearson, SizeChecks) {
  const std::vector<double> x(4, 0.0);
  const std::vector<double> y1(1, 0.0);
  const std::vector<double> y5(5, 0.0);
  EXPECT_THROW(sliding_pearson_naive(x, y1), std::invalid_argument);
  EXPECT_THROW(sliding_pearson_naive(x, y5), std::invalid_argument);
  EXPECT_THROW(sliding_pearson_fft(x, y5), std::invalid_argument);
}

class XcorrEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::uint64_t>> {};

TEST_P(XcorrEquivalence, FftMatchesNaive) {
  const auto [nx, ny, seed] = GetParam();
  const auto x = random_series(nx, seed);
  const auto y = random_series(ny, seed + 1000);
  const auto naive = sliding_pearson_naive(x, y);
  const auto fft = sliding_pearson_fft(x, y);
  ASSERT_EQ(naive.size(), fft.size());
  for (std::size_t n = 0; n < naive.size(); ++n) {
    // Near-degenerate windows (e.g. two nearly equal samples with ny = 2)
    // amplify rounding differences between the two formulations.
    EXPECT_NEAR(naive[n], fft[n], 1e-6) << "lag " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, XcorrEquivalence,
    ::testing::Combine(::testing::Values(64, 127, 256, 1000),
                       ::testing::Values(2, 16, 63),
                       ::testing::Values(101, 202)));

TEST(XcorrEquivalence, RfftPathMatchesComplexPath) {
  // Production real-FFT path vs the pre-rfft full-complex implementation.
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{64, 16},
                               {127, 32},
                               {1000, 63}}) {
    const auto x = random_series(nx, 301 + nx);
    const auto y = random_series(ny, 302 + nx);
    const auto real_path = sliding_pearson_fft(x, y);
    const auto complex_path = sliding_pearson_fft_complex(x, y);
    ASSERT_EQ(real_path.size(), complex_path.size());
    for (std::size_t n = 0; n < real_path.size(); ++n) {
      EXPECT_NEAR(real_path[n], complex_path[n], 1e-7)
          << "nx " << nx << " lag " << n;
    }
  }
}

TEST(XcorrEquivalence, WorkspaceVariantIsBitwiseEqualToWrapper) {
  // sliding_pearson_fft is a thin wrapper over the _into workspace
  // variant; same arithmetic order, so the outputs must be identical to
  // the bit even when the workspace is reused across shapes.
  SlidingPearsonWorkspace ws;
  for (const auto& [nx, ny] : {std::pair<std::size_t, std::size_t>{64, 16},
                               {250, 7},
                               {96, 40}}) {
    const auto x = random_series(nx, 401 + nx);
    const auto y = random_series(ny, 402 + nx);
    const auto wrapped = sliding_pearson_fft(x, y);
    std::vector<double> out(nx - ny + 1);
    sliding_pearson_fft_into(x, y, out, ws);
    for (std::size_t n = 0; n < out.size(); ++n) {
      EXPECT_EQ(wrapped[n], out[n]) << "nx " << nx << " lag " << n;
    }
  }
}

TEST(XcorrEquivalence, LargeOffsetsAndScales) {
  // The prefix-sum denominator must stay accurate when the data has a huge
  // DC offset (catastrophic cancellation risk).
  nsync::signal::Rng rng(55);
  std::vector<double> x(200), y(20);
  for (auto& v : x) v = 1.0e6 + rng.normal();
  for (auto& v : y) v = -3.0e5 + rng.normal();
  const auto naive = sliding_pearson_naive(x, y);
  const auto fft = sliding_pearson_fft(x, y);
  for (std::size_t n = 0; n < naive.size(); ++n) {
    EXPECT_NEAR(naive[n], fft[n], 1e-6) << "lag " << n;
  }
}

}  // namespace
}  // namespace nsync::dsp
