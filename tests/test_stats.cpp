// Unit and property tests for the descriptive statistics helpers.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "signal/rng.hpp"
#include "signal/signal.hpp"
#include "signal/stats.hpp"

namespace nsync::signal {
namespace {

TEST(Stats, MeanOfKnownValues) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MinMaxArgThrowOnEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW((void)max_value(empty), std::invalid_argument);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> u = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_NEAR(pearson(u, v), 1.0, 1e-12);
  std::vector<double> w = {40.0, 30.0, 20.0, 10.0};
  EXPECT_NEAR(pearson(u, w), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVarianceIsZero) {
  const std::vector<double> u = {1.0, 1.0, 1.0};
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(u, v), 0.0);
}

TEST(Stats, PearsonLengthMismatchThrows) {
  const std::vector<double> u = {1.0, 2.0};
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)pearson(u, v), std::invalid_argument);
}

TEST(Stats, PearsonGainAndOffsetInvariance) {
  Rng rng(7);
  std::vector<double> u(64);
  for (auto& x : u) x = rng.normal();
  std::vector<double> v(64);
  for (std::size_t i = 0; i < u.size(); ++i) v[i] = 3.5 * u[i] - 11.0;
  EXPECT_NEAR(pearson(u, v), 1.0, 1e-12);
}

TEST(Stats, ChannelMeansAndStddevs) {
  Signal s = Signal::from_frames({1.0, 10.0, 3.0, 10.0}, 2, 10.0);
  const auto mu = channel_means(s);
  ASSERT_EQ(mu.size(), 2u);
  EXPECT_DOUBLE_EQ(mu[0], 2.0);
  EXPECT_DOUBLE_EQ(mu[1], 10.0);
}

// Property: pearson is symmetric and bounded in [-1, 1] on random data.
class PearsonProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PearsonProperty, SymmetricAndBounded) {
  Rng rng(GetParam());
  std::vector<double> u(48), v(48);
  for (auto& x : u) x = rng.normal();
  for (auto& x : v) x = rng.normal(1.0, 3.0);
  const double puv = pearson(u, v);
  const double pvu = pearson(v, u);
  EXPECT_NEAR(puv, pvu, 1e-12);
  EXPECT_GE(puv, -1.0 - 1e-12);
  EXPECT_LE(puv, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PearsonProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Property: variance is translation invariant and scales quadratically.
TEST(Stats, FiniteWindowFindsEveryNonFiniteSampleAtEveryPosition) {
  // Every finite edge value — signed zeros, subnormals, the largest
  // magnitudes — stays finite; one NaN or infinity anywhere does not.
  const double kEdges[] = {0.0,     -0.0,     DBL_TRUE_MIN, -DBL_TRUE_MIN,
                           DBL_MIN, -DBL_MIN, DBL_MAX,      -DBL_MAX};
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (const std::size_t channels : {std::size_t{1}, std::size_t{6}}) {
    for (std::size_t frames = 1; frames <= 70; ++frames) {
      const std::size_t n = frames * channels;
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = kEdges[i % std::size(kEdges)];
      }
      const SignalView view(x.data(), frames, channels, 1.0);
      ASSERT_TRUE(finite_window(view)) << frames << "x" << channels;
      for (const double bad : kBad) {
        for (std::size_t at = 0; at < n; ++at) {
          const double keep = x[at];
          x[at] = bad;
          ASSERT_FALSE(finite_window(view))
              << bad << " at " << at << " of " << frames << "x" << channels;
          x[at] = keep;
        }
      }
    }
  }
  // No samples at all: vacuously finite.
  EXPECT_TRUE(finite_window(SignalView(nullptr, 0, 1, 1.0)));
}

}  // namespace
}  // namespace nsync::signal
