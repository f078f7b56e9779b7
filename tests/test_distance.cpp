// Tests for the similarity functions and distance metrics (Sections V-B,
// VII-A).
#include <gtest/gtest.h>

#include <cmath>

#include "core/distance.hpp"
#include "signal/rng.hpp"

namespace nsync::core {
namespace {

using nsync::signal::Signal;

TEST(VectorDistance, KnownValues) {
  const std::vector<double> u = {1.0, 2.0, 3.0};
  const std::vector<double> v = {2.0, 4.0, 6.0};
  EXPECT_NEAR(vector_distance(u, v, DistanceMetric::kCorrelation), 0.0, 1e-12);
  EXPECT_NEAR(vector_distance(u, v, DistanceMetric::kCosine), 0.0, 1e-12);
  EXPECT_NEAR(vector_distance(u, v, DistanceMetric::kEuclidean),
              std::sqrt(1.0 + 4.0 + 9.0), 1e-12);
  EXPECT_NEAR(vector_distance(u, v, DistanceMetric::kManhattan), 6.0, 1e-12);
  EXPECT_NEAR(vector_distance(u, v, DistanceMetric::kMae), 2.0, 1e-12);
}

TEST(VectorDistance, IdenticalVectorsAreZero) {
  const std::vector<double> u = {1.0, -2.0, 0.5};
  for (auto m : {DistanceMetric::kCorrelation, DistanceMetric::kCosine,
                 DistanceMetric::kEuclidean, DistanceMetric::kManhattan,
                 DistanceMetric::kMae}) {
    EXPECT_NEAR(vector_distance(u, u, m), 0.0, 1e-12)
        << distance_metric_name(m);
  }
}

TEST(VectorDistance, CorrelationDistanceRange) {
  const std::vector<double> u = {1.0, 2.0, 3.0};
  const std::vector<double> v = {3.0, 2.0, 1.0};  // anti-correlated
  EXPECT_NEAR(vector_distance(u, v, DistanceMetric::kCorrelation), 2.0,
              1e-12);
}

TEST(VectorDistance, GainSensitivitySplit) {
  // The design argument of Section VII-A: correlation/cosine ignore gain;
  // Euclidean/Manhattan/MAE do not.
  nsync::signal::Rng rng(1);
  std::vector<double> u(32), v(32);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = rng.normal();
    v[i] = 1.3 * u[i];
  }
  EXPECT_NEAR(vector_distance(u, v, DistanceMetric::kCorrelation), 0.0, 1e-9);
  EXPECT_NEAR(vector_distance(u, v, DistanceMetric::kCosine), 0.0, 1e-9);
  EXPECT_GT(vector_distance(u, v, DistanceMetric::kEuclidean), 0.1);
  EXPECT_GT(vector_distance(u, v, DistanceMetric::kMae), 0.01);
}

TEST(VectorDistance, DegenerateInputs) {
  const std::vector<double> flat = {2.0, 2.0, 2.0};
  const std::vector<double> v = {1.0, 2.0, 3.0};
  // Zero-variance input: correlation falls back to distance 1.
  EXPECT_NEAR(vector_distance(flat, v, DistanceMetric::kCorrelation), 1.0,
              1e-12);
  const std::vector<double> zero = {0.0, 0.0};
  const std::vector<double> w = {1.0, 1.0};
  EXPECT_NEAR(vector_distance(zero, w, DistanceMetric::kCosine), 1.0, 1e-12);
  EXPECT_THROW((void)vector_distance(flat, std::vector<double>{1.0},
                                     DistanceMetric::kMae),
               std::invalid_argument);
}

TEST(FrameDistance, UsesChannelDimension) {
  Signal a = Signal::from_frames({1.0, 2.0, 5.0, 6.0}, 2, 10.0);
  Signal b = Signal::from_frames({1.0, 2.0, 4.0, 8.0}, 2, 10.0);
  // Frame 0 identical -> MAE 0; frame 1: |5-4| and |6-8| -> MAE 1.5.
  EXPECT_NEAR(frame_distance(a, 0, b, 0, DistanceMetric::kMae), 0.0, 1e-12);
  EXPECT_NEAR(frame_distance(a, 1, b, 1, DistanceMetric::kMae), 1.5, 1e-12);
}

TEST(WindowDistance, AveragesAcrossChannels) {
  // Channel 0 identical, channel 1 anti-correlated: correlation distances
  // 0 and 2, averaged to 1.
  Signal a = Signal::from_frames({1.0, 1.0, 2.0, 2.0, 3.0, 3.0}, 2, 10.0);
  Signal b = Signal::from_frames({1.0, 3.0, 2.0, 2.0, 3.0, 1.0}, 2, 10.0);
  EXPECT_NEAR(window_distance(a, b, DistanceMetric::kCorrelation), 1.0,
              1e-12);
}

TEST(WindowDistance, ShapeMismatchThrows) {
  Signal a(4, 2, 10.0);
  Signal b(4, 3, 10.0);
  Signal c(5, 2, 10.0);
  EXPECT_THROW((void)window_distance(a, b, DistanceMetric::kMae),
               std::invalid_argument);
  EXPECT_THROW((void)window_distance(a, c, DistanceMetric::kMae),
               std::invalid_argument);
}

}  // namespace
}  // namespace nsync::core
