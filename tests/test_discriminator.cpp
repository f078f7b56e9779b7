// Tests for the discriminator (Section VII-B) and OCC threshold learning
// (Section VII-C).
#include <gtest/gtest.h>

#include <cmath>

#include "core/discriminator.hpp"

namespace nsync::core {
namespace {

TEST(ComputeFeatures, CadhdMatchesEq17) {
  const std::vector<double> h_disp = {2.0, 2.0, -1.0, 4.0};
  const std::vector<double> v_dist = {0.1, 0.2, 0.3, 0.4};
  const DetectionFeatures f = compute_features(h_disp, v_dist, 1);
  ASSERT_EQ(f.c_disp.size(), 4u);
  EXPECT_DOUBLE_EQ(f.c_disp[0], 2.0);   // |2 - 0|
  EXPECT_DOUBLE_EQ(f.c_disp[1], 2.0);   // + |2 - 2|
  EXPECT_DOUBLE_EQ(f.c_disp[2], 5.0);   // + |-1 - 2|
  EXPECT_DOUBLE_EQ(f.c_disp[3], 10.0);  // + |4 - (-1)|
}

TEST(ComputeFeatures, HDistIsFilteredAbsolute) {
  const std::vector<double> h_disp = {1.0, -8.0, 1.0, 1.0};
  const std::vector<double> v_dist = {0.0, 0.0, 0.0, 0.0};
  const DetectionFeatures f = compute_features(h_disp, v_dist, 3);
  // |h| = {1, 8, 1, 1}; trailing min over 3 removes the single spike.
  EXPECT_DOUBLE_EQ(f.h_dist_f[0], 1.0);
  EXPECT_DOUBLE_EQ(f.h_dist_f[1], 1.0);
  EXPECT_DOUBLE_EQ(f.h_dist_f[2], 1.0);
  EXPECT_DOUBLE_EQ(f.h_dist_f[3], 1.0);
}

TEST(ComputeFeatures, VDistFiltered) {
  const std::vector<double> h_disp = {0.0};
  const std::vector<double> v_dist = {0.2, 0.9, 0.9, 0.9, 0.9};
  const DetectionFeatures f = compute_features(h_disp, v_dist, 3);
  ASSERT_EQ(f.v_dist_f.size(), 5u);
  // Sustained elevation survives the filter from index 3 on.
  EXPECT_DOUBLE_EQ(f.v_dist_f[4], 0.9);
  EXPECT_DOUBLE_EQ(f.v_dist_f[2], 0.2);
}

TEST(ComputeFeatures, LengthsFollowInputs) {
  const std::vector<double> h(7, 1.0);
  const std::vector<double> v(3, 1.0);
  const DetectionFeatures f = compute_features(h, v, 3);
  EXPECT_EQ(f.c_disp.size(), 7u);
  EXPECT_EQ(f.h_dist_f.size(), 7u);
  EXPECT_EQ(f.v_dist_f.size(), 3u);
  EXPECT_THROW(compute_features(h, v, 0), std::invalid_argument);
}

TEST(FeatureMaxima, HandlesEmptyFeatures) {
  DetectionFeatures f;
  const FeatureMaxima m = feature_maxima(f);
  EXPECT_DOUBLE_EQ(m.c_max, 0.0);
  EXPECT_DOUBLE_EQ(m.h_max, 0.0);
  EXPECT_DOUBLE_EQ(m.v_max, 0.0);
}

TEST(LearnThresholds, MatchesEq26to28) {
  const std::vector<FeatureMaxima> train = {
      {10.0, 1.0, 0.2}, {20.0, 3.0, 0.4}, {15.0, 2.0, 0.3}};
  const Thresholds t = learn_thresholds(train, 0.5);
  // c: max 20, min 10 -> 20 + 0.5 * 10 = 25.
  EXPECT_DOUBLE_EQ(t.c_c, 25.0);
  EXPECT_DOUBLE_EQ(t.h_c, 4.0);
  EXPECT_NEAR(t.v_c, 0.5, 1e-12);
}

TEST(LearnThresholds, RZeroIsTrainingMax) {
  const std::vector<FeatureMaxima> train = {{5.0, 1.0, 0.1},
                                            {7.0, 2.0, 0.3}};
  const Thresholds t = learn_thresholds(train, 0.0);
  EXPECT_DOUBLE_EQ(t.c_c, 7.0);
  EXPECT_DOUBLE_EQ(t.h_c, 2.0);
  EXPECT_DOUBLE_EQ(t.v_c, 0.3);
}

TEST(LearnThresholds, Validation) {
  EXPECT_THROW((void)learn_thresholds({}, 0.3), std::invalid_argument);
  const std::vector<FeatureMaxima> one = {{1.0, 1.0, 1.0}};
  EXPECT_THROW((void)learn_thresholds(one, -0.1), std::invalid_argument);
  // A single training signal is legal; the relative-margin floor keeps
  // the threshold strictly above the benign max (range = 0 no longer
  // collapses the margin).
  const Thresholds t = learn_thresholds(one, 0.3);
  EXPECT_DOUBLE_EQ(t.c_c, 1.0 + 0.3 * kMinRelativeSpread);
}

// Regression: with all training maxima identical the raw Eq. 28 spread is
// zero, and pre-fix the critical value sat exactly at the benign max — a
// benign window one ULP above training fired.  The relative floor keeps a
// margin proportional to the max itself.
TEST(LearnThresholds, IdenticalMaximaKeepSafetyMargin) {
  const std::vector<FeatureMaxima> train = {
      {10.0, 2.0, 0.5}, {10.0, 2.0, 0.5}, {10.0, 2.0, 0.5}};
  const Thresholds t = learn_thresholds(train, 0.3);
  EXPECT_GT(t.c_c, 10.0);
  EXPECT_GT(t.h_c, 2.0);
  EXPECT_GT(t.v_c, 0.5);
  EXPECT_DOUBLE_EQ(t.c_c, 10.0 + 0.3 * kMinRelativeSpread * 10.0);
  EXPECT_DOUBLE_EQ(t.h_c, 2.0 + 0.3 * kMinRelativeSpread * 2.0);
  EXPECT_DOUBLE_EQ(t.v_c, 0.5 + 0.3 * kMinRelativeSpread * 0.5);

  // A benign replay whose features sit a hair above the training max (ULP
  // noise, re-quantization) must stay benign.
  DetectionFeatures f;
  f.c_disp = {10.0 * (1.0 + 1e-9)};
  f.h_dist_f = {2.0 * (1.0 + 1e-9)};
  f.v_dist_f = {0.5 * (1.0 + 1e-9)};
  EXPECT_FALSE(discriminate(f, t).intrusion);
}

// The floor only binds on degenerate spreads: a healthy spread larger than
// kMinRelativeSpread * hi reproduces Eq. 28 exactly (MatchesEq26to28
// pins the numbers), and r = 0 still yields the training max.
TEST(LearnThresholds, FloorScalesWithRAndVanishesAtZero) {
  const std::vector<FeatureMaxima> one = {{4.0, 4.0, 4.0}};
  const Thresholds t0 = learn_thresholds(one, 0.0);
  EXPECT_DOUBLE_EQ(t0.c_c, 4.0);
  const Thresholds t1 = learn_thresholds(one, 0.6);
  EXPECT_DOUBLE_EQ(t1.c_c, 4.0 + 0.6 * kMinRelativeSpread * 4.0);
}

TEST(Discriminate, FiresPerSubModule) {
  DetectionFeatures f;
  f.c_disp = {1.0, 2.0, 3.0};
  f.h_dist_f = {0.1, 0.2, 0.1};
  f.v_dist_f = {0.5, 0.9, 0.5};
  Thresholds t{10.0, 1.0, 0.8};  // only v crosses
  const Detection d = discriminate(f, t);
  EXPECT_TRUE(d.intrusion);
  EXPECT_FALSE(d.by_c_disp);
  EXPECT_FALSE(d.by_h_dist);
  EXPECT_TRUE(d.by_v_dist);
  EXPECT_EQ(d.first_alarm_window, 1);
}

TEST(Discriminate, BenignWhenAllBelow) {
  DetectionFeatures f;
  f.c_disp = {1.0};
  f.h_dist_f = {0.1};
  f.v_dist_f = {0.2};
  const Detection d = discriminate(f, {2.0, 0.5, 0.5});
  EXPECT_FALSE(d.intrusion);
  EXPECT_EQ(d.first_alarm_window, -1);
}

TEST(Discriminate, FirstAlarmIsEarliestAcrossSubModules) {
  DetectionFeatures f;
  f.c_disp = {0.0, 0.0, 9.0};   // alarms at 2
  f.h_dist_f = {0.0, 9.0, 0.0};  // alarms at 1
  f.v_dist_f = {0.0, 0.0, 0.0};
  const Detection d = discriminate(f, {1.0, 1.0, 1.0});
  EXPECT_TRUE(d.by_c_disp);
  EXPECT_TRUE(d.by_h_dist);
  EXPECT_FALSE(d.by_v_dist);
  EXPECT_EQ(d.first_alarm_window, 1);
}

TEST(Discriminate, ThresholdIsStrict) {
  DetectionFeatures f;
  f.c_disp = {5.0};
  f.h_dist_f = {1.0};
  f.v_dist_f = {0.5};
  // Equal to the threshold does NOT fire (Eq. 18-20 use strict >).
  const Detection d = discriminate(f, {5.0, 1.0, 0.5});
  EXPECT_FALSE(d.intrusion);
}

class OccSweep : public ::testing::TestWithParam<double> {};

TEST_P(OccSweep, HigherRNeverIncreasesDetections) {
  // Property: raising r raises thresholds, so the set of alarms shrinks
  // monotonically (the FPR/FNR trade of Section VII-C).
  const double r = GetParam();
  const std::vector<FeatureMaxima> train = {
      {10.0, 1.0, 0.2}, {12.0, 1.5, 0.25}, {11.0, 1.2, 0.22}};
  const Thresholds t_low = learn_thresholds(train, 0.0);
  const Thresholds t_high = learn_thresholds(train, r);
  EXPECT_GE(t_high.c_c, t_low.c_c);
  EXPECT_GE(t_high.h_c, t_low.h_c);
  EXPECT_GE(t_high.v_c, t_low.v_c);

  DetectionFeatures probe;
  probe.c_disp = {12.5};
  probe.h_dist_f = {1.4};
  probe.v_dist_f = {0.1};
  const Detection d_low = discriminate(probe, t_low);
  const Detection d_high = discriminate(probe, t_high);
  // If the strict thresholds alarm, the loose ones must too.
  if (d_high.intrusion) {
    EXPECT_TRUE(d_low.intrusion);
  }
}

INSTANTIATE_TEST_SUITE_P(Margins, OccSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 1.0, 2.0));

}  // namespace
}  // namespace nsync::core
