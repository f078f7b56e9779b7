// Tests for the streaming DetectionCore and its incremental min filter —
// the single implementation of window scoring, masking, carry-forward and
// threshold latching shared by the batch and streaming paths.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "core/detection_core.hpp"
#include "core/discriminator.hpp"
#include "core/fusion.hpp"
#include "signal/checkpoint.hpp"
#include "signal/filters.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"
#include "test_support.hpp"

namespace nsync::core {
namespace {

using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;

DwmParams params() {
  DwmParams p;
  p.n_win = 64;
  p.n_hop = 32;
  p.n_ext = 24;
  p.n_sigma = 12.0;
  p.eta = 0.2;
  return p;
}

// ---------------------------------------------------------------------------
// StreamingMinFilter: bitwise equal to the batch min_filter and to a naive
// trailing-window recompute, for every window size and stream shape.
// ---------------------------------------------------------------------------

TEST(StreamingMinFilter, MatchesBatchMinFilterOnRandomStreams) {
  for (std::size_t window : {1u, 2u, 3u, 5u, 8u, 17u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed);
      std::vector<double> xs(200);
      for (double& x : xs) {
        // Coarse quantization forces frequent exact duplicates, the case
        // where tie-breaking inside the deque matters.
        x = std::floor(rng.normal() * 4.0) / 4.0;
      }
      const std::vector<double> batch = nsync::signal::min_filter(xs, window);
      StreamingMinFilter f(window);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const double got = f.push(xs[i]);
        ASSERT_EQ(got, batch[i]) << "window " << window << " seed " << seed
                                 << " index " << i;
      }
    }
  }
}

TEST(StreamingMinFilter, MatchesNaiveTrailingRecompute) {
  Rng rng(7);
  std::vector<double> xs(500);
  for (double& x : xs) x = rng.normal();
  const std::size_t window = 3;
  StreamingMinFilter f(window);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double got = f.push(xs[i]);
    double want = xs[i];
    for (std::size_t k = i - std::min(i, window - 1); k <= i; ++k) {
      want = std::min(want, xs[k]);
    }
    ASSERT_EQ(got, want) << "index " << i;
  }
}

TEST(StreamingMinFilter, MonotoneDecreasingAndIncreasingStreams) {
  StreamingMinFilter dec(4);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(dec.push(-i), static_cast<double>(-i));
  }
  StreamingMinFilter inc(4);
  for (int i = 0; i < 20; ++i) {
    const double want = static_cast<double>(std::max(0, i - 3));
    EXPECT_EQ(inc.push(i), want);
  }
}

TEST(StreamingMinFilter, RejectsZeroWindow) {
  EXPECT_THROW(StreamingMinFilter(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DetectionCore: construction, scored-step semantics, latching
// ---------------------------------------------------------------------------

TEST(DetectionCore, RejectsInvalidParameters) {
  EXPECT_THROW(DetectionCore(params(), DistanceMetric::kCorrelation, 0),
               std::invalid_argument);
  DwmParams bad = params();
  bad.n_win = 0;
  EXPECT_THROW(DetectionCore(bad, DistanceMetric::kCorrelation, 3),
               std::invalid_argument);
}

TEST(DetectionCore, ScoredFeedMatchesBatchComputeFeatures) {
  Rng rng(11);
  std::vector<double> h(64), v(64);
  for (std::size_t i = 0; i < h.size(); ++i) {
    h[i] = rng.normal(0.0, 4.0);
    v[i] = std::abs(rng.normal());
  }
  DetectionCore dc(params(), DistanceMetric::kCorrelation, 3);
  dc.reserve(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_TRUE(dc.step_scored(h[i], v[i], true));
  }
  const DetectionFeatures want = compute_features(h, v, 3);
  EXPECT_EQ(dc.features().c_disp, want.c_disp);
  EXPECT_EQ(dc.features().h_dist_f, want.h_dist_f);
  EXPECT_EQ(dc.features().v_dist_f, want.v_dist_f);
  EXPECT_EQ(dc.windows(), h.size());
}

TEST(DetectionCore, NonFiniteInputsInvalidateRegardlessOfMask) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  DetectionCore dc(params(), DistanceMetric::kCorrelation, 1);
  EXPECT_TRUE(dc.step_scored(1.0, 0.5, true));
  EXPECT_FALSE(dc.step_scored(kNan, 0.5, true));
  EXPECT_FALSE(dc.step_scored(2.0, kInf, true));
  // Carried values, not the poisoned ones.
  EXPECT_DOUBLE_EQ(dc.features().c_disp[2], 1.0);
  EXPECT_DOUBLE_EQ(dc.features().h_dist_f[1], 1.0);
  EXPECT_DOUBLE_EQ(dc.features().v_dist_f[2], 0.5);
  EXPECT_EQ(dc.valid(), (std::vector<std::uint8_t>{1, 0, 0}));
}

TEST(DetectionCore, LatchesFirstAlarmWindowAndKeepsFlagsAccumulating) {
  Thresholds t;
  t.c_c = 10.0;
  t.h_c = 5.0;
  t.v_c = 100.0;  // never crossed
  DetectionCore dc(params(), DistanceMetric::kCorrelation, 1);
  dc.set_thresholds(t);
  ASSERT_TRUE(dc.armed());

  dc.step_scored(1.0, 0.0, true);  // c=1, h=1: quiet
  EXPECT_FALSE(dc.detection().intrusion);
  dc.step_scored(7.0, 0.0, true);  // h_dist_f = 7 > 5: alarm here
  EXPECT_TRUE(dc.detection().intrusion);
  EXPECT_EQ(dc.detection().first_alarm_window, 1);
  EXPECT_TRUE(dc.detection().by_h_dist);
  EXPECT_FALSE(dc.detection().by_c_disp);
  dc.step_scored(-7.0, 0.0, true);  // c = 1+6+14 > 10: c_disp crosses later
  EXPECT_TRUE(dc.detection().by_c_disp);  // flags keep accumulating...
  EXPECT_EQ(dc.detection().first_alarm_window, 1);  // ...the latch does not

  // A finished stream reports exactly what the batch discriminator would.
  const Detection batch = discriminate(dc.features(), t);
  EXPECT_EQ(dc.detection().intrusion, batch.intrusion);
  EXPECT_EQ(dc.detection().by_c_disp, batch.by_c_disp);
  EXPECT_EQ(dc.detection().by_h_dist, batch.by_h_dist);
  EXPECT_EQ(dc.detection().by_v_dist, batch.by_v_dist);
  EXPECT_EQ(dc.detection().first_alarm_window, batch.first_alarm_window);
}

TEST(DetectionCore, UnarmedCoreNeverFires) {
  DetectionCore dc(params(), DistanceMetric::kCorrelation, 1);
  for (int i = 0; i < 10; ++i) {
    dc.step_scored(1000.0 * i, 1000.0, true);
  }
  EXPECT_FALSE(dc.detection().intrusion);
  EXPECT_EQ(dc.detection().first_alarm_window, -1);
}

TEST(DetectionCore, StepRejectsWrongWindowWidth) {
  DetectionCore dc(params(), DistanceMetric::kCorrelation, 3);
  const Signal b(512, 2, 100.0);
  const Signal a(10, 2, 100.0);  // not n_win frames
  EXPECT_THROW(dc.step(0.0, true, a, b), std::invalid_argument);
}

TEST(DetectionCore, RandomMaskedScoredFeedMatchesDiscriminate) {
  // Property: for any validity pattern, the latched verdict of an armed
  // core equals running the batch discriminator over the accumulated
  // features.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Thresholds t;
    t.c_c = 25.0;
    t.h_c = 6.0;
    t.v_c = 2.0;
    DetectionCore dc(params(), DistanceMetric::kCorrelation, 3);
    dc.set_thresholds(t);
    for (std::size_t i = 0; i < 120; ++i) {
      const bool valid = rng.uniform() > 0.25;
      dc.step_scored(rng.normal(0.0, 3.0), std::abs(rng.normal()), valid);
    }
    const Detection batch = discriminate(dc.features(), t);
    EXPECT_EQ(dc.detection().intrusion, batch.intrusion) << "seed " << seed;
    EXPECT_EQ(dc.detection().by_c_disp, batch.by_c_disp) << "seed " << seed;
    EXPECT_EQ(dc.detection().by_h_dist, batch.by_h_dist) << "seed " << seed;
    EXPECT_EQ(dc.detection().by_v_dist, batch.by_v_dist) << "seed " << seed;
    EXPECT_EQ(dc.detection().first_alarm_window, batch.first_alarm_window)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Running feature maxima: a channel score read from them is bitwise the
// score of a rescan over every window, for any feature and threshold.
// ---------------------------------------------------------------------------

using test_support::rescan_channel_score;
using test_support::same_bits;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Thresholds a score must handle: learned-looking ones, zero, negative,
/// NaN, infinite, subnormal and mixtures.
const std::array<Thresholds, 9> kScoreThresholds{{
    {25.0, 6.0, 2.0},
    {0.0, 0.0, 0.0},
    {-1.0, -2.0, -0.5},
    {kNaN, kNaN, kNaN},
    {kInf, kInf, kInf},
    {5e-324, 5e-324, 5e-324},
    {0.0, kNaN, -1.0},
    {kInf, 1e-300, 0.0},
    {-0.0, 3.0, kNaN},
}};

/// One draw from a palette of awkward values, or a plain normal one.
double awkward(Rng& rng, double scale) {
  static constexpr std::array<double, 10> kPalette{
      kNaN, kInf, -kInf, -0.0, 0.0, 5e-324, 1e308, -1e308, -3.0, 1e300};
  if (rng.uniform() < 0.3) {
    const auto k = static_cast<std::size_t>(rng.uniform() * kPalette.size());
    return kPalette[std::min(k, kPalette.size() - 1)];
  }
  return rng.normal(0.0, scale);
}

/// Every threshold set, and the core's own armed ones: the score from the
/// core's maxima, the batch helper over its arrays and the rescan agree.
void expect_scores_match(const DetectionCore& dc, std::size_t step) {
  for (std::size_t k = 0; k <= kScoreThresholds.size(); ++k) {
    const Thresholds& t =
        k < kScoreThresholds.size() ? kScoreThresholds[k] : dc.thresholds();
    const double want = rescan_channel_score(dc.features(), t);
    EXPECT_TRUE(same_bits(channel_score(dc.maxima(), t), want))
        << "step " << step << " thresholds " << k;
    EXPECT_TRUE(same_bits(channel_score(dc.features(), t), want))
        << "step " << step << " thresholds " << k;
  }
}

TEST(DetectionCore, RunningMaximaScoreMatchesFullRescanBitwise) {
  // Generated streams with NaN, +-Inf, -0.0, subnormal and overflowing
  // inputs (1e308 swings drive c_disp to +Inf); thresholds armed only
  // after windows accumulated; a save/restore in mid-stream whose copy
  // must keep scoring like the original.
  std::size_t infinite_c_disp = 0;
  std::size_t ceiling_scores = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    DetectionCore dc(params(), DistanceMetric::kCorrelation, 3);
    std::optional<DetectionCore> restored;
    for (std::size_t i = 0; i < 300; ++i) {
      const double h = awkward(rng, 3.0);
      const double v = awkward(rng, 1.0);
      const bool valid = rng.uniform() > 0.2;
      dc.step_scored(h, v, valid);
      if (restored) restored->step_scored(h, v, valid);
      if (i == 100) dc.set_thresholds(kScoreThresholds[seed]);
      if (i == 180) {
        nsync::signal::ByteWriter w;
        dc.save_state(w);
        const std::vector<std::uint8_t> bytes = w.take();
        nsync::signal::ByteReader r(bytes);
        restored.emplace(params(), DistanceMetric::kCorrelation, 3);
        restored->restore_state(r);
      }
      expect_scores_match(dc, i);
      if (restored) {
        expect_scores_match(*restored, i);
        EXPECT_TRUE(same_bits(channel_score(restored->maxima(), dc.thresholds()),
                              channel_score(dc.maxima(), dc.thresholds())))
            << "seed " << seed << " step " << i;
      }
      if (std::isinf(dc.features().c_disp.back())) ++infinite_c_disp;
      if (channel_score(dc.maxima(), dc.thresholds()) == kMaxChannelScore) {
        ++ceiling_scores;
      }
    }
  }
  // The awkward inputs reached the features and the clamp.
  EXPECT_GT(infinite_c_disp, 0u);
  EXPECT_GT(ceiling_scores, 0u);
}

TEST(DetectionCore, FoldedMaximaScoreNonFiniteFeaturesLikeTheRescan) {
  // Feature values a core never writes itself (NaN, -Inf, negatives)
  // folded straight into maxima: still bitwise the rescan at every prefix.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(100 + seed);
    DetectionFeatures f;
    FeatureMaxima running;
    for (std::size_t i = 0; i < 40; ++i) {
      f.c_disp.push_back(awkward(rng, 10.0));
      f.h_dist_f.push_back(awkward(rng, 3.0));
      f.v_dist_f.push_back(awkward(rng, 1.0));
      fold_window(running, f.c_disp.back(), f.h_dist_f.back(),
                  f.v_dist_f.back());
      for (std::size_t k = 0; k < kScoreThresholds.size(); ++k) {
        const Thresholds& t = kScoreThresholds[k];
        EXPECT_TRUE(same_bits(channel_score(running, t),
                              rescan_channel_score(f, t)))
            << "seed " << seed << " window " << i << " thresholds " << k;
      }
    }
  }
}

}  // namespace
}  // namespace nsync::core
