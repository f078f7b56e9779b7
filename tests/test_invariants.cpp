// Cross-cutting invariant suites: metric axioms, DWM shift-recovery over a
// (shift x noise) grid, fingerprint shift tolerance, STFT energy scaling.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/bayens.hpp"
#include "core/dwm.hpp"
#include "core/distance.hpp"
#include "dsp/stft.hpp"
#include "signal/rng.hpp"

namespace nsync {
namespace {

using signal::Rng;
using signal::Signal;

Signal band_noise(std::size_t frames, std::size_t channels,
                  std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, channels, 100.0);
  std::vector<double> lp(channels, 0.0);
  for (std::size_t n = 0; n < frames; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      lp[c] += 0.35 * (rng.normal() - lp[c]);
      s(n, c) = lp[c];
    }
  }
  return s;
}

// ------------------------------------------------------- metric axioms --

class MetricAxioms : public ::testing::TestWithParam<core::DistanceMetric> {};

TEST_P(MetricAxioms, SymmetryIdentityNonnegativity) {
  const auto metric = GetParam();
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> u(24), v(24);
    for (auto& x : u) x = rng.normal(0.0, 2.0);
    for (auto& x : v) x = rng.normal(1.0, 3.0);
    const double duv = core::vector_distance(u, v, metric);
    const double dvu = core::vector_distance(v, u, metric);
    EXPECT_NEAR(duv, dvu, 1e-9) << core::distance_metric_name(metric);
    EXPECT_GE(duv, -1e-9);
    EXPECT_NEAR(core::vector_distance(u, u, metric), 0.0, 1e-9);
  }
}

TEST_P(MetricAxioms, TriangleInequalityForTrueMetrics) {
  const auto metric = GetParam();
  if (metric != core::DistanceMetric::kEuclidean &&
      metric != core::DistanceMetric::kManhattan &&
      metric != core::DistanceMetric::kMae) {
    GTEST_SKIP() << "correlation/cosine distances are not metrics";
  }
  Rng rng(18);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a(16), b(16), c(16);
    for (auto& x : a) x = rng.normal();
    for (auto& x : b) x = rng.normal();
    for (auto& x : c) x = rng.normal();
    const double ab = core::vector_distance(a, b, metric);
    const double bc = core::vector_distance(b, c, metric);
    const double ac = core::vector_distance(a, c, metric);
    EXPECT_LE(ac, ab + bc + 1e-9) << core::distance_metric_name(metric);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMetrics, MetricAxioms,
    ::testing::Values(core::DistanceMetric::kCorrelation,
                      core::DistanceMetric::kCosine,
                      core::DistanceMetric::kEuclidean,
                      core::DistanceMetric::kManhattan,
                      core::DistanceMetric::kMae),
    [](const ::testing::TestParamInfo<core::DistanceMetric>& p) {
      return core::distance_metric_name(p.param);
    });

// ------------------------------------------- DWM shift x noise recovery --

class DwmShiftNoiseGrid
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(DwmShiftNoiseGrid, RecoversShiftUnderMeasurementNoise) {
  const auto [shift, noise_sigma] = GetParam();
  const Signal b = band_noise(1200, 2, 71);
  Rng rng(72);
  Signal a(1000, 2, 100.0);
  for (std::size_t n = 0; n < a.frames(); ++n) {
    const auto src = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(n) + shift, 0,
        static_cast<std::ptrdiff_t>(b.frames() - 1)));
    for (std::size_t c = 0; c < 2; ++c) {
      // No draw at all when noise-free: std::normal_distribution requires
      // a positive standard deviation.
      a(n, c) = noise_sigma > 0.0 ? b(src, c) + rng.normal(0.0, noise_sigma)
                                  : b(src, c);
    }
  }
  core::DwmParams p;
  p.n_win = 64;
  p.n_hop = 32;
  p.n_ext = 24;
  p.n_sigma = 12.0;
  p.eta = 0.2;
  const auto r = core::DwmSynchronizer::align(a, b, p);
  ASSERT_GT(r.h_disp.size(), 10u);
  // After settling, the last few windows must sit on the true shift.
  for (std::size_t i = r.h_disp.size() - 3; i < r.h_disp.size(); ++i) {
    EXPECT_NEAR(r.h_disp[i], static_cast<double>(shift), 2.0)
        << "shift=" << shift << " noise=" << noise_sigma << " window " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DwmShiftNoiseGrid,
    ::testing::Combine(::testing::Values(-20, -7, 0, 7, 20),
                       ::testing::Values(0.0, 0.05, 0.2)));

// ---------------------------------------- fingerprint shift tolerance --

TEST(BayensFingerprint, MatchSurvivesSubChunkShiftOnly) {
  // The design point of the time-frequency fingerprint: a shift well below
  // one chunk keeps the self-match score high; a shift of several chunks
  // degrades it.
  Rng rng(81);
  const double fs = 1000.0;
  Signal s(8000, 2, fs);
  double phase = 0.0;
  for (std::size_t n = 0; n < s.frames(); ++n) {
    // Frequency ramps so each chunk has distinct content.
    const double f = 40.0 + 200.0 * static_cast<double>(n) /
                                static_cast<double>(s.frames());
    phase += 2.0 * M_PI * f / fs;
    s(n, 0) = std::sin(phase) + rng.normal(0.0, 0.05);
    s(n, 1) = 0.7 * std::sin(phase) + rng.normal(0.0, 0.05);
  }
  baselines::BayensConfig cfg;
  cfg.window_seconds = 2.0;
  baselines::BayensIds ids(s, cfg);

  auto shifted = [&](std::size_t by) {
    Signal out(s.frames() - by, 2, fs);
    for (std::size_t n = 0; n < out.frames(); ++n) {
      out(n, 0) = s(n + by, 0);
      out(n, 1) = s(n + by, 1);
    }
    return out;
  };
  const auto tiny = ids.match_windows(shifted(20));    // 20 ms << 200 ms chunk
  const auto large = ids.match_windows(shifted(600));  // 3 chunks
  ASSERT_FALSE(tiny.empty());
  ASSERT_FALSE(large.empty());
  EXPECT_EQ(tiny[0].matched_index, 0u);
  EXPECT_GT(tiny[0].score, large[0].score);
}

// ------------------------------------------------- STFT energy scaling --

TEST(StftInvariant, MagnitudeScalesLinearlyWithAmplitude) {
  const Signal s = band_noise(2048, 1, 91);
  Signal loud = s;
  for (std::size_t n = 0; n < loud.frames(); ++n) loud(n, 0) *= 3.0;
  dsp::StftConfig cfg;
  cfg.delta_f = 10.0;
  cfg.delta_t = 0.05;
  const Signal a = dsp::spectrogram(s, cfg);
  const Signal b = dsp::spectrogram(loud, cfg);
  ASSERT_EQ(a.frames(), b.frames());
  for (std::size_t n = 0; n < a.frames(); n += 3) {
    for (std::size_t c = 0; c < a.channels(); c += 7) {
      EXPECT_NEAR(b(n, c), 3.0 * a(n, c), 1e-6 * (1.0 + a(n, c)));
    }
  }
}

TEST(StftInvariant, ColumnCountMatchesHopArithmetic) {
  for (std::size_t frames : {500u, 777u, 2048u}) {
    const Signal s = band_noise(frames, 1, 92);
    dsp::StftConfig cfg;
    cfg.delta_f = 10.0;  // 10-sample window at 100 Hz
    cfg.delta_t = 0.05;  // 5-sample hop
    const Signal spec = dsp::spectrogram(s, cfg);
    EXPECT_EQ(spec.frames(), (frames - 10) / 5 + 1);
  }
}

}  // namespace
}  // namespace nsync
