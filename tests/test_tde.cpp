// Tests for Time Delay Estimation and its biased variant (Sections V-B,
// VI-B).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "core/dwm.hpp"
#include "core/tde.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_internal.hpp"
#include "eval/setup.hpp"
#include "sensors/side_channel.hpp"
#include "signal/rng.hpp"

namespace nsync::core {
namespace {

using nsync::signal::Rng;
using nsync::signal::Signal;

Signal random_signal(std::size_t frames, std::size_t channels,
                     std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, channels, 100.0);
  for (std::size_t n = 0; n < frames; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      s(n, c) = rng.normal();
    }
  }
  return s;
}

/// similarity_scores_into on a fresh workspace, copied out.
std::vector<double> scores_of(const nsync::signal::SignalView& x,
                              const nsync::signal::SignalView& y,
                              const TdeOptions& opts = {}) {
  TdeWorkspace ws;
  const auto s = similarity_scores_into(x, y, opts, ws);
  return {s.begin(), s.end()};
}

/// n_delay = argmax_n s[n] (Eq. 2), first occurrence.
std::size_t delay_of(const nsync::signal::SignalView& x,
                     const nsync::signal::SignalView& y,
                     const TdeOptions& opts = {}) {
  const auto s = scores_of(x, y, opts);
  return static_cast<std::size_t>(
      std::max_element(s.begin(), s.end()) - s.begin());
}

TEST(Tde, ScoresHaveExpectedLength) {
  const Signal x = random_signal(100, 2, 1);
  const Signal y = random_signal(30, 2, 2);
  const auto s = scores_of(x, y);
  EXPECT_EQ(s.size(), 71u);  // Nx - Ny + 1
}

TEST(Tde, ShapeChecks) {
  const Signal x = random_signal(10, 2, 1);
  const Signal y3 = random_signal(5, 3, 2);
  EXPECT_THROW(scores_of(x, y3), std::invalid_argument);
  const Signal y_long = random_signal(20, 2, 3);
  EXPECT_THROW(scores_of(x, y_long), std::invalid_argument);
}

class TdeDelayProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TdeDelayProperty, RecoversExactEmbeddedDelay) {
  const std::size_t delay = GetParam();
  const Signal y = random_signal(40, 3, 77);
  Signal x = random_signal(200, 3, 78);
  for (std::size_t n = 0; n < y.frames(); ++n) {
    for (std::size_t c = 0; c < 3; ++c) {
      x(delay + n, c) = y(n, c);
    }
  }
  EXPECT_EQ(delay_of(x, y), delay);
  // Naive and FFT TDE paths agree.
  TdeOptions naive;
  naive.use_fft = false;
  EXPECT_EQ(delay_of(x, y, naive), delay);
}

INSTANTIATE_TEST_SUITE_P(Delays, TdeDelayProperty,
                         ::testing::Values(0, 1, 17, 80, 159, 160));

TEST(Tde, MultichannelAveragingUsesAllChannels) {
  // The template appears at index 20 in channel 0 and at index 60 in
  // channel 1; with per-channel averaging the combined score peaks where
  // the average evidence is strongest, not necessarily at either single
  // channel's position.  Here channel 0 carries a much stronger copy, so
  // the average must still find 20.
  Rng rng(5);
  Signal y(20, 2, 100.0);
  for (std::size_t n = 0; n < 20; ++n) {
    y(n, 0) = rng.normal();
    y(n, 1) = rng.normal();
  }
  Signal x(120, 2, 100.0);
  for (std::size_t n = 0; n < 120; ++n) {
    x(n, 0) = 0.01 * rng.normal();
    x(n, 1) = 0.01 * rng.normal();
  }
  for (std::size_t n = 0; n < 20; ++n) {
    x(20 + n, 0) = y(n, 0);
    x(20 + n, 1) = y(n, 1);
  }
  EXPECT_EQ(delay_of(x, y), 20u);
}

TEST(Tdeb, BiasScoresPeaksAtCenter) {
  std::vector<double> flat(21, 1.0);
  const auto biased = bias_scores(flat, 10.0, 3.0);
  EXPECT_NEAR(biased[10], 1.0, 1e-12);
  EXPECT_LT(biased[0], biased[10]);
  EXPECT_LT(biased[20], biased[10]);
  EXPECT_NEAR(biased[7], std::exp(-0.5), 1e-9);  // one sigma away
  EXPECT_THROW(bias_scores(flat, 10.0, 0.0), std::invalid_argument);
}

TEST(Tdeb, PeriodicSignalPulledTowardCenter) {
  // A periodic template matches at several delays with equal score; the
  // bias must select the one closest to the expected center (Fig. 5).
  const double period = 16.0;
  auto tone = [&](std::size_t n) {
    return std::sin(2.0 * std::numbers::pi * static_cast<double>(n) / period);
  };
  Signal x(160, 1, 100.0);
  for (std::size_t n = 0; n < x.frames(); ++n) x(n, 0) = tone(n);
  Signal y(32, 1, 100.0);
  for (std::size_t n = 0; n < y.frames(); ++n) y(n, 0) = tone(n);
  // Unbiased TDE may return any multiple of the period; TDEB centered at
  // 64 must return the match nearest 64 (which is exactly 64, since the
  // tone is periodic with period 16 | 64).
  const std::size_t biased = estimate_delay_biased(x, y, 64.0, 8.0);
  EXPECT_EQ(biased, 64u);
}

TEST(Tdeb, NoiseOnlyWindowStaysNearCenter) {
  // When the window is pure noise the unbiased argmax is arbitrary; the
  // bias keeps the estimate near the center (the paper's stability
  // argument).
  const Signal x = random_signal(300, 1, 31);
  const Signal y = random_signal(50, 1, 32);  // unrelated noise
  const double center = 125.0;
  const std::size_t j = estimate_delay_biased(x, y, center, 20.0);
  EXPECT_NEAR(static_cast<double>(j), center, 60.0);
}

TEST(Tdeb, StrongTrueMatchOverridesBias) {
  // A genuine match far from the center must still win against the bias
  // when it is unambiguous (score ~1 vs noise scores ~0).
  const Signal y = random_signal(40, 2, 41);
  Signal x = random_signal(300, 2, 42);
  const std::size_t at = 230;
  for (std::size_t n = 0; n < y.frames(); ++n) {
    for (std::size_t c = 0; c < 2; ++c) x(at + n, c) = y(n, c);
  }
  // Center at 40, sigma 120 — wide enough that exp(-0.5*(190/120)^2) ~ 0.28
  // times score 1.0 still beats every noise score (|noise| < ~0.28).
  const std::size_t j = estimate_delay_biased(x, y, 40.0, 120.0);
  EXPECT_EQ(j, at);
}

// --------------------------------------------------------------------------
// A workspace carried across calls scores bitwise like a fresh one, and
// the fused TDEB estimate matches the staged pipeline: same per-element
// arithmetic order, same first-occurrence argmax.
// --------------------------------------------------------------------------

TEST(TdeWorkspaceTier, SimilarityScoresAreBitwiseEqual) {
  TdeWorkspace ws;
  for (const std::size_t channels : {1u, 3u}) {
    const Signal x = random_signal(200, channels, 91 + channels);
    const Signal y = random_signal(40, channels, 92 + channels);
    const auto staged = scores_of(x, y);
    const auto fused = similarity_scores_into(x, y, {}, ws);
    ASSERT_EQ(staged.size(), fused.size());
    for (std::size_t n = 0; n < staged.size(); ++n) {
      EXPECT_EQ(staged[n], fused[n]) << "channels " << channels << " lag "
                                     << n;
    }
  }
}

TEST(TdeWorkspaceTier, FusedBiasedEstimateMatchesStagedPipeline) {
  // Reconstruct the unfused pipeline from the public pieces (score, clamp,
  // bias, argmax) and require the fused single pass to agree exactly.
  TdeWorkspace ws;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Signal x = random_signal(300, 2, 500 + seed);
    const Signal y = random_signal(50, 2, 600 + seed);
    const double center = static_cast<double>(20 + 17 * seed % 200);
    const double sigma = 5.0 + static_cast<double>(seed);

    auto scores = scores_of(x, y);
    for (auto& s : scores) s = std::max(s, 0.0);
    const auto biased = bias_scores(std::move(scores), center, sigma);
    const std::size_t staged = static_cast<std::size_t>(
        std::max_element(biased.begin(), biased.end()) - biased.begin());

    EXPECT_EQ(estimate_delay_biased(x, y, center, sigma), staged)
        << "seed " << seed;
    EXPECT_EQ(estimate_delay_biased(x, y, center, sigma, {}, ws), staged)
        << "seed " << seed;
  }
}

TEST(TdeWorkspaceTier, FusedHandlesTiedScoresLikeMaxElement) {
  // A constant observed window yields an all-zero (clamped) score array;
  // std::max_element returns the FIRST maximum, and the fused argmax must
  // do the same.
  Signal x(60, 1, 100.0);
  Signal y(20, 1, 100.0);
  for (std::size_t n = 0; n < 60; ++n) x(n, 0) = 1.0;
  for (std::size_t n = 0; n < 20; ++n) y(n, 0) = 1.0;
  TdeWorkspace ws;
  EXPECT_EQ(estimate_delay_biased(x, y, 30.0, 5.0), 0u);
  EXPECT_EQ(estimate_delay_biased(x, y, 30.0, 5.0, {}, ws), 0u);
}

TEST(TdeWorkspaceTier, FusedValidatesLikeStaged) {
  const Signal x = random_signal(50, 2, 7);
  const Signal y_bad = random_signal(20, 3, 8);
  TdeWorkspace ws;
  EXPECT_THROW(estimate_delay_biased(x, y_bad, 10.0, 5.0, {}, ws),
               std::invalid_argument);
  const Signal y = random_signal(20, 2, 9);
  EXPECT_THROW(estimate_delay_biased(x, y, 10.0, 0.0, {}, ws),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// The multichannel ("batched" over channels) scores pad each channel's
// correlation to dsp::correlation_fft_size(nx), not nx + ny.  Shapes at and
// around a power of two must still match a direct channel-averaged Pearson
// sum, and the per-channel scratch must really run that size.
// --------------------------------------------------------------------------

/// Channel-averaged Pearson similarity of every placement, summed directly.
std::vector<double> brute_force_similarity(const Signal& x, const Signal& y) {
  const std::size_t ny = y.frames();
  std::vector<double> out(x.frames() - ny + 1, 0.0);
  for (std::size_t n = 0; n < out.size(); ++n) {
    for (std::size_t c = 0; c < x.channels(); ++c) {
      double mx = 0.0;
      double my = 0.0;
      for (std::size_t i = 0; i < ny; ++i) {
        mx += x(n + i, c);
        my += y(i, c);
      }
      mx /= static_cast<double>(ny);
      my /= static_cast<double>(ny);
      double sxy = 0.0;
      double sxx = 0.0;
      double syy = 0.0;
      for (std::size_t i = 0; i < ny; ++i) {
        const double dx = x(n + i, c) - mx;
        const double dy = y(i, c) - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
      }
      out[n] += sxy / std::sqrt(sxx * syy);
    }
    out[n] /= static_cast<double>(x.channels());
  }
  return out;
}

TEST(TdeCorrelationSize, BatchedScoresExactAtTransformWrapBoundaries) {
  TdeWorkspace ws;
  for (const std::size_t k : {2u, 4u, 6u}) {
    const std::size_t p = std::size_t{1} << k;
    for (const std::size_t nx : {p - 1, p, p + 1}) {
      for (const std::size_t ny : {std::size_t{2}, nx / 2, nx}) {
        if (ny < 2 || ny > nx) continue;
        const Signal x = random_signal(nx, 3, 101 + nx);
        const Signal y = random_signal(ny, 3, 102 + ny);
        const auto fast = similarity_scores_into(x, y, {}, ws);
        EXPECT_EQ(ws.pearson.corr.plan->n, dsp::correlation_fft_size(nx))
            << "nx " << nx << " ny " << ny;
        const auto direct = brute_force_similarity(x, y);
        ASSERT_EQ(fast.size(), direct.size());
        for (std::size_t n = 0; n < direct.size(); ++n) {
          EXPECT_NEAR(fast[n], direct[n], 1e-9)
              << "nx " << nx << " ny " << ny << " lag " << n;
        }
        // A fresh workspace runs the same size.
        const auto staged = scores_of(x, y);
        for (std::size_t n = 0; n < direct.size(); ++n) {
          EXPECT_NEAR(staged[n], direct[n], 1e-9)
              << "nx " << nx << " ny " << ny << " lag " << n;
        }
      }
    }
  }
}

TEST(TdeCorrelationSize, DwmWindowsOfEveryTable4RateUseTheNxSize) {
  // One DWM TDEB window searches an n_win template across the extended
  // window of n_win + 2 n_ext reference frames.  Every channel count must
  // transform at next_power_of_two of that.
  TdeWorkspace ws;
  for (const eval::PrinterKind printer :
       {eval::PrinterKind::kUm3, eval::PrinterKind::kRm3}) {
    for (const sensors::SideChannel ch : sensors::all_side_channels()) {
      const double rate = eval::eval_channel_rate(ch);
      const DwmParams p = eval::dwm_params_for(printer, rate);
      const std::size_t nx = p.n_win + 2 * p.n_ext;
      const std::size_t m = dsp::next_power_of_two(nx);
      for (const std::size_t channels : {1u, 2u}) {
        const Signal x = random_signal(nx, channels, 7);
        const Signal y = random_signal(p.n_win, channels, 8);
        (void)similarity_scores_into(x, y, {}, ws);
        EXPECT_EQ(ws.pearson.corr.plan->n, m) << eval::printer_name(printer) << " rate " << rate
                           << " channels " << channels;
      }
    }
  }
}

TEST(Tdeb, NegativeScoreShiftKeepsArgmaxMeaningful) {
  // All-negative score arrays (anti-correlated windows) must not break the
  // bias multiplication.
  Signal x(60, 1, 100.0);
  Signal y(20, 1, 100.0);
  for (std::size_t n = 0; n < 60; ++n) x(n, 0) = std::sin(0.3 * n);
  for (std::size_t n = 0; n < 20; ++n) y(n, 0) = -std::sin(0.3 * n);
  const std::size_t j = estimate_delay_biased(x, y, 20.0, 5.0);
  EXPECT_LT(j, 41u);  // must return a valid index without throwing
}

}  // namespace
}  // namespace nsync::core
