// Tests for the on-line DTW extension.
#include <gtest/gtest.h>

#include <cmath>

#include "core/online_dtw.hpp"
#include "signal/rng.hpp"
#include "test_support.hpp"

namespace nsync::core {
namespace {

using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;

Signal band_noise(std::size_t frames, std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, 2, 100.0);
  double lp0 = 0.0, lp1 = 0.0;
  for (std::size_t n = 0; n < frames; ++n) {
    lp0 += 0.35 * (rng.normal() - lp0);
    lp1 += 0.35 * (rng.normal() - lp1);
    s(n, 0) = lp0;
    s(n, 1) = lp1;
  }
  return s;
}

TEST(OnlineDtw, Validation) {
  Signal empty;
  EXPECT_THROW(OnlineDtw(empty, 8), std::invalid_argument);
  Signal ref = band_noise(100, 1);
  EXPECT_THROW(OnlineDtw(ref, 0), std::invalid_argument);
  OnlineDtw dtw(ref, 8);
  Signal wrong(4, 3, 100.0);
  EXPECT_THROW(dtw.push(wrong), std::invalid_argument);
}

TEST(OnlineDtw, IdenticalSignalStaysOnDiagonal) {
  const Signal b = band_noise(400, 2);
  OnlineDtw dtw(b, 10);
  dtw.push(b);
  ASSERT_EQ(dtw.frames(), 400u);
  for (std::size_t i = 5; i + 5 < dtw.frames(); ++i) {
    EXPECT_NEAR(dtw.h_disp()[i], 0.0, 1.0) << "frame " << i;
    EXPECT_NEAR(dtw.v_dist()[i], 0.0, 1e-9);
  }
}

TEST(OnlineDtw, RecoversConstantShiftWithinBand) {
  const Signal b = band_noise(500, 3);
  Signal a(420, 2, 100.0);
  for (std::size_t n = 0; n < a.frames(); ++n) {
    for (std::size_t c = 0; c < 2; ++c) a(n, c) = b(n + 6, c);
  }
  OnlineDtw dtw(b, 12);
  dtw.push(a);
  // After settling, the alignment follows j = i + 6.
  for (std::size_t i = 50; i + 5 < dtw.frames(); ++i) {
    EXPECT_NEAR(dtw.h_disp()[i], 6.0, 2.0) << "frame " << i;
  }
}

TEST(OnlineDtw, TracksGradualDrift) {
  const Signal b = band_noise(800, 4);
  // Observed plays back the reference 5 % slowly (index 0.95 n).
  Signal a(700, 2, 100.0);
  for (std::size_t n = 0; n < a.frames(); ++n) {
    const auto src = static_cast<std::size_t>(0.95 * static_cast<double>(n));
    for (std::size_t c = 0; c < 2; ++c) a(n, c) = b(src, c);
  }
  OnlineDtw dtw(b, 10);
  dtw.push(a);
  // By the end the displacement approaches -0.05 * 700 = -35.
  EXPECT_NEAR(dtw.h_disp().back(), -35.0, 6.0);
}

TEST(OnlineDtw, IncrementalEqualsOneShot) {
  const Signal b = band_noise(300, 5);
  const Signal a = band_noise(250, 6);
  OnlineDtw one(b, 8);
  one.push(a);
  OnlineDtw chunked(b, 8);
  std::size_t pos = 0;
  for (std::size_t chunk : {3u, 50u, 1u, 120u, 76u}) {
    const std::size_t end = std::min(pos + chunk, a.frames());
    chunked.push(SignalView(a).slice(pos, end));
    pos = end;
  }
  ASSERT_EQ(one.frames(), chunked.frames());
  for (std::size_t i = 0; i < one.frames(); ++i) {
    EXPECT_DOUBLE_EQ(one.h_disp()[i], chunked.h_disp()[i]);
  }
}

TEST(OnlineDtw, ReachesReferenceEnd) {
  // The observed signal replays the whole reference and then keeps going:
  // the alignment must reach the reference end and flag exhaustion.
  const Signal b = band_noise(120, 7);
  Signal a = b;
  test_support::append(a, band_noise(200, 8));
  OnlineDtw dtw(b, 10);
  dtw.push(a);
  EXPECT_TRUE(dtw.reference_exhausted());
}

class OnlineDtwBandSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OnlineDtwBandSweep, ShiftWithinBandIsRecovered) {
  // Shifts up to ~w/4 are recovered reliably; approaching the band edge the
  // greedy banded search becomes noise-sensitive on smooth signals — DTW's
  // "limited accuracy" pathology the paper reports.
  const std::size_t w = GetParam();
  const Signal b = band_noise(500, 9);
  const std::size_t shift = std::max<std::size_t>(1, w / 4);
  Signal a(400, 2, 100.0);
  for (std::size_t n = 0; n < a.frames(); ++n) {
    for (std::size_t c = 0; c < 2; ++c) a(n, c) = b(n + shift, c);
  }
  OnlineDtw dtw(b, w);
  dtw.push(a);
  EXPECT_NEAR(dtw.h_disp().back(), static_cast<double>(shift), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Bands, OnlineDtwBandSweep,
                         ::testing::Values(4, 8, 16, 32));

}  // namespace
}  // namespace nsync::core
