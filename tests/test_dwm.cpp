// Tests for Dynamic Window Matching (Section VI-B), the paper's core
// contribution: parameter validation, tracking of synthetic time warps,
// streaming/batch equivalence, the inertial tracker and reference
// exhaustion.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dwm.hpp"
#include "signal/rng.hpp"

namespace nsync::core {
namespace {

using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;

/// A feature-rich reference signal: smoothed noise (band-limited enough
/// that TDE peaks are unambiguous).
Signal make_reference(std::size_t frames, std::uint64_t seed) {
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

/// Builds an observed signal from the reference with a piecewise-constant
/// time shift: a[n] = b[n + shift(n)].  `breaks` maps start-index -> shift.
Signal shifted_copy(const Signal& b,
                    const std::vector<std::pair<std::size_t, int>>& breaks,
                    std::size_t frames) {
  Signal a(frames, b.channels(), b.sample_rate());
  for (std::size_t n = 0; n < frames; ++n) {
    int shift = 0;
    for (const auto& [at, s] : breaks) {
      if (n >= at) shift = s;
    }
    const auto src = static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(n) + shift, 0,
                                   static_cast<std::ptrdiff_t>(b.frames() - 1)));
    for (std::size_t c = 0; c < b.channels(); ++c) {
      a(n, c) = b(src, c);
    }
  }
  return a;
}

DwmParams test_params() {
  DwmParams p;
  p.n_win = 64;
  p.n_hop = 32;
  p.n_ext = 24;
  p.n_sigma = 12.0;
  p.eta = 0.2;
  return p;
}

TEST(DwmParams, ValidationCatchesEveryField) {
  DwmParams p = test_params();
  EXPECT_NO_THROW(p.validate());
  p.n_win = 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.n_hop = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.n_hop = p.n_win + 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.n_ext = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.n_sigma = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.eta = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.eta = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Dwm, IdenticalSignalsYieldZeroDisplacement) {
  const Signal b = make_reference(1200, 1);
  const DwmResult r = DwmSynchronizer::align(b, b, test_params());
  ASSERT_GT(r.h_disp.size(), 10u);
  for (double h : r.h_disp) {
    EXPECT_DOUBLE_EQ(h, 0.0);
  }
}

TEST(Dwm, RecoversConstantShift) {
  const Signal b = make_reference(1200, 2);
  const Signal a = shifted_copy(b, {{0, 10}}, 1000);
  const DwmResult r = DwmSynchronizer::align(a, b, test_params());
  ASSERT_GT(r.h_disp.size(), 5u);
  // After the tracker settles, h_disp must equal the true shift.
  for (std::size_t i = 2; i < r.h_disp.size(); ++i) {
    EXPECT_NEAR(r.h_disp[i], 10.0, 1.0) << "window " << i;
  }
}

TEST(Dwm, TracksStepChangeInShift) {
  const Signal b = make_reference(2400, 3);
  // Shift jumps from 0 to 15 at sample 1000 (within n_ext = 24).
  const Signal a = shifted_copy(b, {{0, 0}, {1000, 15}}, 2000);
  const DwmResult r = DwmSynchronizer::align(a, b, test_params());
  ASSERT_GT(r.h_disp.size(), 40u);
  // Early windows ~0, late windows ~15.
  EXPECT_NEAR(r.h_disp[2], 0.0, 1.0);
  for (std::size_t i = r.h_disp.size() - 5; i < r.h_disp.size(); ++i) {
    EXPECT_NEAR(r.h_disp[i], 15.0, 2.0) << "window " << i;
  }
}

TEST(Dwm, TracksGradualDriftBeyondExt) {
  // Total drift of 60 samples >> n_ext = 24; only the inertial tracker
  // makes this reachable (Section VI-B, "extending the range of h_disp").
  const Signal b = make_reference(3600, 4);
  std::vector<std::pair<std::size_t, int>> breaks;
  for (int k = 0; k < 12; ++k) {
    breaks.push_back({200 + 200 * static_cast<std::size_t>(k), 5 * (k + 1)});
  }
  const Signal a = shifted_copy(b, breaks, 3000);
  const DwmResult r = DwmSynchronizer::align(a, b, test_params());
  ASSERT_GT(r.h_disp.size(), 30u);
  for (std::size_t i = r.h_disp.size() - 3; i < r.h_disp.size(); ++i) {
    EXPECT_NEAR(r.h_disp[i], 60.0, 3.0) << "window " << i;
  }
}

TEST(Dwm, HDispLowFollowsEq12) {
  const Signal b = make_reference(1600, 5);
  const Signal a = shifted_copy(b, {{0, 8}}, 1400);
  const DwmParams p = test_params();
  const DwmResult r = DwmSynchronizer::align(a, b, p);
  double low_prev = 0.0;
  for (std::size_t i = 0; i < r.h_disp.size(); ++i) {
    const double expected =
        std::round(p.eta * (r.h_disp[i] - low_prev)) + low_prev;
    EXPECT_NEAR(r.h_disp_low[i], expected, 1e-9) << "window " << i;
    low_prev = r.h_disp_low[i];
  }
}

TEST(Dwm, HDistIsAbsoluteValue) {
  const Signal b = make_reference(1600, 6);
  const Signal a = shifted_copy(b, {{0, -12}}, 1400);
  const DwmResult r = DwmSynchronizer::align(a, b, test_params());
  for (std::size_t i = 0; i < r.h_disp.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.h_dist[i], std::abs(r.h_disp[i]));
  }
  // Negative shifts are representable.
  EXPECT_NEAR(r.h_disp.back(), -12.0, 2.0);
}

TEST(Dwm, StreamingMatchesBatch) {
  const Signal b = make_reference(1600, 7);
  const Signal a = shifted_copy(b, {{0, 0}, {700, 9}}, 1400);
  const DwmResult batch = DwmSynchronizer::align(a, b, test_params());

  DwmSynchronizer stream(b, test_params());
  // Push in awkward chunk sizes.
  std::size_t pos = 0;
  const std::size_t chunks[] = {1, 13, 64, 200, 7, 500, 615};
  for (std::size_t chunk : chunks) {
    const std::size_t end = std::min(pos + chunk, a.frames());
    stream.push(SignalView(a).slice(pos, end));
    pos = end;
  }
  stream.push(SignalView(a).slice(pos, a.frames()));

  ASSERT_EQ(stream.result().h_disp.size(), batch.h_disp.size());
  for (std::size_t i = 0; i < batch.h_disp.size(); ++i) {
    EXPECT_DOUBLE_EQ(stream.result().h_disp[i], batch.h_disp[i])
        << "window " << i;
  }
}

TEST(Dwm, StreamingReturnsNewWindowCounts) {
  const Signal b = make_reference(800, 8);
  DwmSynchronizer stream(b, test_params());
  // 63 frames: no window yet (needs 64).
  Signal part(63, 2, 100.0);
  EXPECT_EQ(stream.push(part), 0u);
  // One more frame completes window 0.
  Signal one(1, 2, 100.0);
  EXPECT_EQ(stream.push(one), 1u);
  EXPECT_EQ(stream.windows(), 1u);
}

TEST(Dwm, ReferenceExhaustionStopsProcessing) {
  const Signal b = make_reference(300, 9);
  const Signal a = make_reference(900, 10);  // much longer than reference
  DwmSynchronizer stream(b, test_params());
  stream.push(a);
  EXPECT_TRUE(stream.reference_exhausted());
  // Windows stop well before the observed signal ends.
  EXPECT_LT(stream.windows() * test_params().n_hop + test_params().n_win,
            a.frames());
}

TEST(Dwm, ChannelMismatchThrows) {
  const Signal b = make_reference(400, 11);
  DwmSynchronizer stream(b, test_params());
  Signal wrong(10, 5, 100.0);
  EXPECT_THROW(stream.push(wrong), std::invalid_argument);
}

TEST(Dwm, ShortReferenceThrows) {
  Signal b(10, 1, 100.0);
  EXPECT_THROW(DwmSynchronizer(b, test_params()), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Ring-buffered observed stream: results must match the append-everything
// semantics exactly while memory stays independent of stream length.
// --------------------------------------------------------------------------

TEST(DwmRing, BoundedMemoryOverLongStream) {
  const DwmParams p = test_params();
  const Signal b = make_reference(16000, 13);
  const Signal a = shifted_copy(b, {{0, 4}}, 100 * p.n_win);  // 6400 frames
  const DwmResult batch = DwmSynchronizer::align(a, b, p);

  DwmSynchronizer stream(b, p);
  stream.reserve_windows(batch.h_disp.size());
  const std::size_t warm_capacity = stream.observed().capacity_frames();
  std::size_t peak_retained = 0;
  for (std::size_t pos = 0; pos < a.frames(); pos += p.n_hop) {
    const std::size_t end = std::min(pos + p.n_hop, a.frames());
    stream.push(SignalView(a).slice(pos, end));
    peak_retained = std::max(peak_retained,
                             stream.observed().retained_frames());
  }
  // Retention is bounded by a small multiple of the window geometry, never
  // by the 100-window stream length, and reserve_windows sized the buffer
  // so the stream never had to grow it.
  EXPECT_LE(peak_retained, 2 * (p.n_win + p.n_hop));
  EXPECT_EQ(stream.observed().capacity_frames(), warm_capacity);

  // Dropping frames must not have changed a single output bit.
  ASSERT_EQ(stream.result().h_disp.size(), batch.h_disp.size());
  for (std::size_t i = 0; i < batch.h_disp.size(); ++i) {
    EXPECT_DOUBLE_EQ(stream.result().h_disp[i], batch.h_disp[i])
        << "window " << i;
    EXPECT_DOUBLE_EQ(stream.result().h_disp_low[i], batch.h_disp_low[i])
        << "window " << i;
  }
}

TEST(DwmRing, CompletedWindowsStayReadableUntilNextPush) {
  // RealtimeMonitor reads observed frames of every window the push just
  // completed; the ring must keep them until the next push.
  const DwmParams p = test_params();
  const Signal b = make_reference(4000, 14);
  const Signal a = shifted_copy(b, {{0, 6}}, 3200);
  DwmSynchronizer stream(b, p);
  std::size_t before = 0;
  for (std::size_t pos = 0; pos < a.frames(); pos += 96) {
    const std::size_t end = std::min(pos + 96, a.frames());
    stream.push(SignalView(a).slice(pos, end));
    for (std::size_t i = before; i < stream.windows(); ++i) {
      const std::size_t a_start = i * p.n_hop;
      const SignalView win =
          stream.observed().view(a_start, a_start + p.n_win);
      EXPECT_EQ(win.frames(), p.n_win);
      EXPECT_DOUBLE_EQ(win(0, 0), a(a_start, 0)) << "window " << i;
    }
    before = stream.windows();
  }
  // Frames behind the processing frontier are genuinely gone.
  if (stream.windows() > 2) {
    EXPECT_THROW((void)stream.observed().view(0, p.n_win), std::out_of_range);
  }
}

TEST(DwmRing, ExhaustedReferenceRetainsNothing) {
  const DwmParams p = test_params();
  const Signal b = make_reference(300, 15);
  const Signal a = make_reference(900, 16);
  DwmSynchronizer stream(b, p);
  stream.push(a);
  ASSERT_TRUE(stream.reference_exhausted());
  const std::size_t windows_at_exhaustion = stream.windows();
  const auto result_at_exhaustion = stream.result();

  // Further pushes on a dead synchronizer keep only the just-pushed chunk
  // (dropped again on the next push) and change no results.
  const Signal more = make_reference(500, 17);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(stream.push(more), 0u);
    EXPECT_EQ(stream.observed().retained_frames(), more.frames());
    EXPECT_EQ(stream.windows(), windows_at_exhaustion);
  }
  ASSERT_EQ(stream.result().h_disp.size(),
            result_at_exhaustion.h_disp.size());
  for (std::size_t i = 0; i < result_at_exhaustion.h_disp.size(); ++i) {
    EXPECT_DOUBLE_EQ(stream.result().h_disp[i],
                     result_at_exhaustion.h_disp[i]);
  }
}

class DwmEtaProperty : public ::testing::TestWithParam<double> {};

TEST_P(DwmEtaProperty, ConvergesForReasonableEta) {
  const double eta = GetParam();
  const Signal b = make_reference(2000, 12);
  const Signal a = shifted_copy(b, {{0, 14}}, 1800);
  DwmParams p = test_params();
  p.eta = eta;
  const DwmResult r = DwmSynchronizer::align(a, b, p);
  ASSERT_GT(r.h_disp.size(), 10u);
  EXPECT_NEAR(r.h_disp.back(), 14.0, 2.0) << "eta=" << eta;
}

INSTANTIATE_TEST_SUITE_P(Etas, DwmEtaProperty,
                         ::testing::Values(0.05, 0.1, 0.3, 0.6, 1.0));

}  // namespace
}  // namespace nsync::core
