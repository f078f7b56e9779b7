// Tests for window functions and the spectrogram pipeline (Table III),
// batch and streaming.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <utility>
#include <vector>

#include "dsp/reference/reference.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/stft.hpp"
#include "dsp/streaming_stft.hpp"
#include "dsp/windows.hpp"
#include "eval/setup.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

namespace nsync::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Windows, BoxcarIsAllOnes) {
  const auto w = make_window(WindowType::kBoxcar, 8);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 1.0);
}

class WindowSymmetry : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowSymmetry, SymmetricAndBounded) {
  const auto w = make_window(GetParam(), 65);
  ASSERT_EQ(w.size(), 65u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << "i=" << i;
    EXPECT_GE(w[i], -1e-12);
    EXPECT_LE(w[i], 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WindowSymmetry,
                         ::testing::Values(WindowType::kBoxcar,
                                           WindowType::kHann,
                                           WindowType::kBlackmanHarris,
                                           WindowType::kGaussian));

TEST(Windows, HannEndpointsNearZeroCenterOne) {
  const auto w = make_window(WindowType::kHann, 33);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[16], 1.0, 1e-12);
}

TEST(Windows, GaussianPeaksAtCenter) {
  const auto w = gaussian_window(21, 3.0);
  EXPECT_NEAR(w[10], 1.0, 1e-12);
  EXPECT_LT(w.front(), w[10]);
  EXPECT_THROW(gaussian_window(5, 0.0), std::invalid_argument);
}

TEST(Windows, TrivialLengths) {
  EXPECT_EQ(make_window(WindowType::kHann, 0).size(), 0u);
  const auto w1 = make_window(WindowType::kBlackmanHarris, 1);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_DOUBLE_EQ(w1[0], 1.0);
}

TEST(Stft, GeometryMatchesTableIII) {
  // ACC at the paper's 4 kHz with delta_f = 20 Hz -> 200-sample window,
  // 101 bins; delta_t = 1/80 s -> 50-sample hop; 6 channels -> 606 output
  // channels (Table III: 101 x 6).
  StftConfig cfg;
  cfg.delta_f = 20.0;
  cfg.delta_t = 1.0 / 80.0;
  EXPECT_EQ(stft_window_samples(cfg, 4000.0), 200u);
  EXPECT_EQ(stft_hop_samples(cfg, 4000.0), 50u);

  nsync::signal::Signal s(4000, 6, 4000.0);
  const auto spec = spectrogram(s, cfg);
  EXPECT_EQ(spec.channels(), 606u);
  EXPECT_DOUBLE_EQ(spec.sample_rate(), 80.0);
}

TEST(Stft, ToneLandsInCorrectBin) {
  const double fs = 1000.0;
  const double tone = 100.0;
  nsync::signal::Signal s(4000, 1, fs);
  for (std::size_t n = 0; n < s.frames(); ++n) {
    s(n, 0) = std::sin(2.0 * kPi * tone * static_cast<double>(n) / fs);
  }
  StftConfig cfg;
  cfg.delta_f = 10.0;  // window = 100 samples, bins every 10 Hz
  cfg.delta_t = 0.05;
  const auto spec = spectrogram(s, cfg);
  // Expected peak bin: tone / delta_f = 10.
  for (std::size_t col = 1; col + 1 < spec.frames(); ++col) {
    std::size_t best = 0;
    for (std::size_t k = 0; k < spec.channels(); ++k) {
      if (spec(col, k) > spec(col, best)) best = k;
    }
    EXPECT_EQ(best, 10u) << "column " << col;
  }
}

TEST(Stft, SpectrogramIsTimeShiftTolerantPerColumn) {
  // The magnitude spectrum of a stationary tone does not depend on the
  // phase at which the window lands — the property that makes spectrograms
  // useful for comparing signals with small misalignment.
  const double fs = 1000.0;
  nsync::signal::Signal s(2048, 1, fs);
  for (std::size_t n = 0; n < s.frames(); ++n) {
    s(n, 0) = std::sin(2.0 * kPi * 50.0 * static_cast<double>(n) / fs);
  }
  StftConfig cfg;
  cfg.delta_f = 10.0;
  cfg.delta_t = 0.013;  // deliberately not phase-locked to the tone
  const auto spec = spectrogram(s, cfg);
  const std::size_t bin = 5;
  for (std::size_t col = 1; col + 1 < spec.frames(); ++col) {
    EXPECT_NEAR(spec(col, bin), spec(1, bin), 0.02 * spec(1, bin));
  }
}

TEST(Stft, LogMagnitudeCompresses) {
  nsync::signal::Signal s(512, 1, 1000.0);
  for (std::size_t n = 0; n < s.frames(); ++n) {
    s(n, 0) = 100.0 * std::sin(2.0 * kPi * 100.0 * static_cast<double>(n) /
                               1000.0);
  }
  StftConfig lin;
  lin.delta_f = 10.0;
  lin.delta_t = 0.05;
  StftConfig log = lin;
  log.log_magnitude = true;
  const auto a = spectrogram(s, lin);
  const auto b = spectrogram(s, log);
  double max_lin = 0.0, max_log = 0.0;
  for (std::size_t k = 0; k < a.channels(); ++k) {
    max_lin = std::max(max_lin, a(0, k));
    max_log = std::max(max_log, b(0, k));
  }
  EXPECT_GT(max_lin, 100.0);
  EXPECT_LT(max_log, 12.0);
  EXPECT_NEAR(max_log, std::log1p(max_lin), 1e-9);
}

/// The spectrogram one column and one channel at a time through
/// rfft_unplanned, the complex-fft() route the planned rfft replaced, with
/// the column's sqrt(re*re + im*im) magnitude.
nsync::signal::Signal reference_spectrogram(const nsync::signal::Signal& s,
                                            const StftConfig& cfg) {
  const std::size_t n_win = stft_window_samples(cfg, s.sample_rate());
  const std::size_t n_hop = stft_hop_samples(cfg, s.sample_rate());
  const std::size_t bins = n_win / 2 + 1;
  const std::size_t columns = (s.frames() - n_win) / n_hop + 1;
  const std::vector<double> window = make_window(cfg.window, n_win);
  nsync::signal::Signal out(columns, bins * s.channels(), 1.0 / cfg.delta_t);
  std::vector<double> x(n_win);
  for (std::size_t col = 0; col < columns; ++col) {
    for (std::size_t c = 0; c < s.channels(); ++c) {
      for (std::size_t i = 0; i < n_win; ++i) {
        x[i] = s(col * n_hop + i, c) * window[i];
      }
      const std::vector<Complex> spec = rfft_unplanned(x);
      for (std::size_t k = 0; k < bins; ++k) {
        const double re = spec[k].real();
        const double im = spec[k].imag();
        const double m = std::sqrt(re * re + im * im);
        out(col, c * bins + k) = cfg.log_magnitude ? std::log1p(m) : m;
      }
    }
  }
  return out;
}

bool same_bits(const nsync::signal::Signal& a, const nsync::signal::Signal& b) {
  return a.frames() == b.frames() && a.channels() == b.channels() &&
         std::memcmp(a.data(), b.data(),
                     a.frames() * a.channels() * sizeof(double)) == 0;
}

nsync::signal::Signal random_signal(std::size_t frames, std::size_t channels,
                                    std::uint64_t seed, double fs = 1000.0) {
  nsync::signal::Rng rng(seed);
  nsync::signal::Signal s(frames, channels, fs);
  for (std::size_t n = 0; n < frames; ++n) {
    for (std::size_t c = 0; c < channels; ++c) s(n, c) = rng.normal();
  }
  return s;
}

/// Pushes `chunk` through `stream` and appends the columns that push
/// emitted to `out`, so `out` ends up holding every column of the stream.
void push_and_collect(StreamingStft& stream,
                      const nsync::signal::SignalView& chunk,
                      nsync::signal::Signal& out) {
  stream.push(chunk);
  const nsync::signal::SignalView cols = stream.emitted();
  if (out.channels() == 0) {
    out = nsync::signal::Signal::empty(cols.channels(), cols.sample_rate());
  }
  for (std::size_t n = 0; n < cols.frames(); ++n) {
    out.append_frame(cols.frame(n));
  }
}

/// 20 Hz resolution at 80 columns/s: at rate_for(n) an n-sample window
/// with a hop of about n/4 samples.
StftConfig twenty_hz(bool log_magnitude = false) {
  StftConfig cfg;
  cfg.delta_f = 20.0;
  cfg.delta_t = 1.0 / 80.0;
  cfg.log_magnitude = log_magnitude;
  return cfg;
}

double rate_for(std::size_t n) { return 20.0 * static_cast<double>(n); }

TEST(Stft, SpectrogramMatchesPerChannelReferenceBitwise) {
  using nsync::sensors::SideChannel;
  struct Geometry {
    const char* name;
    StftConfig cfg;
    double fs;
    std::size_t channels;
  };
  // The six Table III geometries at the evaluation rates (n_win 20 or 33,
  // PWR with the boxcar window), a power-of-two window, log1p magnitudes
  // on the odd-length AUD window, and two windows above the direct-DFT
  // crossover (100 samples, and AUD's 200 at the paper's 4 kHz rate
  // resolution).  Windows the column sums as a direct DFT must match
  // spectrogram_dft_reference bit for bit; the ones on the rfft plan must
  // match the rfft_unplanned route bit for bit.
  std::vector<Geometry> geometries;
  const std::pair<SideChannel, std::size_t> roster[] = {
      {SideChannel::kAcc, 6}, {SideChannel::kTmp, 1}, {SideChannel::kMag, 3},
      {SideChannel::kAud, 2}, {SideChannel::kEpt, 1}, {SideChannel::kPwr, 1}};
  for (const auto& [ch, channels] : roster) {
    geometries.push_back({"table3", nsync::eval::table3_stft(ch),
                          nsync::eval::eval_channel_rate(ch), channels});
  }
  StftConfig pow2;
  pow2.delta_f = 16.0;  // 64-sample window at 1024 Hz
  pow2.delta_t = 1.0 / 64.0;
  geometries.push_back({"pow2", pow2, 1024.0, 3});
  StftConfig log_aud = nsync::eval::table3_stft(SideChannel::kAud);
  log_aud.log_magnitude = true;
  geometries.push_back({"log1p", log_aud, 4000.0, 2});
  geometries.push_back({"bluestein", twenty_hz(), rate_for(100), 2});
  StftConfig aud_200 = nsync::eval::table3_stft(SideChannel::kAud);
  aud_200.delta_f = 20.0;  // 200-sample window at 4 kHz
  geometries.push_back({"bluestein", aud_200, 4000.0, 1});

  std::size_t dft = 0;
  std::size_t planned = 0;
  const simd::Isa saved = simd::active_isa();
  for (const Geometry& g : geometries) {
    const auto s = random_signal(
        static_cast<std::size_t>(2.0 * g.fs), g.channels,
        g.channels * 1000 + static_cast<std::uint64_t>(g.fs), g.fs);
    const bool direct =
        detail::stft_uses_dft(stft_window_samples(g.cfg, g.fs));
    (direct ? dft : planned) += 1;
    const auto want = direct ? spectrogram_dft_reference(s, g.cfg)
                             : reference_spectrogram(s, g.cfg);
    for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
      if (!simd::set_backend(isa)) continue;
      EXPECT_TRUE(same_bits(spectrogram(s, g.cfg), want))
          << g.name << " fs=" << g.fs << " C=" << g.channels
          << " isa=" << simd::isa_name(isa)
          << (direct ? " (direct DFT)" : " (rfft plan)");
    }
  }
  simd::set_backend(saved);
  EXPECT_EQ(dft, 7u);  // the six Table III windows and log1p AUD
  EXPECT_EQ(planned, 3u);
}

TEST(Stft, DirectDftMatchesUnplannedRfftWithinBound) {
  // Every window the column sums directly agrees with the rfft_unplanned
  // route to 1e-12 of the column's largest bin.  The two differ only in
  // rounding: a direct sum of n products against a radix-2 / Bluestein
  // factorization.
  std::size_t served = 0;
  for (std::size_t n = 2; n <= detail::kStftDftMaxWindow; ++n) {
    if (!detail::stft_uses_dft(n)) continue;
    ++served;
    const StftConfig cfg = twenty_hz();
    const double fs = rate_for(n);
    ASSERT_EQ(stft_window_samples(cfg, fs), n);
    const auto s = random_signal(6 * n, 2, 31 + n, fs);
    const auto got = spectrogram(s, cfg);
    const auto want = reference_spectrogram(s, cfg);
    ASSERT_EQ(got.frames(), want.frames());
    ASSERT_EQ(got.channels(), want.channels());
    const std::size_t bins = n / 2 + 1;
    for (std::size_t col = 0; col < got.frames(); ++col) {
      for (std::size_t c = 0; c < s.channels(); ++c) {
        double largest = 0.0;
        for (std::size_t k = 0; k < bins; ++k) {
          largest = std::max(largest, want(col, c * bins + k));
        }
        for (std::size_t k = 0; k < bins; ++k) {
          EXPECT_LE(std::abs(got(col, c * bins + k) - want(col, c * bins + k)),
                    1e-12 * largest)
              << "n=" << n << " column " << col << " channel " << c
              << " bin " << k;
        }
      }
    }
  }
  // 2..64 less its six powers of two.
  EXPECT_EQ(served, detail::kStftDftMaxWindow - 1 - 6);
}

TEST(Stft, SmallWindowsMatchAcrossBackendsAndStreamingBitwise) {
  // n_win 2..64 on both routes, 1, 2 and 6 channels, linear and log1p:
  // the scalar and AVX2 backends write the same bits, and StreamingStft
  // fed in ragged chunks writes the same bits as spectrogram().
  const simd::Isa saved = simd::active_isa();
  for (std::size_t n = 2; n <= 64; ++n) {
    for (const std::size_t channels : {1u, 2u, 6u}) {
      for (const bool log_magnitude : {false, true}) {
        const StftConfig cfg = twenty_hz(log_magnitude);
        const double fs = rate_for(n);
        const auto s = random_signal(5 * n + 7, channels, 1000 * n + channels,
                                     fs);
        ASSERT_TRUE(simd::set_backend(simd::Isa::kScalar));
        const auto scalar = spectrogram(s, cfg);
        if (simd::set_backend(simd::Isa::kAvx2)) {
          EXPECT_TRUE(same_bits(spectrogram(s, cfg), scalar))
              << "avx2 n=" << n << " C=" << channels
              << " log=" << log_magnitude;
        }
        simd::set_backend(saved);
        StreamingStft stream(cfg, fs, channels);
        nsync::signal::Signal live;
        std::size_t pos = 0;
        for (std::size_t chunk = 1; pos < s.frames(); chunk = chunk * 3 + 1) {
          const std::size_t end = std::min(pos + chunk, s.frames());
          push_and_collect(stream, nsync::signal::SignalView(s).slice(pos, end),
                           live);
          pos = end;
        }
        EXPECT_TRUE(same_bits(live, scalar))
            << "streaming n=" << n << " C=" << channels
            << " log=" << log_magnitude;
      }
    }
  }
  simd::set_backend(saved);
}

TEST(Stft, ErrorsOnShortSignalOrBadConfig) {
  nsync::signal::Signal s(10, 1, 1000.0);
  StftConfig cfg;
  cfg.delta_f = 10.0;  // needs a 100-sample window
  cfg.delta_t = 0.01;
  EXPECT_THROW(spectrogram(s, cfg), std::invalid_argument);
  StftConfig bad;
  bad.delta_f = -1.0;
  EXPECT_THROW((void)stft_window_samples(bad, 1000.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Streaming STFT: the online spectrogram matches the batch one

using nsync::signal::Signal;
using nsync::signal::SignalView;

TEST(StreamingStft, MatchesOfflineSpectrogramExactly) {
  const Signal s = random_signal(4096, 2, 4);
  StftConfig cfg;
  cfg.delta_f = 20.0;  // 50-sample window at 1 kHz
  cfg.delta_t = 0.02;
  const Signal offline = spectrogram(s, cfg);

  StreamingStft stream(cfg, s.sample_rate(), s.channels());
  Signal live;
  // Push in ragged chunks.
  std::size_t pos = 0;
  for (std::size_t chunk : {7u, 100u, 23u, 1000u, 49u, 2000u, 917u}) {
    const std::size_t end = std::min(pos + chunk, s.frames());
    push_and_collect(stream, SignalView(s).slice(pos, end), live);
    pos = end;
  }
  push_and_collect(stream, SignalView(s).slice(pos, s.frames()), live);

  ASSERT_EQ(stream.columns(), offline.frames());
  ASSERT_EQ(live.frames(), offline.frames());
  ASSERT_EQ(live.channels(), offline.channels());
  for (std::size_t n = 0; n < live.frames(); ++n) {
    for (std::size_t c = 0; c < live.channels(); ++c) {
      EXPECT_DOUBLE_EQ(live(n, c), offline(n, c))
          << "column " << n << " channel " << c;
    }
  }
  EXPECT_DOUBLE_EQ(live.sample_rate(), offline.sample_rate());
}

TEST(StreamingStft, EmitsColumnsIncrementally) {
  StftConfig cfg;
  cfg.delta_f = 10.0;  // 100-sample window
  cfg.delta_t = 0.05;  // 50-sample hop
  StreamingStft stream(cfg, 1000.0, 1);
  EXPECT_EQ(stream.window_samples(), 100u);
  EXPECT_EQ(stream.hop_samples(), 50u);

  const Signal part = random_signal(99, 1, 5);
  EXPECT_EQ(stream.push(part), 0u);  // one short of a full window
  const Signal one = random_signal(1, 1, 6);
  EXPECT_EQ(stream.push(one), 1u);
  const Signal fifty = random_signal(50, 1, 7);
  EXPECT_EQ(stream.push(fifty), 1u);
  EXPECT_EQ(stream.columns(), 2u);
}

TEST(StreamingStft, ChannelMismatchThrows) {
  StftConfig cfg;
  StreamingStft stream(cfg, 1000.0, 2);
  const Signal wrong = random_signal(10, 3, 8);
  EXPECT_THROW(stream.push(wrong), std::invalid_argument);
  EXPECT_THROW(StreamingStft(cfg, 1000.0, 0), std::invalid_argument);
}

TEST(StreamingStft, LogMagnitudeMatchesOffline) {
  const Signal s = random_signal(1024, 1, 9);
  StftConfig cfg;
  cfg.delta_f = 20.0;
  cfg.delta_t = 0.02;
  cfg.log_magnitude = true;
  const Signal offline = spectrogram(s, cfg);
  StreamingStft stream(cfg, s.sample_rate(), 1);
  Signal live;
  push_and_collect(stream, s, live);
  ASSERT_EQ(stream.columns(), offline.frames());
  ASSERT_EQ(live.frames(), offline.frames());
  for (std::size_t n = 0; n < offline.frames(); ++n) {
    EXPECT_DOUBLE_EQ(live(n, 3), offline(n, 3));
  }
}

}  // namespace
}  // namespace nsync::dsp
