// Edge-case and failure-injection tests across modules: degenerate inputs,
// pathological DAQ settings, exotic-but-legal parameter combinations.
#include <gtest/gtest.h>

#include <cmath>

#include "core/discriminator.hpp"
#include "core/dwm.hpp"
#include "baselines/gatlin.hpp"
#include "sensors/daq.hpp"
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

TEST(DaqEdge, DropEverything) {
  Signal s(1000, 1, 100.0);
  sensors::DaqConfig cfg;
  cfg.gain_jitter_std = 0.0;
  cfg.frame_drop_probability = 1.0;
  cfg.frame_samples = 100;
  Rng rng(1);
  const Signal out = sensors::apply_daq(s, cfg, rng);
  EXPECT_EQ(out.frames(), 0u);
  EXPECT_EQ(out.channels(), 1u);  // shape survives even when data does not
}

TEST(DaqEdge, FrameLargerThanSignal) {
  Signal s(10, 2, 100.0);
  sensors::DaqConfig cfg;
  cfg.gain_jitter_std = 0.0;
  cfg.frame_drop_probability = 0.0;
  cfg.frame_samples = 1000;
  Rng rng(2);
  const Signal out = sensors::apply_daq(s, cfg, rng);
  EXPECT_EQ(out.frames(), 10u);  // partial trailing frame is kept
}

TEST(DaqEdge, QuantizeExtremeValues) {
  Signal s = Signal::from_frames({1e9, -1e9, 0.0}, 1, 10.0);
  const Signal q = sensors::quantize(s, 16, 1.0);
  // Values far outside full scale still land on the grid (no clipping in
  // this model; the ADC step is what matters for comparison metrics).
  const double step = 1.0 / 32768.0;
  for (std::size_t i = 0; i < 3; ++i) {
    const double ratio = q(i, 0) / step;
    EXPECT_NEAR(ratio, std::round(ratio), 1e-6);
  }
}

TEST(DwmEdge, EtaOneTracksImmediately) {
  // eta = 1.0 makes h_disp_low equal h_disp exactly (Eq. 12 degenerates).
  const Signal b = band_noise(900, 2, 3);
  Signal a(700, 2, 100.0);
  for (std::size_t n = 0; n < a.frames(); ++n) {
    for (std::size_t c = 0; c < 2; ++c) a(n, c) = b(n + 4, c);
  }
  core::DwmParams p;
  p.n_win = 64;
  p.n_hop = 32;
  p.n_ext = 16;
  p.n_sigma = 8.0;
  p.eta = 1.0;
  const auto r = core::DwmSynchronizer::align(a, b, p);
  for (std::size_t i = 0; i < r.h_disp.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.h_disp_low[i], r.h_disp[i]);
  }
}

TEST(DwmEdge, HopEqualsWindowIsLegal) {
  const Signal b = band_noise(600, 1, 4);
  core::DwmParams p;
  p.n_win = 50;
  p.n_hop = 50;  // non-overlapping windows
  p.n_ext = 10;
  p.n_sigma = 5.0;
  const auto r = core::DwmSynchronizer::align(b, b, p);
  EXPECT_GT(r.h_disp.size(), 8u);
  for (double h : r.h_disp) EXPECT_DOUBLE_EQ(h, 0.0);
}

TEST(DwmEdge, ObservedShorterThanOneWindow) {
  const Signal b = band_noise(500, 1, 5);
  core::DwmParams p;
  p.n_win = 100;
  p.n_hop = 50;
  p.n_ext = 10;
  p.n_sigma = 5.0;
  core::DwmSynchronizer sync(b, p);
  const Signal tiny = band_noise(99, 1, 6);
  EXPECT_EQ(sync.push(tiny), 0u);
  EXPECT_EQ(sync.windows(), 0u);
  EXPECT_FALSE(sync.reference_exhausted());
}

TEST(DiscriminatorEdge, EmptyFeaturesAreBenign) {
  core::DetectionFeatures f;  // no windows at all
  const auto d = core::discriminate(f, {0.0, 0.0, 0.0});
  EXPECT_FALSE(d.intrusion);
  EXPECT_EQ(d.first_alarm_window, -1);
}

TEST(DiscriminatorEdge, SingleWindowSignal) {
  const auto f = core::compute_features(std::vector<double>{5.0},
                                        std::vector<double>{0.4}, 3);
  EXPECT_EQ(f.c_disp.size(), 1u);
  EXPECT_DOUBLE_EQ(f.c_disp[0], 5.0);  // |5 - 0|
  EXPECT_DOUBLE_EQ(f.h_dist_f[0], 5.0);
  EXPECT_DOUBLE_EQ(f.v_dist_f[0], 0.4);
}

TEST(GatlinEdge, LayerShorterThanFftChunk) {
  // Layers shorter than the fingerprint FFT must not crash; the spectrum
  // window is extended to the minimum length.
  baselines::LayeredSignal s;
  s.signal = band_noise(600, 1, 7);
  s.layer_times = {0.0, 0.5, 1.0, 5.5};  // 50-sample layers at 100 Hz
  const auto prints = baselines::layer_fingerprints(s, 8);
  EXPECT_EQ(prints.size(), 4u);
  for (const auto& p : prints) {
    EXPECT_LE(p.size(), 8u);
  }
}

TEST(GatlinEdge, EmptyFingerprintMatchesTrivially) {
  const baselines::LayerFingerprint empty;
  const baselines::LayerFingerprint some = {1, 2, 3};
  EXPECT_DOUBLE_EQ(baselines::fingerprint_match(empty, some), 1.0);
  EXPECT_DOUBLE_EQ(baselines::fingerprint_match(some, empty), 0.0);
}

TEST(SignalEdge, AppendFrameToDefaultConstructedSignal) {
  Signal s;  // channels unknown until first frame
  const double row[] = {1.0, 2.0, 3.0};
  s.append_frame(row);
  EXPECT_EQ(s.channels(), 3u);
  EXPECT_EQ(s.frames(), 1u);
}

}  // namespace
}  // namespace nsync
