// Tests for the sensor-fault injector, the channel-health state machine,
// the validity-mask plumbing through DWM -> comparator -> discriminator ->
// fusion, and regression tests for the degenerate-input bugs the fault
// harness exposed (non-finite windows in the sliding correlation, '+'
// signed G-code values, DAQ trailing-partial-frame drops).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "core/dwm.hpp"
#include "core/fusion.hpp"
#include "core/health.hpp"
#include "core/nsync.hpp"
#include "dsp/reference/reference.hpp"
#include "dsp/xcorr.hpp"
#include "gcode/parser.hpp"
#include "sensors/daq.hpp"
#include "sensors/fault_injector.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"
#include "signal/stats.hpp"
#include "test_support.hpp"

namespace nsync {
namespace {

using nsync::core::ChannelHealth;
using nsync::core::ChannelHealthMonitor;
using nsync::core::HealthPolicy;
using nsync::sensors::FaultConfig;
using nsync::sensors::FaultInjector;
using nsync::sensors::FaultKind;
using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Band-limited random signal (the usual DWM test substrate).
Signal make_reference(std::size_t frames, std::uint64_t seed,
                      std::size_t channels = 1) {
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

/// Benign observation: reference + rate jitter + measurement noise.
Signal benign_observation(const Signal& b, std::uint64_t seed) {
  Rng rng(seed);
  Signal a = Signal::empty(b.channels(), b.sample_rate());
  double src = 0.0;
  std::vector<double> row(b.channels());
  while (src < static_cast<double>(b.frames() - 1)) {
    const auto i0 = static_cast<std::size_t>(src);
    const double frac = src - static_cast<double>(i0);
    const std::size_t i1 = std::min(i0 + 1, b.frames() - 1);
    for (std::size_t c = 0; c < b.channels(); ++c) {
      row[c] = (1.0 - frac) * b(i0, c) + frac * b(i1, c) +
               rng.normal(0.0, 0.01);
    }
    a.append_frame(row);
    src += 1.0 + rng.normal(0.0, 0.002);
  }
  return a;
}

/// Malicious observation: middle third replaced with unrelated content.
Signal malicious_observation(const Signal& b, std::uint64_t seed) {
  Signal a = benign_observation(b, seed);
  Rng rng(seed + 5000);
  const std::size_t lo = a.frames() / 3;
  const std::size_t hi = 2 * a.frames() / 3;
  double lp = 0.0;
  for (std::size_t n = lo; n < hi; ++n) {
    lp += 0.35 * (rng.normal() - lp);
    for (std::size_t c = 0; c < a.channels(); ++c) {
      a(n, c) = lp;
    }
  }
  return a;
}

core::NsyncConfig dwm_config() {
  core::NsyncConfig cfg;
  cfg.sync = core::SyncMethod::kDwm;
  cfg.dwm.n_win = 64;
  cfg.dwm.n_hop = 32;
  cfg.dwm.n_ext = 24;
  cfg.dwm.n_sigma = 12.0;
  cfg.dwm.eta = 0.2;
  cfg.r = 0.3;
  return cfg;
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

bool features_finite(const core::DetectionFeatures& f) {
  return all_finite(f.c_disp) && all_finite(f.h_dist_f) &&
         all_finite(f.v_dist_f);
}

// ---------------------------------------------------------------------------
// FaultConfig / FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultConfig, DefaultIsPassThrough) {
  const Signal in = make_reference(500, 1, 2);
  FaultInjector inj(FaultConfig{}, 42);
  const Signal out = inj.apply(in);
  ASSERT_EQ(out.frames(), in.frames());
  ASSERT_EQ(out.channels(), in.channels());
  for (std::size_t n = 0; n < in.frames(); ++n) {
    for (std::size_t c = 0; c < in.channels(); ++c) {
      EXPECT_EQ(out(n, c), in(n, c));
    }
  }
  EXPECT_TRUE(inj.events().empty());
  EXPECT_EQ(inj.frames_in(), in.frames());
  EXPECT_EQ(inj.frames_out(), in.frames());
}

TEST(FaultConfig, ValidateRejectsOutOfRangeValues) {
  FaultConfig bad;
  bad.dropout_rate = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = FaultConfig{};
  bad.stuck_frames_mean = 0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = FaultConfig{};
  bad.clock_skew = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = FaultConfig{};
  bad.nan_burst_rate = kNan;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FaultInjector, SeededDeterminism) {
  FaultConfig cfg;
  cfg.dropout_rate = 0.01;
  cfg.stuck_rate = 0.01;
  cfg.nan_burst_rate = 0.005;
  cfg.gain_step_rate = 0.002;
  const Signal in = make_reference(1200, 7, 2);

  auto run = [&](std::uint64_t seed) {
    FaultInjector inj(cfg, seed);
    Signal out = Signal::empty(in.channels(), in.sample_rate());
    for (std::size_t pos = 0; pos < in.frames(); pos += 300) {
      const std::size_t end = std::min(pos + 300, in.frames());
      const Signal chunk = inj.apply(SignalView(in).slice(pos, end));
      test_support::append(out, chunk);
    }
    return std::make_pair(std::move(out), inj.events());
  };

  const auto [out_a, ev_a] = run(99);
  const auto [out_b, ev_b] = run(99);
  ASSERT_EQ(out_a.frames(), out_b.frames());
  for (std::size_t n = 0; n < out_a.frames(); ++n) {
    for (std::size_t c = 0; c < out_a.channels(); ++c) {
      const double a = out_a(n, c), b = out_b(n, c);
      EXPECT_TRUE(a == b || (std::isnan(a) && std::isnan(b)));
    }
  }
  ASSERT_EQ(ev_a.size(), ev_b.size());
  for (std::size_t i = 0; i < ev_a.size(); ++i) {
    EXPECT_EQ(ev_a[i].kind, ev_b[i].kind);
    EXPECT_EQ(ev_a[i].start, ev_b[i].start);
    EXPECT_EQ(ev_a[i].frames, ev_b[i].frames);
  }

  const auto [out_c, ev_c] = run(100);
  EXPECT_TRUE(out_c.frames() != out_a.frames() || ev_c.size() != ev_a.size() ||
              !ev_a.empty());
}

TEST(FaultInjector, DropoutShortensStream) {
  FaultConfig cfg;
  cfg.dropout_rate = 0.02;
  cfg.dropout_frames_mean = 6.0;
  const Signal in = make_reference(3000, 11);
  FaultInjector inj(cfg, 5);
  const Signal out = inj.apply(in);
  EXPECT_LT(out.frames(), in.frames());
  ASSERT_FALSE(inj.events().empty());
  for (const auto& e : inj.events()) {
    EXPECT_EQ(e.kind, FaultKind::kDropout);
    EXPECT_LT(e.start, in.frames());
    EXPECT_GE(e.frames, 1u);
  }
  EXPECT_EQ(inj.frames_in(), in.frames());
  EXPECT_EQ(inj.frames_out(), out.frames());
}

TEST(FaultInjector, StuckAtRepeatsThePreviousFrame) {
  FaultConfig cfg;
  cfg.stuck_rate = 0.01;
  cfg.stuck_frames_mean = 8.0;
  const Signal in = make_reference(3000, 13, 2);
  FaultInjector inj(cfg, 21);
  const Signal out = inj.apply(in);
  ASSERT_EQ(out.frames(), in.frames());  // stuck-at preserves the timeline
  bool checked = false;
  for (const auto& e : inj.events()) {
    ASSERT_EQ(e.kind, FaultKind::kStuckAt);
    if (e.start == 0 || e.start + e.frames > out.frames()) continue;
    for (std::size_t k = 0; k < e.frames; ++k) {
      for (std::size_t c = 0; c < out.channels(); ++c) {
        EXPECT_EQ(out(e.start + k, c), out(e.start - 1, c));
      }
    }
    checked = true;
  }
  EXPECT_TRUE(checked);
}

TEST(FaultInjector, NanBurstMarksExactlyTheLoggedFrames) {
  FaultConfig cfg;
  cfg.nan_burst_rate = 0.005;
  cfg.nan_burst_frames_mean = 4.0;
  cfg.inf_fraction = 0.0;
  const Signal in = make_reference(3000, 17);
  FaultInjector inj(cfg, 3);
  const Signal out = inj.apply(in);
  ASSERT_EQ(out.frames(), in.frames());
  ASSERT_FALSE(inj.events().empty());
  std::vector<bool> in_burst(out.frames(), false);
  for (const auto& e : inj.events()) {
    ASSERT_EQ(e.kind, FaultKind::kNanBurst);
    for (std::size_t k = 0; k < e.frames && e.start + k < out.frames(); ++k) {
      in_burst[e.start + k] = true;
    }
  }
  for (std::size_t n = 0; n < out.frames(); ++n) {
    EXPECT_EQ(std::isnan(out(n, 0)), in_burst[n]) << "frame " << n;
  }
}

TEST(FaultInjector, GainStepScalesPersistently) {
  FaultConfig cfg;
  cfg.gain_step_rate = 0.003;
  cfg.gain_step_std = 0.3;
  const Signal in = make_reference(4000, 29);
  FaultInjector inj(cfg, 8);
  const Signal out = inj.apply(in);
  ASSERT_EQ(out.frames(), in.frames());
  ASSERT_FALSE(inj.events().empty());
  double gain = 1.0;
  std::size_t next_event = 0;
  const auto& events = inj.events();
  for (std::size_t n = 0; n < out.frames(); ++n) {
    while (next_event < events.size() && events[next_event].start <= n) {
      gain = events[next_event].value;  // cumulative gain after the step
      ++next_event;
    }
    EXPECT_NEAR(out(n, 0), in(n, 0) * gain,
                1e-12 * std::max(1.0, std::abs(in(n, 0) * gain)));
  }
  EXPECT_NEAR(inj.gain(), gain, 1e-15);
}

TEST(FaultInjector, SaturationClampsAmplitude) {
  FaultConfig cfg;
  cfg.saturation_level = 0.25;
  const Signal in = make_reference(1000, 31);
  FaultInjector inj(cfg, 1);
  const Signal out = inj.apply(in);
  ASSERT_EQ(out.frames(), in.frames());
  for (std::size_t n = 0; n < out.frames(); ++n) {
    EXPECT_LE(std::abs(out(n, 0)), 0.25 + 1e-15);
    EXPECT_EQ(out(n, 0), std::clamp(in(n, 0), -0.25, 0.25));
  }
}

TEST(FaultInjector, DuplicationLengthensStream) {
  FaultConfig cfg;
  cfg.duplication_rate = 0.02;
  const Signal in = make_reference(2000, 37);
  FaultInjector inj(cfg, 2);
  const Signal out = inj.apply(in);
  std::size_t dups = 0;
  for (const auto& e : inj.events()) {
    ASSERT_EQ(e.kind, FaultKind::kFrameDuplication);
    ++dups;
  }
  EXPECT_GT(dups, 0u);
  EXPECT_EQ(out.frames(), in.frames() + dups);
}

TEST(FaultInjector, ClockSkewResamplesTheTimeline) {
  FaultConfig cfg;
  cfg.clock_skew = 0.01;  // DAQ clock 1 % fast
  const double fs = 1000.0;
  const std::size_t n_in = 2000;
  Signal in(n_in, 1, fs);
  for (std::size_t n = 0; n < n_in; ++n) {
    in(n, 0) = std::sin(2.0 * 3.14159265358979 * 5.0 *
                        static_cast<double>(n) / fs);
  }
  FaultInjector inj(cfg, 4);
  const Signal out = inj.apply(in);
  EXPECT_NEAR(static_cast<double>(out.frames()),
              static_cast<double>(n_in) / 1.01, 2.0);
  for (std::size_t k = 0; k < out.frames(); ++k) {
    const double pos = static_cast<double>(k) * 1.01;
    const double want =
        std::sin(2.0 * 3.14159265358979 * 5.0 * pos / fs);
    EXPECT_NEAR(out(k, 0), want, 1e-3);
  }
}

TEST(FaultInjector, ClockSkewIsSeamlessAcrossChunks) {
  FaultConfig cfg;
  cfg.clock_skew = 0.013;
  const Signal in = make_reference(1501, 41, 2);

  FaultInjector whole(cfg, 0);
  const Signal ref = whole.apply(in);

  FaultInjector chunked(cfg, 0);
  Signal got = Signal::empty(in.channels(), in.sample_rate());
  for (std::size_t pos = 0; pos < in.frames(); pos += 17) {
    const std::size_t end = std::min(pos + 17, in.frames());
    test_support::append(got, chunked.apply(SignalView(in).slice(pos, end)));
  }
  ASSERT_EQ(got.frames(), ref.frames());
  for (std::size_t n = 0; n < ref.frames(); ++n) {
    for (std::size_t c = 0; c < ref.channels(); ++c) {
      EXPECT_EQ(got(n, c), ref(n, c)) << "frame " << n;
    }
  }
}

TEST(FaultInjector, FlatlineFromReplacesTheTail) {
  const Signal in = make_reference(100, 43, 2);
  const Signal out = sensors::flatline_from(in, 40, 0.5);
  for (std::size_t n = 0; n < 40; ++n) {
    EXPECT_EQ(out(n, 0), in(n, 0));
  }
  for (std::size_t n = 40; n < 100; ++n) {
    EXPECT_EQ(out(n, 0), 0.5);
    EXPECT_EQ(out(n, 1), 0.5);
  }
  const Signal unchanged = sensors::flatline_from(in, 200);
  EXPECT_EQ(unchanged(99, 0), in(99, 0));
}

// ---------------------------------------------------------------------------
// Channel-health state machine
// ---------------------------------------------------------------------------

TEST(ChannelHealth, StartsHealthyAndStaysHealthyOnValidStream) {
  ChannelHealthMonitor m;
  EXPECT_EQ(m.state(), ChannelHealth::kHealthy);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.observe(true), ChannelHealth::kHealthy);
  }
  EXPECT_EQ(m.invalid_fraction(), 0.0);
}

TEST(ChannelHealth, DegradesOnElevatedInvalidFraction) {
  HealthPolicy p;
  p.history = 8;
  p.degraded_fraction = 0.25;
  p.offline_consecutive = 100;  // keep offline out of this test
  ChannelHealthMonitor m(p);
  // Alternate 1 invalid per 3 valid: fraction reaches 0.25 within history.
  ChannelHealth last = ChannelHealth::kHealthy;
  for (int i = 0; i < 16; ++i) {
    last = m.observe(i % 4 != 0);
  }
  EXPECT_EQ(last, ChannelHealth::kDegraded);
}

// Regression: invalid_fraction() divides by the number of *observed*
// windows during warm-up, so one invalid window out of two read as 50%
// invalid and flapped the channel to degraded seconds into a stream.  The
// fraction-based demotion now waits for a full history window.
TEST(ChannelHealth, WarmUpDoesNotFlapToDegraded) {
  HealthPolicy p;
  p.history = 8;
  p.degraded_fraction = 0.25;
  p.offline_consecutive = 100;  // keep the streak rule out of this test
  ChannelHealthMonitor m(p);
  EXPECT_EQ(m.observe(false), ChannelHealth::kHealthy);
  EXPECT_EQ(m.observe(true), ChannelHealth::kHealthy);  // 1/2 = 50% pre-fix
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(m.observe(true), ChannelHealth::kHealthy);
  }
  // Eighth window completes the history: 1 invalid of 8 = 12.5% < 25%,
  // so the channel legitimately stays healthy.
  EXPECT_EQ(m.observe(true), ChannelHealth::kHealthy);
}

TEST(ChannelHealth, StreakDemotionStillAppliesDuringWarmUp) {
  HealthPolicy p;
  p.history = 64;  // far from filled when the streak trips
  p.offline_consecutive = 4;
  ChannelHealthMonitor m(p);
  ChannelHealth last = ChannelHealth::kHealthy;
  for (int i = 0; i < 4; ++i) last = m.observe(false);
  EXPECT_EQ(last, ChannelHealth::kOffline);
}

TEST(ChannelHealth, GoesOfflineOnConsecutiveInvalidStreak) {
  HealthPolicy p;
  p.offline_consecutive = 4;
  ChannelHealthMonitor m(p);
  m.observe(true);
  m.observe(false);
  m.observe(false);
  m.observe(false);
  EXPECT_NE(m.state(), ChannelHealth::kOffline);
  EXPECT_EQ(m.observe(false), ChannelHealth::kOffline);
}

TEST(ChannelHealth, RecoversOneLevelAtATimeWithHysteresis) {
  HealthPolicy p;
  p.history = 8;
  p.degraded_fraction = 0.25;
  p.offline_consecutive = 4;
  p.recovery_consecutive = 4;
  ChannelHealthMonitor m(p);
  for (int i = 0; i < 6; ++i) m.observe(false);
  ASSERT_EQ(m.state(), ChannelHealth::kOffline);

  // First clean streak only gets back to degraded, never straight to
  // healthy.
  std::vector<ChannelHealth> seen;
  for (int i = 0; i < 20; ++i) seen.push_back(m.observe(true));
  EXPECT_EQ(seen.front(), ChannelHealth::kOffline);
  bool was_degraded = false;
  for (ChannelHealth h : seen) {
    if (h == ChannelHealth::kDegraded) was_degraded = true;
    if (h == ChannelHealth::kHealthy) {
      EXPECT_TRUE(was_degraded) << "skipped the degraded step";
    }
  }
  EXPECT_EQ(m.state(), ChannelHealth::kHealthy);
}

TEST(ChannelHealth, ReplayMatchesStreaming) {
  HealthPolicy p;
  p.history = 8;
  p.offline_consecutive = 4;
  std::vector<std::uint8_t> mask;
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    mask.push_back(rng.bernoulli(0.8) ? 1 : 0);
  }
  ChannelHealthMonitor m(p);
  for (std::uint8_t v : mask) m.observe(v != 0);
  EXPECT_EQ(core::replay_health(mask, p), m.state());
}

// ---------------------------------------------------------------------------
// Validity masking through DWM and the comparator
// ---------------------------------------------------------------------------

TEST(DwmMasking, CleanSignalHasAllWindowsValid) {
  const Signal b = make_reference(1500, 101);
  const Signal a = benign_observation(b, 202);
  const core::DwmResult r =
      core::DwmSynchronizer::align(a, b, dwm_config().dwm);
  ASSERT_EQ(r.valid.size(), r.h_disp.size());
  for (std::uint8_t v : r.valid) EXPECT_EQ(v, 1);
}

TEST(DwmMasking, FlatSpanIsMaskedAndDisplacementHeld) {
  const Signal b = make_reference(1500, 103);
  Signal a = benign_observation(b, 204);
  const std::size_t lo = 600, hi = 900;
  for (std::size_t n = lo; n < hi; ++n) a(n, 0) = 0.0;

  const core::DwmParams params = dwm_config().dwm;
  const core::DwmResult r = core::DwmSynchronizer::align(a, b, params);
  ASSERT_EQ(r.valid.size(), r.h_disp.size());
  EXPECT_TRUE(all_finite(r.h_disp));
  EXPECT_TRUE(all_finite(r.h_disp_low));

  std::size_t masked = 0;
  for (std::size_t i = 0; i < r.valid.size(); ++i) {
    if (r.valid[i] != 0) continue;
    ++masked;
    // The window must overlap the flat span...
    const std::size_t w_lo = i * params.n_hop;
    EXPECT_LT(w_lo, hi);
    EXPECT_GT(w_lo + params.n_win, lo);
    // ...and hold the previous low-frequency estimate.
    const double prev = i == 0 ? 0.0 : r.h_disp_low[i - 1];
    EXPECT_EQ(r.h_disp[i], prev);
    EXPECT_EQ(r.h_disp_low[i], prev);
  }
  EXPECT_GT(masked, 0u);
}

TEST(DwmMasking, NanSpanIsMaskedAndNothingLeaks) {
  const Signal b = make_reference(1500, 105);
  Signal a = benign_observation(b, 206);
  for (std::size_t n = 500; n < 650; ++n) a(n, 0) = kNan;

  const core::DwmResult r =
      core::DwmSynchronizer::align(a, b, dwm_config().dwm);
  EXPECT_TRUE(all_finite(r.h_disp));
  EXPECT_TRUE(all_finite(r.h_disp_low));
  EXPECT_TRUE(all_finite(r.h_dist));
  std::size_t masked = 0;
  for (std::uint8_t v : r.valid) {
    if (v == 0) ++masked;
  }
  EXPECT_GT(masked, 0u);
  EXPECT_LT(masked, r.valid.size());  // clean windows still scored
}

TEST(DetectionCoreMasking, SkipsDegenerateWindowsWithCarryForward) {
  const Signal b = make_reference(1500, 107);
  Signal a = benign_observation(b, 208);
  for (std::size_t n = 400; n < 560; ++n) a(n, 0) = kNan;

  const core::DwmParams params = dwm_config().dwm;
  const core::DwmResult r = core::DwmSynchronizer::align(a, b, params);
  core::DetectionCore dc(params, core::DistanceMetric::kCorrelation, 3);
  for (std::size_t i = 0; i < r.h_disp.size(); ++i) {
    const std::size_t a_start = i * params.n_hop;
    dc.step(r.h_disp[i], r.valid[i] != 0,
            SignalView(a).slice(a_start, a_start + params.n_win), b);
  }
  ASSERT_EQ(dc.v_dist().size(), dc.valid().size());
  EXPECT_TRUE(all_finite(dc.v_dist()));
  double last_valid = 0.0;
  bool saw_invalid = false;
  for (std::size_t i = 0; i < dc.valid().size(); ++i) {
    if (dc.valid()[i] != 0) {
      last_valid = dc.v_dist()[i];
    } else {
      saw_invalid = true;
      EXPECT_EQ(dc.v_dist()[i], last_valid);  // carry-forward, no spikes
    }
  }
  EXPECT_TRUE(saw_invalid);
}

TEST(DetectionCoreMasking, InvalidWindowsContributeNoEvidence) {
  // h_disp jumps wildly in masked windows; the masked features must
  // ignore those jumps entirely.
  const std::vector<double> h_disp = {0, 1, 50, -80, 1, 2};
  const std::vector<double> v_dist = {0.1, 0.1, 9.0, 9.0, 0.2, 0.1};
  const std::vector<std::uint8_t> valid = {1, 1, 0, 0, 1, 1};
  core::DwmParams params = dwm_config().dwm;
  core::DetectionCore dc(params, core::DistanceMetric::kCorrelation, 1);
  for (std::size_t i = 0; i < h_disp.size(); ++i) {
    dc.step_scored(h_disp[i], v_dist[i], valid[i] != 0);
  }
  const auto& masked = dc.features();
  // c_disp across the gap: |1-0| then nothing, then |1-1| = 0, |2-1| = 1.
  ASSERT_EQ(masked.c_disp.size(), h_disp.size());
  EXPECT_DOUBLE_EQ(masked.c_disp[1], 1.0);
  EXPECT_DOUBLE_EQ(masked.c_disp[2], 1.0);
  EXPECT_DOUBLE_EQ(masked.c_disp[3], 1.0);
  EXPECT_DOUBLE_EQ(masked.c_disp[4], 1.0);
  EXPECT_DOUBLE_EQ(masked.c_disp[5], 2.0);
  // v_dist in the gap holds the last valid value.
  EXPECT_DOUBLE_EQ(masked.v_dist_f[2], 0.1);
  EXPECT_DOUBLE_EQ(masked.v_dist_f[3], 0.1);
  // An all-valid feed reproduces the unmasked batch features.
  core::DetectionCore all_valid(params, core::DistanceMetric::kCorrelation, 1);
  for (std::size_t i = 0; i < h_disp.size(); ++i) {
    all_valid.step_scored(h_disp[i], v_dist[i], true);
  }
  const auto plain = core::compute_features(h_disp, v_dist, 1);
  EXPECT_EQ(all_valid.features().c_disp, plain.c_disp);
  EXPECT_EQ(all_valid.features().v_dist_f, plain.v_dist_f);
  EXPECT_EQ(all_valid.features().h_dist_f, plain.h_dist_f);
}

// ---------------------------------------------------------------------------
// End-to-end: NSYNC under faults
// ---------------------------------------------------------------------------

class FaultEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    reference_ = make_reference(1500, 100, 2);
    // A deployment calibrates on benign runs captured through its OWN
    // acquisition chain, faults included — that is what keeps the OCC
    // thresholds meaningful when the front end is flaky.  Training on
    // pristine signals at this toy scale yields c_c = h_c = 0 (the clean
    // runs track the reference to the sample), and then any single
    // dropped frame alarms.
    for (std::uint64_t s = 0; s < 8; ++s) {
      FaultInjector inj(one_percent_dropout(), 9000 + s);
      train_.push_back(inj.apply(benign_observation(reference_, 200 + s)));
    }
  }

  /// DWM sized for the fault regime: dropout steps of ~8 samples must
  /// stay inside the TDEB search range (n_sigma) and the extended
  /// reference window (n_ext), and the inertial tracker must re-lock
  /// within a couple of windows (eta), or one unlucky benign run diverges
  /// and inflates the max-based thresholds past any attack.
  static core::NsyncConfig fault_tolerant_config() {
    core::NsyncConfig cfg = dwm_config();
    cfg.dwm.n_ext = 48;
    cfg.dwm.n_sigma = 32.0;
    cfg.dwm.eta = 0.5;
    return cfg;
  }

  static FaultConfig one_percent_dropout() {
    FaultConfig cfg;
    cfg.dropout_rate = 0.00125;  // x mean 8 frames ~= 1 % of samples
    cfg.dropout_frames_mean = 8.0;
    cfg.nan_burst_rate = 0.0005;
    cfg.nan_burst_frames_mean = 4.0;
    return cfg;
  }

  Signal reference_;
  std::vector<Signal> train_;
};

TEST_F(FaultEndToEnd, AnalyzeNeverEmitsNonFiniteFeaturesUnderFaults) {
  core::NsyncIds ids(reference_, fault_tolerant_config());
  ids.fit(train_);
  for (std::uint64_t s = 0; s < 4; ++s) {
    FaultInjector inj(one_percent_dropout(), 900 + s);
    const Signal faulted = inj.apply(benign_observation(reference_, 300 + s));
    const core::Analysis a = ids.analyze(faulted);
    EXPECT_TRUE(all_finite(a.h_disp));
    EXPECT_TRUE(all_finite(a.v_dist));
    EXPECT_TRUE(features_finite(a.features));
    EXPECT_EQ(a.valid.size(), a.h_disp.size());
  }
}

TEST_F(FaultEndToEnd, BenignFprStaysBoundedUnderOnePercentDropout) {
  core::NsyncIds ids(reference_, fault_tolerant_config());
  ids.fit(train_);
  std::size_t alarms = 0;
  const std::size_t runs = 6;
  for (std::uint64_t s = 0; s < runs; ++s) {
    FaultInjector inj(one_percent_dropout(), 700 + s);
    const Signal faulted = inj.apply(benign_observation(reference_, 400 + s));
    if (ids.detect(faulted).intrusion) ++alarms;
  }
  // Dropout is genuine time noise, so a rare fault-time alarm is not
  // absurd — but with the masking in place and thresholds calibrated on
  // the same fault regime, benign runs must not alarm wholesale.
  // (Empirically 0 with these seeds.)
  EXPECT_LE(alarms, 1u);
}

TEST_F(FaultEndToEnd, AttackStillDetectedUnderFaults) {
  core::NsyncIds ids(reference_, fault_tolerant_config());
  ids.fit(train_);
  std::size_t detected = 0;
  const std::size_t runs = 4;
  for (std::uint64_t s = 0; s < runs; ++s) {
    FaultInjector inj(one_percent_dropout(), 800 + s);
    const Signal faulted =
        inj.apply(malicious_observation(reference_, 500 + s));
    if (ids.detect(faulted).intrusion) ++detected;
  }
  EXPECT_GE(detected, runs - 1);
}

TEST_F(FaultEndToEnd, StreamingMonitorMatchesBatchUnderFaults) {
  const core::NsyncConfig cfg = fault_tolerant_config();
  core::NsyncIds ids(reference_, cfg);
  ids.fit(train_);

  FaultInjector inj(one_percent_dropout(), 1234);
  const Signal faulted = inj.apply(benign_observation(reference_, 600));

  const core::Analysis batch = ids.analyze(faulted);
  core::RealtimeMonitor monitor(reference_, cfg, ids.thresholds());
  for (std::size_t pos = 0; pos < faulted.frames(); pos += 100) {
    const std::size_t end = std::min(pos + 100, faulted.frames());
    monitor.push(SignalView(faulted).slice(pos, end));
  }

  ASSERT_EQ(monitor.features().c_disp.size(), batch.features.c_disp.size());
  ASSERT_EQ(monitor.valid().size(), batch.valid.size());
  for (std::size_t i = 0; i < batch.valid.size(); ++i) {
    EXPECT_EQ(monitor.valid()[i], batch.valid[i]) << "window " << i;
  }
  for (std::size_t i = 0; i < batch.features.c_disp.size(); ++i) {
    EXPECT_DOUBLE_EQ(monitor.features().c_disp[i], batch.features.c_disp[i]);
    EXPECT_DOUBLE_EQ(monitor.features().h_dist_f[i],
                     batch.features.h_dist_f[i]);
    EXPECT_DOUBLE_EQ(monitor.features().v_dist_f[i],
                     batch.features.v_dist_f[i]);
  }
}

TEST_F(FaultEndToEnd, MonitorReportsOfflineWhenSensorGoesDark) {
  core::NsyncConfig cfg = fault_tolerant_config();
  cfg.health.history = 8;
  cfg.health.offline_consecutive = 4;
  core::NsyncIds ids(reference_, cfg);
  ids.fit(train_);

  Signal obs = benign_observation(reference_, 610);
  const Signal dark = sensors::flatline_from(obs, obs.frames() / 3);

  core::RealtimeMonitor monitor(reference_, cfg, ids.thresholds());
  for (std::size_t pos = 0; pos < dark.frames(); pos += 100) {
    const std::size_t end = std::min(pos + 100, dark.frames());
    monitor.push(SignalView(dark).slice(pos, end));
  }
  EXPECT_EQ(monitor.health(), ChannelHealth::kOffline);
  EXPECT_TRUE(features_finite(monitor.features()));
  std::size_t masked = 0;
  for (std::uint8_t v : monitor.valid()) {
    if (v == 0) ++masked;
  }
  EXPECT_GT(masked, monitor.valid().size() / 3);
}

TEST_F(FaultEndToEnd, FusionDropsOfflineChannelFromTheVote) {
  core::NsyncConfig cfg = dwm_config();
  cfg.health.history = 8;
  cfg.health.offline_consecutive = 4;

  const Signal ref_b = make_reference(1500, 111, 2);
  auto build = [&] {
    core::FusionIds fused(
        std::make_shared<core::VotingPolicy>(core::FusionRule::kAll));
    fused.add_channel("A", reference_, cfg);
    fused.add_channel("B", ref_b, cfg);
    std::vector<core::FusionIds::SignalMap> train;
    for (std::uint64_t s = 0; s < 8; ++s) {
      core::FusionIds::SignalMap run;
      run["A"] = benign_observation(reference_, 200 + s);
      run["B"] = benign_observation(ref_b, 1200 + s);
      train.push_back(std::move(run));
    }
    fused.fit(train);
    return fused;
  };
  const core::FusionIds fused = build();

  // Clean benign: both channels healthy, both count.
  core::FusionIds::SignalMap clean;
  clean["A"] = benign_observation(reference_, 620);
  clean["B"] = benign_observation(ref_b, 1620);
  const core::FusionDetection d_clean = fused.detect(clean);
  EXPECT_EQ(d_clean.online_channels, 2u);
  for (const auto& [name, h] : d_clean.health) {
    EXPECT_EQ(h, ChannelHealth::kHealthy) << name;
  }

  // Channel B goes dark; with rule kAll a dead channel would veto every
  // alarm forever unless the vote drops it.
  core::FusionIds::SignalMap attacked;
  attacked["A"] = malicious_observation(reference_, 630);
  attacked["B"] = sensors::flatline_from(benign_observation(ref_b, 1630), 0);
  const core::FusionDetection d = fused.detect(attacked);
  EXPECT_EQ(d.online_channels, 1u);
  for (const auto& [name, h] : d.health) {
    if (name == "B") {
      EXPECT_EQ(h, ChannelHealth::kOffline);
    }
  }
  EXPECT_TRUE(d.intrusion) << "surviving channel's alarm was vetoed";

  // Every sensor dark -> no evidence -> benign verdict, not a crash.
  core::FusionIds::SignalMap all_dark;
  all_dark["A"] = sensors::flatline_from(benign_observation(reference_, 640), 0);
  all_dark["B"] = sensors::flatline_from(benign_observation(ref_b, 1640), 0);
  const core::FusionDetection d_dark = fused.detect(all_dark);
  EXPECT_EQ(d_dark.online_channels, 0u);
  EXPECT_FALSE(d_dark.intrusion);
}

// ---------------------------------------------------------------------------
// Regression: degenerate windows in the sliding correlation (xcorr)
// ---------------------------------------------------------------------------

TEST(XcorrDegenerateRegression, FlatWindowScoresZeroInAllVariants) {
  std::vector<double> x(64, 1.0);  // every window flat
  for (std::size_t i = 32; i < 64; ++i) x[i] = std::sin(0.3 * double(i));
  const std::vector<double> y = {0.1, 0.7, -0.2, 0.4};
  const auto naive = dsp::sliding_pearson_naive(x, y);
  const auto fft = dsp::sliding_pearson_fft(x, y);
  const auto cplx = dsp::sliding_pearson_fft_complex(x, y);
  ASSERT_EQ(naive.size(), fft.size());
  for (std::size_t n = 0; n < fft.size(); ++n) {
    EXPECT_TRUE(std::isfinite(fft[n]));
    EXPECT_TRUE(std::isfinite(cplx[n]));
    EXPECT_NEAR(fft[n], naive[n], 1e-9);
  }
  EXPECT_EQ(naive[0], 0.0);  // fully flat window
}

TEST(XcorrDegenerateRegression, NanInputNeverEmitsNonFiniteScores) {
  std::vector<double> x(128);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(0.2 * double(i));
  x[50] = kNan;
  const std::vector<double> y = {0.1, 0.7, -0.2, 0.4, 0.9};
  for (const auto& scores :
       {dsp::sliding_pearson_naive(x, y), dsp::sliding_pearson_fft(x, y),
        dsp::sliding_pearson_fft_complex(x, y)}) {
    for (double s : scores) EXPECT_TRUE(std::isfinite(s));
  }
  // Non-finite template: every window scores 0.
  std::vector<double> y_nan = y;
  y_nan[2] = kNan;
  std::vector<double> clean_x(128, 0.0);
  for (std::size_t i = 0; i < clean_x.size(); ++i) {
    clean_x[i] = std::cos(0.1 * double(i));
  }
  for (double s : dsp::sliding_pearson_fft(clean_x, y_nan)) {
    EXPECT_EQ(s, 0.0);
  }
}

TEST(XcorrDegenerateRegression, PearsonReturnsZeroOnNonFiniteInput) {
  const std::vector<double> u = {1.0, kNan, 3.0};
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_EQ(signal::pearson(u, v), 0.0);
  EXPECT_EQ(signal::pearson(v, u), 0.0);
}

TEST(XcorrDegenerateRegression, DegenerateWindowDetector) {
  Signal one_frame(1, 2, 100.0);
  EXPECT_TRUE(signal::degenerate_window(one_frame));

  Signal flat(16, 2, 100.0);
  for (std::size_t n = 0; n < 16; ++n) {
    flat(n, 0) = 3.0;
    flat(n, 1) = -1.0;
  }
  EXPECT_TRUE(signal::degenerate_window(flat));

  // A NaN hiding in the SECOND channel while the first varies must still
  // count as degenerate (one NaN poisons every channel's FFT numerator).
  Signal nan_ch1 = make_reference(16, 3, 2);
  nan_ch1(8, 1) = kNan;
  EXPECT_TRUE(signal::degenerate_window(nan_ch1));

  // One varying channel with all-finite data is information: not
  // degenerate, even if the other channel is constant.
  Signal half_flat(16, 2, 100.0);
  for (std::size_t n = 0; n < 16; ++n) {
    half_flat(n, 0) = 2.0;
    half_flat(n, 1) = std::sin(0.4 * double(n));
  }
  EXPECT_FALSE(signal::degenerate_window(half_flat));
}

// ---------------------------------------------------------------------------
// Regression: '+' signed G-code values and line/column error reporting
// ---------------------------------------------------------------------------

TEST(GcodeParserRegression, PlusSignedValuesParse) {
  const auto cmd = gcode::parse_line("G1 X+1.5 Y-2.0 E+0.25 F+1200");
  ASSERT_TRUE(cmd.x.has_value());
  EXPECT_DOUBLE_EQ(*cmd.x, 1.5);
  ASSERT_TRUE(cmd.y.has_value());
  EXPECT_DOUBLE_EQ(*cmd.y, -2.0);
  ASSERT_TRUE(cmd.e.has_value());
  EXPECT_DOUBLE_EQ(*cmd.e, 0.25);
  ASSERT_TRUE(cmd.f.has_value());
  EXPECT_DOUBLE_EQ(*cmd.f, 1200.0);
}

TEST(GcodeParserRegression, LoneOrDoubledSignStaysMalformed) {
  EXPECT_THROW((void)gcode::parse_line("G1 X+"), std::invalid_argument);
  EXPECT_THROW((void)gcode::parse_line("G1 X+-1"), std::invalid_argument);
  EXPECT_THROW((void)gcode::parse_line("G1 X++1"), std::invalid_argument);
}

TEST(GcodeParserRegression, ErrorsReportLineAndColumn) {
  try {
    (void)gcode::parse_line("G1 X1 Y1.2.3", 7);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column 8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1.2.3"), std::string::npos) << msg;
  }

  try {
    (void)gcode::parse_line("G1 X1 Q", 3);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column 7"), std::string::npos) << msg;
  }

  try {
    (void)gcode::parse_program("G1 X1\nG1 X2\nG1 Xoops\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column 5"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Regression: DAQ trailing-partial-frame drop eligibility
// ---------------------------------------------------------------------------

TEST(DaqRegression, TrailingPartialFrameIsDropEligible) {
  Signal s(10, 1, 100.0);  // 2 full frames of 4 + one partial frame of 2
  for (std::size_t n = 0; n < 10; ++n) s(n, 0) = double(n);
  sensors::DaqConfig cfg;
  cfg.gain_jitter_std = 0.0;
  cfg.full_scale = 0.0;
  cfg.frame_samples = 4;
  cfg.frame_drop_probability = 1.0;  // every frame dropped...
  Rng rng(1);
  const Signal out = sensors::apply_daq(s, cfg, rng);
  EXPECT_EQ(out.frames(), 0u);  // ...including the trailing partial one
}

TEST(DaqRegression, NoDropsPreservesEverySampleIncludingTheTail) {
  Signal s(10, 1, 100.0);
  for (std::size_t n = 0; n < 10; ++n) s(n, 0) = double(n);
  sensors::DaqConfig cfg;
  cfg.gain_jitter_std = 0.0;
  cfg.full_scale = 0.0;
  cfg.frame_samples = 4;
  cfg.frame_drop_probability = 0.0;
  Rng rng(1);
  const Signal out = sensors::apply_daq(s, cfg, rng);
  ASSERT_EQ(out.frames(), 10u);
  for (std::size_t n = 0; n < 10; ++n) {
    EXPECT_EQ(out(n, 0), double(n));
  }
}

}  // namespace
}  // namespace nsync
