// Tests for the side-channel sensor models and the DAQ stage.
#include <gtest/gtest.h>

#include <cmath>

#include "dsp/fft.hpp"
#include "gcode/parser.hpp"
#include "printer/simulator.hpp"
#include "sensors/daq.hpp"
#include "sensors/rig.hpp"
#include "signal/stats.hpp"
#include "test_support.hpp"

namespace nsync::sensors {
namespace {

using nsync::signal::Rng;
using nsync::signal::Signal;

printer::MachineConfig quiet_machine() {
  auto m = printer::ultimaker3();
  m.time_noise = test_support::no_time_noise();
  return m;
}

RigConfig quiet_rig() {
  RigConfig rig;
  rig.apply_daq = false;
  rig.acc_rate = 400.0;
  rig.tmp_rate = 400.0;
  rig.mag_rate = 100.0;
  rig.aud_rate = 4000.0;
  rig.ept_rate = 4000.0;
  rig.pwr_rate = 1200.0;
  return rig;
}

printer::MotionTrace busy_trace() {
  const auto p = gcode::parse_program(
      "M106 S255\nG1 X40 E1 F2700\nG1 X0 E2 F2700\nG1 X40 E3 F2700\n"
      "G1 X0 E4 F2700\n");
  printer::ExecutorConfig cfg;
  cfg.sample_rate = 1500.0;
  return test_support::simulate_print_noiseless(p, quiet_machine(), cfg);
}

printer::MotionTrace idle_trace() {
  const auto p = gcode::parse_program("G4 P3000\n");
  printer::ExecutorConfig cfg;
  cfg.sample_rate = 1500.0;
  return test_support::simulate_print_noiseless(p, quiet_machine(), cfg);
}

TEST(SideChannelMeta, TableIIValues) {
  EXPECT_EQ(all_side_channels().size(), 6u);
  EXPECT_EQ(side_channel_name(SideChannel::kAcc), "ACC");
  EXPECT_EQ(side_channel_components(SideChannel::kAcc), 6u);
  EXPECT_DOUBLE_EQ(side_channel_paper_rate(SideChannel::kAud), 48000.0);
  EXPECT_EQ(side_channel_bits(SideChannel::kEpt), 24);
}

TEST(SensorRig, RatesFollowConfig) {
  const SensorRig rig(quiet_machine(), quiet_rig());
  EXPECT_DOUBLE_EQ(rig.rate(SideChannel::kAcc), 400.0);
  EXPECT_DOUBLE_EQ(rig.rate(SideChannel::kAud), 4000.0);
  RigConfig scaled;
  scaled.rate_scale = 0.5;
  const SensorRig rig2(quiet_machine(), scaled);
  EXPECT_DOUBLE_EQ(rig2.rate(SideChannel::kMag), 50.0);
}

TEST(SensorRig, OutputShapesMatchTableII) {
  const SensorRig rig(quiet_machine(), quiet_rig());
  const auto trace = busy_trace();
  Rng rng(1);
  for (SideChannel ch : all_side_channels()) {
    Rng child = rng.fork();
    const Signal s = rig.render(ch, trace, child);
    EXPECT_EQ(s.channels(), side_channel_components(ch))
        << side_channel_name(ch);
    EXPECT_NEAR(s.duration(), trace.duration(), 0.01)
        << side_channel_name(ch);
  }
}

TEST(SensorRig, AccRespondsToMotion) {
  const SensorRig rig(quiet_machine(), quiet_rig());
  Rng r1(2), r2(2);
  const Signal busy = rig.render(SideChannel::kAcc, busy_trace(), r1);
  const Signal idle = rig.render(SideChannel::kAcc, idle_trace(), r2);
  // X accel dominates noise.
  EXPECT_GT(test_support::stddev(busy.channel(0)),
            10.0 * test_support::stddev(idle.channel(0)));
}

TEST(SensorRig, AudSilentWhenIdle) {
  RigConfig rig_cfg = quiet_rig();
  const SensorRig rig(quiet_machine(), rig_cfg);
  Rng r1(3), r2(3);
  const Signal busy = rig.render(SideChannel::kAud, busy_trace(), r1);
  const Signal idle = rig.render(SideChannel::kAud, idle_trace(), r2);
  EXPECT_GT(test_support::rms(busy.channel(0)),
            5.0 * test_support::rms(idle.channel(0)));
}

TEST(SensorRig, EptDominatedBy60Hz) {
  const SensorRig rig(quiet_machine(), quiet_rig());
  Rng rng(4);
  const Signal ept = rig.render(SideChannel::kEpt, busy_trace(), rng);
  const auto ch = ept.channel(0);
  // Use a whole number of 60 Hz cycles for a clean bin.
  const std::size_t n = 2000;  // 0.5 s at 4 kHz -> bin 30 = 60 Hz
  ASSERT_GE(ch.size(), n);
  const auto mags = nsync::dsp::rfft_magnitude(
      std::span<const double>(ch).subspan(0, n));
  std::size_t best = 1;
  for (std::size_t k = 1; k < mags.size(); ++k) {
    if (mags[k] > mags[best]) best = k;
  }
  EXPECT_NEAR(static_cast<double>(best), 30.0, 1.0);
}

TEST(SensorRig, MagReflectsMotorActivity) {
  const SensorRig rig(quiet_machine(), quiet_rig());
  Rng r1(5), r2(5);
  const Signal busy = rig.render(SideChannel::kMag, busy_trace(), r1);
  const Signal idle = rig.render(SideChannel::kMag, idle_trace(), r2);
  // Means differ because run current exceeds hold current while moving.
  const auto busy_mu = nsync::signal::channel_means(busy);
  const auto idle_mu = nsync::signal::channel_means(idle);
  EXPECT_GT(busy_mu[0], idle_mu[0] + 0.5);
}

TEST(SensorRig, TmpIsWeaklyCoupled) {
  const SensorRig rig(quiet_machine(), quiet_rig());
  Rng r1(6), r2(6);
  const Signal busy = rig.render(SideChannel::kTmp, busy_trace(), r1);
  const Signal idle = rig.render(SideChannel::kTmp, idle_trace(), r2);
  // Temperature barely distinguishes motion from idle (weak correlation
  // with printer state, Section VIII-B).
  EXPECT_NEAR(nsync::signal::mean(busy.channel(0)),
              nsync::signal::mean(idle.channel(0)), 1.0);
}

TEST(SensorRig, PwrIncludesHeaterPower) {
  const auto p = gcode::parse_program("M140 S60\nM104 S200\nG4 P2000\n");
  printer::ExecutorConfig cfg;
  cfg.sample_rate = 1500.0;
  const auto heating =
      test_support::simulate_print_noiseless(p, quiet_machine(), cfg);
  const SensorRig rig(quiet_machine(), quiet_rig());
  Rng r1(7), r2(7);
  const Signal hot = rig.render(SideChannel::kPwr, heating, r1);
  const Signal cold = rig.render(SideChannel::kPwr, idle_trace(), r2);
  EXPECT_GT(nsync::signal::mean(hot.channel(0)),
            nsync::signal::mean(cold.channel(0)) + 50.0);
}

TEST(SensorRig, DeterministicGivenSameRng) {
  const SensorRig rig(quiet_machine(), quiet_rig());
  const auto trace = busy_trace();
  Rng r1(8), r2(8);
  const Signal a = rig.render(SideChannel::kAcc, trace, r1);
  const Signal b = rig.render(SideChannel::kAcc, trace, r2);
  ASSERT_EQ(a.frames(), b.frames());
  for (std::size_t i = 0; i < a.frames(); ++i) {
    EXPECT_DOUBLE_EQ(a(i, 0), b(i, 0));
  }
}

TEST(Daq, QuantizeSnapsToGrid) {
  Signal s = Signal::from_frames({0.1234, -0.777, 0.5}, 1, 100.0);
  const Signal q = quantize(s, 8, 1.0);  // step = 1/128
  const double step = 1.0 / 128.0;
  for (std::size_t i = 0; i < q.frames(); ++i) {
    const double ratio = q(i, 0) / step;
    EXPECT_NEAR(ratio, std::round(ratio), 1e-9);
    EXPECT_NEAR(q(i, 0), s(i, 0), step / 2.0 + 1e-12);
  }
  EXPECT_THROW(quantize(s, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(quantize(s, 8, 0.0), std::invalid_argument);
}

TEST(Daq, FrameDropsShortenSignal) {
  Signal s(10000, 1, 1000.0);
  DaqConfig cfg;
  cfg.gain_jitter_std = 0.0;
  cfg.frame_drop_probability = 0.2;
  cfg.frame_samples = 50;
  Rng rng(9);
  const Signal out = apply_daq(s, cfg, rng);
  EXPECT_LT(out.frames(), s.frames());
  // Expect roughly 20% dropped.
  EXPECT_NEAR(static_cast<double>(out.frames()),
              static_cast<double>(s.frames()) * 0.8,
              static_cast<double>(s.frames()) * 0.1);
  // Whole frames disappear: length is a multiple of frame size.
  EXPECT_EQ(out.frames() % 50, 0u);
}

TEST(Daq, GainJitterScalesWholeSignal) {
  Signal s = Signal::from_frames(std::vector<double>(100, 2.0), 1, 100.0);
  DaqConfig cfg;
  cfg.gain_jitter_std = 0.1;
  cfg.frame_drop_probability = 0.0;
  Rng rng(10);
  const Signal out = apply_daq(s, cfg, rng);
  const double gain = out(0, 0) / 2.0;
  EXPECT_NE(gain, 1.0);
  for (std::size_t i = 1; i < out.frames(); ++i) {
    EXPECT_NEAR(out(i, 0) / 2.0, gain, 1e-12);  // one gain for the run
  }
}

TEST(Daq, NoNoiseConfigIsIdentity) {
  Signal s = Signal::from_frames({1.0, 2.0, 3.0}, 1, 10.0);
  DaqConfig cfg;
  cfg.gain_jitter_std = 0.0;
  cfg.frame_drop_probability = 0.0;
  cfg.full_scale = 0.0;
  Rng rng(11);
  const Signal out = apply_daq(s, cfg, rng);
  ASSERT_EQ(out.frames(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(out(i, 0), s(i, 0));
  }
}

}  // namespace
}  // namespace nsync::sensors
