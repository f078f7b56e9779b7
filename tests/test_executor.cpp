// Tests for the firmware executor: trace sampling, thermal model, time
// noise, layer events and trimming.
#include <gtest/gtest.h>

#include <cmath>

#include "gcode/parser.hpp"
#include "printer/simulator.hpp"
#include "test_support.hpp"

namespace nsync::printer {
namespace {

using test_support::simulate_print_noiseless;

MachineConfig quiet_machine() {
  MachineConfig m = ultimaker3();
  m.time_noise = test_support::no_time_noise();
  return m;
}

ExecutorConfig fast_exec() {
  ExecutorConfig cfg;
  cfg.sample_rate = 500.0;
  cfg.tail_padding = 0.1;
  return cfg;
}

TEST(Executor, NoiselessRunsAreIdentical) {
  const auto p = gcode::parse_program(
      "G1 X20 Y5 F3000\nG1 X0 Y10 F3000\nG4 P100\nG1 X5 Y5 F1200\n");
  const MotionTrace a = simulate_print_noiseless(p, quiet_machine(), fast_exec());
  const MotionTrace b = simulate_print_noiseless(p, quiet_machine(), fast_exec());
  ASSERT_EQ(a.samples(), b.samples());
  for (std::size_t i = 0; i < a.samples(); ++i) {
    EXPECT_DOUBLE_EQ(a.x[i], b.x[i]);
    EXPECT_DOUBLE_EQ(a.vx[i], b.vx[i]);
  }
}

TEST(Executor, NoisyRunsDifferInDuration) {
  const auto p = gcode::parse_program(
      "G1 X50 F3000\nG1 X0 F3000\nG1 X50 F3000\nG1 X0 F3000\n"
      "G1 X50 F3000\nG1 X0 F3000\nG1 X50 F3000\nG1 X0 F3000\n");
  MachineConfig m = ultimaker3();  // noisy
  const MotionTrace a = simulate_print(p, m, fast_exec(), 1);
  const MotionTrace b = simulate_print(p, m, fast_exec(), 2);
  EXPECT_NE(a.samples(), b.samples());  // time noise changes the duration
}

TEST(Executor, SameSeedReproduces) {
  const auto p = gcode::parse_program("G1 X50 F3000\nG1 X0 F3000\n");
  MachineConfig m = ultimaker3();
  const MotionTrace a = simulate_print(p, m, fast_exec(), 42);
  const MotionTrace b = simulate_print(p, m, fast_exec(), 42);
  ASSERT_EQ(a.samples(), b.samples());
  for (std::size_t i = 0; i < a.samples(); ++i) {
    EXPECT_DOUBLE_EQ(a.x[i], b.x[i]);
  }
}

TEST(Executor, TraceVectorsShareLength) {
  const auto p = gcode::parse_program("G1 X10 Y10 Z1 E2 F3000\n");
  const MotionTrace t = simulate_print_noiseless(p, quiet_machine(), fast_exec());
  const std::size_t n = t.samples();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(t.y.size(), n);
  EXPECT_EQ(t.z.size(), n);
  EXPECT_EQ(t.vx.size(), n);
  EXPECT_EQ(t.az.size(), n);
  EXPECT_EQ(t.motor_vel[0].size(), n);
  EXPECT_EQ(t.flow.size(), n);
  EXPECT_EQ(t.fan.size(), n);
  EXPECT_EQ(t.hotend_temp.size(), n);
  EXPECT_EQ(t.layer.size(), n);
}

TEST(Executor, PositionReachesTarget) {
  const auto p = gcode::parse_program("G1 X25 Y-10 F3000\n");
  const MotionTrace t = simulate_print_noiseless(p, quiet_machine(), fast_exec());
  EXPECT_NEAR(t.x.back(), 25.0, 1e-6);
  EXPECT_NEAR(t.y.back(), -10.0, 1e-6);
}

TEST(Executor, VelocityIntegratesToDistance) {
  const auto p = gcode::parse_program("G1 X40 F2400\n");
  const MotionTrace t = simulate_print_noiseless(p, quiet_machine(), fast_exec());
  double dist = 0.0;
  for (double v : t.vx) dist += v / t.sample_rate;
  EXPECT_NEAR(dist, 40.0, 0.5);
}

TEST(Executor, DurationMatchesPlanNominal) {
  const auto p = gcode::parse_program("G1 X30 F1800\nG1 X0 F1800\n");
  const MachineConfig m = quiet_machine();
  const MotionPlan plan = plan_program(p, m);
  const MotionTrace t = simulate_print_noiseless(p, m, fast_exec());
  EXPECT_NEAR(t.duration(), plan.nominal_motion_duration() + 0.1, 0.05);
}

TEST(Executor, HeaterWaitsRaiseTemperature) {
  const auto p = gcode::parse_program("M109 S120\nG1 X10 F3000\n");
  const MotionTrace t = simulate_print_noiseless(p, quiet_machine(), fast_exec());
  // By the end of the wait the hotend must be near the setpoint.
  double max_temp = 0.0;
  for (double temp : t.hotend_temp) max_temp = std::max(max_temp, temp);
  EXPECT_GT(max_temp, 115.0);
  EXPECT_LT(max_temp, 130.0);
}

TEST(Executor, HeaterWaitIsCapped) {
  const auto p = gcode::parse_program("M109 S500\n");  // unreachable target
  ExecutorConfig cfg = fast_exec();
  cfg.max_heat_wait = 2.0;
  const MotionTrace t = simulate_print_noiseless(p, quiet_machine(), cfg);
  EXPECT_LT(t.duration(), 3.0);
}

TEST(Executor, FanStateIsRecorded) {
  const auto p = gcode::parse_program("M106 S255\nG1 X10 F3000\nM107\nG4 P100\n");
  const MotionTrace t = simulate_print_noiseless(p, quiet_machine(), fast_exec());
  EXPECT_NEAR(t.fan.front(), 1.0, 1e-9);
  EXPECT_NEAR(t.fan.back(), 0.0, 1e-9);
}

TEST(Executor, LayerEventsInOrder) {
  const auto p = gcode::parse_program(
      ";LAYER:0\nG1 Z0.2 X5 F3000\n;LAYER:1\nG1 Z0.4 X0 F3000\n"
      ";LAYER:2\nG1 Z0.6 X5 F3000\n");
  const MotionTrace t = simulate_print_noiseless(p, quiet_machine(), fast_exec());
  ASSERT_EQ(t.layer_events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(t.layer_events[i].layer, i);
    if (i > 0) {
      EXPECT_GT(t.layer_events[i].time, t.layer_events[i - 1].time);
    }
  }
  EXPECT_DOUBLE_EQ(t.layer.back(), 2.0);
}

TEST(Executor, DeltaKinematicsMotorsMove) {
  MachineConfig m = rostock_max_v3();
  m.time_noise = test_support::no_time_noise();
  const auto p = gcode::parse_program("G1 X20 Y0 F3000\n");
  const MotionTrace t = simulate_print_noiseless(p, m, fast_exec());
  // A pure X move on a delta moves all three carriages.
  double peak[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < t.samples(); ++i) {
    for (int j = 0; j < 3; ++j) {
      peak[j] = std::max(peak[j], std::abs(t.motor_vel[j][i]));
    }
  }
  EXPECT_GT(peak[0], 1.0);
  EXPECT_GT(peak[1], 1.0);
  EXPECT_GT(peak[2], 1.0);
}

TEST(TrimTrace, DropsLeadingSamplesAndRebasesEvents) {
  const auto p = gcode::parse_program(
      "G4 P1000\n;LAYER:0\nG1 Z0.2 X5 F3000\n");
  const MotionTrace t = simulate_print_noiseless(p, quiet_machine(), fast_exec());
  ASSERT_FALSE(t.layer_events.empty());
  const double t0 = t.layer_events.front().time;
  EXPECT_GT(t0, 0.9);

  const MotionTrace cut = trim_trace(t, 0.5);
  EXPECT_EQ(cut.samples(), t.samples() - 250u);
  EXPECT_NEAR(cut.layer_events.front().time, t0 - 0.5, 1e-6);

  EXPECT_THROW(trim_trace(t, 1e9), std::invalid_argument);
  // Zero trim is identity.
  EXPECT_EQ(trim_trace(t, 0.0).samples(), t.samples());
}

TEST(TrimToFirstLayer, StartsJustBeforeDeposition) {
  const auto p = gcode::parse_program(
      "G4 P2000\n;LAYER:0\nG1 Z0.2 X5 F3000\nG1 X0 E1 F1200\n");
  const MotionTrace t = simulate_print_noiseless(p, quiet_machine(), fast_exec());
  const MotionTrace cut = trim_to_first_layer(t, 0.25);
  ASSERT_FALSE(cut.layer_events.empty());
  EXPECT_NEAR(cut.layer_events.front().time, 0.25, 0.01);
}

TEST(Executor, RejectsBadSampleRate) {
  const auto p = gcode::parse_program("G1 X1 F3000\n");
  const MotionPlan plan = plan_program(p, quiet_machine());
  ExecutorConfig cfg;
  cfg.sample_rate = 0.0;
  nsync::signal::Rng rng(1);
  EXPECT_THROW(execute_plan(plan, quiet_machine(), cfg, rng),
               std::invalid_argument);
}

class GapNoiseProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GapNoiseProperty, NoiseOnlyStretchesTime) {
  // Whatever the noise realization, the head must still visit the same
  // geometry (same end position, same total travel within tolerance).
  const auto p = gcode::parse_program(
      "G1 X30 Y0 F3000\nG1 X30 Y30 F3000\nG1 X0 Y30 F3000\nG1 X0 Y0 F3000\n");
  MachineConfig m = ultimaker3();
  const MotionTrace t = simulate_print(p, m, fast_exec(), GetParam());
  EXPECT_NEAR(t.x.back(), 0.0, 1e-6);
  EXPECT_NEAR(t.y.back(), 0.0, 1e-6);
  double travel = 0.0;
  for (std::size_t i = 1; i < t.samples(); ++i) {
    travel += std::hypot(t.x[i] - t.x[i - 1], t.y[i] - t.y[i - 1]);
  }
  EXPECT_NEAR(travel, 120.0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GapNoiseProperty,
                         ::testing::Values(1, 7, 13, 101, 997));

}  // namespace
}  // namespace nsync::printer
