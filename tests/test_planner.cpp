// Tests for the motion planner: trapezoid construction, junction-limited
// lookahead, and plan item generation.
#include <gtest/gtest.h>

#include <cmath>

#include "gcode/parser.hpp"
#include "printer/planner.hpp"
#include "test_support.hpp"

namespace nsync::printer {
namespace {

TEST(Trapezoid, SimpleCruiseProfile) {
  // 100 mm, rest to rest, limit 50 mm/s, accel 1000 mm/s^2.
  const MotionSegment s = make_trapezoid(100.0, 0.0, 0.0, 50.0, 1000.0);
  EXPECT_NEAR(s.v_cruise, 50.0, 1e-9);
  EXPECT_NEAR(s.t_accel, 0.05, 1e-9);
  EXPECT_NEAR(s.t_decel, 0.05, 1e-9);
  // d_acc = d_dec = 1.25 mm; cruise distance 97.5 mm at 50 mm/s.
  EXPECT_NEAR(s.t_cruise, 97.5 / 50.0, 1e-9);
  EXPECT_NEAR(s.distance_at(s.duration()), 100.0, 1e-9);
}

TEST(Trapezoid, TriangularWhenTooShortToCruise) {
  const MotionSegment s = make_trapezoid(1.0, 0.0, 0.0, 100.0, 1000.0);
  // Peak speed sqrt(a * d) = sqrt(1000) ~ 31.6 < 100 -> no cruise phase.
  EXPECT_LT(s.v_cruise, 100.0);
  EXPECT_NEAR(s.v_cruise, std::sqrt(1000.0 * 1.0), 1e-9);
  EXPECT_NEAR(s.t_cruise, 0.0, 1e-9);
  EXPECT_NEAR(s.distance_at(s.duration()), 1.0, 1e-9);
}

TEST(Trapezoid, RespectsEntryAndExitSpeeds) {
  const MotionSegment s = make_trapezoid(10.0, 20.0, 5.0, 60.0, 2000.0);
  EXPECT_NEAR(s.speed_at(0.0), 20.0, 1e-9);
  EXPECT_NEAR(s.speed_at(s.duration()), 5.0, 1e-9);
  EXPECT_NEAR(s.distance_at(s.duration()), 10.0, 1e-9);
}

TEST(Trapezoid, ClampsUnreachableExit) {
  // From rest over 1 mm at accel 100: max exit speed is sqrt(2*100*1) ~ 14.1.
  const MotionSegment s = make_trapezoid(1.0, 0.0, 100.0, 200.0, 100.0);
  EXPECT_NEAR(s.v_exit, std::sqrt(200.0), 1e-9);
  EXPECT_NEAR(s.distance_at(s.duration()), 1.0, 1e-9);
}

TEST(Trapezoid, RaisesUnreachablyLowExit) {
  // Entering at 100 mm/s with only 1 mm to brake at 100 mm/s^2: cannot
  // reach 0; the profile must end at sqrt(v^2 - 2 a d).
  const MotionSegment s = make_trapezoid(1.0, 100.0, 0.0, 200.0, 100.0);
  EXPECT_NEAR(s.v_exit, std::sqrt(100.0 * 100.0 - 200.0), 1e-6);
}

TEST(Trapezoid, DistanceIsMonotone) {
  const MotionSegment s = make_trapezoid(25.0, 3.0, 7.0, 40.0, 800.0);
  double prev = -1.0;
  for (double t = 0.0; t <= s.duration(); t += s.duration() / 200.0) {
    const double d = s.distance_at(t);
    EXPECT_GE(d, prev - 1e-12);
    prev = d;
  }
}

TEST(Trapezoid, SpeedIsDerivativeOfDistance) {
  const MotionSegment s = make_trapezoid(25.0, 3.0, 7.0, 40.0, 800.0);
  const double dt = 1e-6;
  for (double t = dt; t < s.duration() - dt; t += s.duration() / 50.0) {
    const double numeric = (s.distance_at(t + dt) - s.distance_at(t - dt)) /
                           (2.0 * dt);
    EXPECT_NEAR(s.speed_at(t), numeric, 1e-3);
  }
}

TEST(Trapezoid, RejectsBadInputs) {
  EXPECT_THROW((void)make_trapezoid(-1.0, 0.0, 0.0, 10.0, 100.0),
               std::invalid_argument);
  EXPECT_THROW((void)make_trapezoid(1.0, 0.0, 0.0, 0.0, 100.0),
               std::invalid_argument);
  EXPECT_THROW((void)make_trapezoid(1.0, 0.0, 0.0, 10.0, -5.0),
               std::invalid_argument);
}

MachineConfig test_machine() {
  MachineConfig m = ultimaker3();
  m.time_noise = test_support::no_time_noise();
  return m;
}

TEST(PlanProgram, StraightRunKeepsJunctionSpeedHigh) {
  // Two collinear moves should pass the junction at (close to) full speed.
  const auto p = gcode::parse_program("G1 X10 F3000\nG1 X20 F3000\n");
  const MotionPlan plan = plan_program(p, test_machine());
  ASSERT_EQ(plan.items.size(), 2u);
  const auto& first = plan.items[0].move;
  EXPECT_GT(first.v_exit, 45.0);  // feed is 50 mm/s
}

TEST(PlanProgram, RightAngleCornerSlowsDown) {
  const auto p = gcode::parse_program("G1 X10 F3000\nG1 X10 Y10 F3000\n");
  const MotionPlan plan = plan_program(p, test_machine());
  const auto& first = plan.items[0].move;
  EXPECT_LT(first.v_exit, 20.0);  // 90-degree corner
  EXPECT_GT(first.v_exit, 0.0);
}

TEST(PlanProgram, ReversalStopsNearly) {
  const auto p = gcode::parse_program("G1 X10 F3000\nG1 X0 F3000\n");
  const MotionPlan plan = plan_program(p, test_machine());
  EXPECT_LE(plan.items[0].move.v_exit, test_machine().min_junction_speed + 1e-9);
}

TEST(PlanProgram, SpeedContinuityAcrossJunctions) {
  const auto p = gcode::parse_program(
      "G1 X5 F3000\nG1 X10 Y2 F3000\nG1 X15 Y-1 F2400\nG1 X20 F1200\n");
  const MotionPlan plan = plan_program(p, test_machine());
  const MotionSegment* prev = nullptr;
  for (const auto& item : plan.items) {
    if (item.type != PlanItemType::kMove) continue;
    if (prev != nullptr) {
      EXPECT_NEAR(prev->v_exit, item.move.v_entry, 1e-6);
    }
    prev = &item.move;
  }
}

TEST(PlanProgram, EveryProfileIsKinematicallyConsistent) {
  const auto p = gcode::parse_program(
      "G28\nG1 X30 Y10 F4800\nG1 X31 Y10.2 F4800\nG1 X10 Y40 F1200\n"
      "G4 P100\nG1 X0 Y0 F3600\n");
  const MotionPlan plan = plan_program(p, test_machine());
  for (const auto& item : plan.items) {
    if (item.type != PlanItemType::kMove) continue;
    const auto& s = item.move;
    EXPECT_NEAR(s.distance_at(s.duration()), s.length, 1e-6);
    EXPECT_GE(s.v_cruise, std::max(s.v_entry, s.v_exit) - 1e-9);
    EXPECT_GE(s.t_accel, -1e-12);
    EXPECT_GE(s.t_cruise, -1e-12);
    EXPECT_GE(s.t_decel, -1e-12);
  }
}

TEST(PlanProgram, FeedratesAreClampedToMachine) {
  const auto p = gcode::parse_program("G1 X100 F60000\n");  // 1000 mm/s!
  MachineConfig m = test_machine();
  const MotionPlan plan = plan_program(p, m);
  EXPECT_LE(plan.items[0].move.v_cruise, m.max_velocity + 1e-9);
}

TEST(PlanProgram, ZMovesUseZVelocityLimit) {
  const auto p = gcode::parse_program("G1 Z50 F60000\n");
  MachineConfig m = test_machine();
  const MotionPlan plan = plan_program(p, m);
  EXPECT_LE(plan.items[0].move.v_cruise, m.max_z_velocity + 1e-9);
}

TEST(PlanProgram, DwellAndThermalItems) {
  const auto p = gcode::parse_program(
      "M140 S60\nM190 S60\nM104 S200\nM109 S200\nG4 P500\nM106 S255\nM107\n");
  const MotionPlan plan = plan_program(p, test_machine());
  ASSERT_EQ(plan.items.size(), 7u);
  EXPECT_EQ(plan.items[0].type, PlanItemType::kSetBedTemp);
  EXPECT_EQ(plan.items[1].type, PlanItemType::kWaitBedTemp);
  EXPECT_EQ(plan.items[2].type, PlanItemType::kSetHotendTemp);
  EXPECT_EQ(plan.items[3].type, PlanItemType::kWaitHotendTemp);
  EXPECT_EQ(plan.items[4].type, PlanItemType::kDwell);
  EXPECT_NEAR(plan.items[4].value, 0.5, 1e-9);
  EXPECT_EQ(plan.items[5].type, PlanItemType::kFan);
  EXPECT_NEAR(plan.items[5].value, 1.0, 1e-9);
  EXPECT_EQ(plan.items[6].type, PlanItemType::kFan);
  EXPECT_NEAR(plan.items[6].value, 0.0, 1e-9);
}

TEST(PlanProgram, LayerMarkersTracked) {
  const auto p = gcode::parse_program(
      ";LAYER:0\nG1 Z0.2 F600\nG1 X5 E1 F1200\n;LAYER:1\nG1 Z0.4 F600\n");
  const MotionPlan plan = plan_program(p, test_machine());
  EXPECT_EQ(plan.layer_count, 2u);
  std::size_t markers = 0;
  for (const auto& item : plan.items) {
    if (item.type == PlanItemType::kLayerMarker) ++markers;
  }
  EXPECT_EQ(markers, 2u);
}

TEST(PlanProgram, EOnlyMoveGetsDuration) {
  const auto p = gcode::parse_program("G1 E5 F1800\n");  // 5 mm retractionish
  const MotionPlan plan = plan_program(p, test_machine());
  ASSERT_EQ(plan.items.size(), 1u);
  const auto& s = plan.items[0].move;
  EXPECT_GT(s.duration(), 0.0);
  EXPECT_NEAR(s.e1 - s.e0, 5.0, 1e-9);
  EXPECT_EQ(s.p0, s.p1);
}

TEST(PlanProgram, NominalDurationScalesWithSpeed) {
  const auto fast = gcode::parse_program("G1 X100 F6000\n");
  const auto slow = gcode::parse_program("G1 X100 F3000\n");
  const double t_fast =
      plan_program(fast, test_machine()).nominal_motion_duration();
  const double t_slow =
      plan_program(slow, test_machine()).nominal_motion_duration();
  EXPECT_GT(t_slow, t_fast * 1.5);
}

TEST(PlanProgram, HomeSynthesizesMove) {
  const auto p = gcode::parse_program("G1 X50 Y50 F6000\nG28\n");
  const MotionPlan plan = plan_program(p, test_machine());
  ASSERT_EQ(plan.items.size(), 2u);
  const auto& home = plan.items[1].move;
  EXPECT_NEAR(home.p1[0], 0.0, 1e-9);
  EXPECT_NEAR(home.p1[1], 0.0, 1e-9);
}

}  // namespace
}  // namespace nsync::printer
