// Tests for machine configurations and kinematics.
#include <gtest/gtest.h>

#include <cmath>

#include "printer/machine.hpp"

namespace nsync::printer {
namespace {

TEST(Machines, FactoryConfigsAreSane) {
  const MachineConfig um3 = ultimaker3();
  EXPECT_EQ(um3.name, "UM3");
  EXPECT_EQ(um3.kinematics, KinematicsType::kCartesian);
  EXPECT_GT(um3.max_velocity, 0.0);
  EXPECT_GT(um3.max_accel, 0.0);

  const MachineConfig rm3 = rostock_max_v3();
  EXPECT_EQ(rm3.name, "RM3");
  EXPECT_EQ(rm3.kinematics, KinematicsType::kDelta);
  EXPECT_GT(rm3.delta.arm_length, rm3.delta.tower_radius / 2.0);
}

TEST(Kinematics, CartesianIsIdentity) {
  const auto mp = motor_positions(ultimaker3(), 12.0, -3.0, 7.5);
  EXPECT_DOUBLE_EQ(mp[0], 12.0);
  EXPECT_DOUBLE_EQ(mp[1], -3.0);
  EXPECT_DOUBLE_EQ(mp[2], 7.5);
}

TEST(Kinematics, DeltaCenterIsSymmetric) {
  const MachineConfig m = rostock_max_v3();
  const auto mp = motor_positions(m, 0.0, 0.0, 10.0);
  EXPECT_NEAR(mp[0], mp[1], 1e-9);
  EXPECT_NEAR(mp[1], mp[2], 1e-9);
  // h = z + sqrt(L^2 - R^2) at the center.
  const double expected =
      10.0 + std::sqrt(m.delta.arm_length * m.delta.arm_length -
                       m.delta.tower_radius * m.delta.tower_radius);
  EXPECT_NEAR(mp[0], expected, 1e-9);
}

TEST(Kinematics, DeltaZTranslationShiftsAllCarriages) {
  const MachineConfig m = rostock_max_v3();
  const auto lo = motor_positions(m, 5.0, -8.0, 0.0);
  const auto hi = motor_positions(m, 5.0, -8.0, 25.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(hi[i] - lo[i], 25.0, 1e-9);
  }
}

TEST(Kinematics, DeltaForwardConsistency) {
  // The carriage heights must place each arm at exactly arm_length from
  // the effector (the defining constraint of the IK).
  const MachineConfig m = rostock_max_v3();
  const double x = 30.0, y = -20.0, z = 5.0;
  const auto h = motor_positions(m, x, y, z);
  constexpr double kDeg = M_PI / 180.0;
  for (int i = 0; i < 3; ++i) {
    const double ang = (90.0 + 120.0 * i) * kDeg;
    const double tx = m.delta.tower_radius * std::cos(ang);
    const double ty = m.delta.tower_radius * std::sin(ang);
    const double dist = std::sqrt((tx - x) * (tx - x) + (ty - y) * (ty - y) +
                                  (h[i] - z) * (h[i] - z));
    EXPECT_NEAR(dist, m.delta.arm_length, 1e-9) << "tower " << i;
  }
}

TEST(Kinematics, DeltaOutOfReachThrows) {
  const MachineConfig m = rostock_max_v3();
  EXPECT_THROW(static_cast<void>(motor_positions(m, 1000.0, 0.0, 0.0)),
               std::domain_error);
}

TEST(Kinematics, DeltaMovesAsymmetrically) {
  // A Y move changes the three carriages by different amounts — this is
  // what makes the delta's motor-space side channels look different from
  // the Cartesian machine's.  The towers sit at 90/210/330 degrees, so the
  // two front towers (210 and 330) mirror each other under a Y move while
  // the back tower responds differently.
  const MachineConfig m = rostock_max_v3();
  const auto a = motor_positions(m, 0.0, 0.0, 0.0);
  const auto b = motor_positions(m, 0.0, 20.0, 0.0);
  const double d0 = std::abs(b[0] - a[0]);
  const double d1 = std::abs(b[1] - a[1]);
  const double d2 = std::abs(b[2] - a[2]);
  EXPECT_NEAR(d1, d2, 1e-9);
  EXPECT_GT(std::abs(d1 - d0), 1e-3);
}

}  // namespace
}  // namespace nsync::printer
