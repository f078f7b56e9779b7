// Cross-module property tests: randomized G-code programs through the
// planner, slicer -> serializer -> parser round trips, and RNG guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "gcode/attacks.hpp"
#include "gcode/parser.hpp"
#include "gcode/slicer.hpp"
#include "printer/planner.hpp"
#include "printer/simulator.hpp"
#include "signal/rng.hpp"
#include "test_support.hpp"

namespace nsync {
namespace {

using gcode::Command;
using gcode::CommandType;
using gcode::Program;

// ------------------------------------------------------------------ Rng --

TEST(Rng, DeterministicAcrossInstances) {
  signal::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.normal(), b.normal());
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, ForkDecorrelatesStreams) {
  signal::Rng parent(7);
  signal::Rng c1 = parent.fork();
  signal::Rng c2 = parent.fork();
  int equal = 0;
  for (int i = 0; i < 200; ++i) {
    if (c1.uniform_int(0, 1 << 20) == c2.uniform_int(0, 1 << 20)) ++equal;
  }
  EXPECT_LT(equal, 3);  // forked streams must not track each other
}

TEST(Rng, DistributionSanity) {
  signal::Rng rng(99);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.03);
}

// ------------------------------------------------------ random programs --

Program random_program(std::uint64_t seed, std::size_t moves) {
  signal::Rng rng(seed);
  std::vector<Command> cmds;
  double x = 50.0, y = 50.0, e = 0.0;
  for (std::size_t i = 0; i < moves; ++i) {
    if (rng.bernoulli(0.06)) {
      Command dwell;
      dwell.type = CommandType::kDwell;
      dwell.p = rng.uniform(10.0, 200.0);
      cmds.push_back(dwell);
      continue;
    }
    Command c;
    c.type = rng.bernoulli(0.7) ? CommandType::kLinearMove
                                : CommandType::kRapidMove;
    x = std::clamp(x + rng.normal(0.0, 8.0), 0.0, 120.0);
    y = std::clamp(y + rng.normal(0.0, 8.0), 0.0, 120.0);
    c.x = x;
    c.y = y;
    if (c.type == CommandType::kLinearMove && rng.bernoulli(0.8)) {
      e += rng.uniform(0.01, 0.3);
      c.e = e;
    }
    c.f = rng.uniform(600.0, 9000.0);
    cmds.push_back(c);
  }
  return Program(std::move(cmds));
}

class RandomProgramPlanning : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomProgramPlanning, PlansAreAlwaysConsistent) {
  const Program p = random_program(GetParam(), 120);
  printer::MachineConfig m = printer::ultimaker3();
  m.time_noise = test_support::no_time_noise();
  const printer::MotionPlan plan = plan_program(p, m);

  const printer::MotionSegment* prev = nullptr;
  double total = 0.0;
  for (const auto& item : plan.items) {
    if (item.type != printer::PlanItemType::kMove) {
      prev = nullptr;
      continue;
    }
    const auto& s = item.move;
    // Profile covers exactly the path length.
    EXPECT_NEAR(s.distance_at(s.duration()), s.length, 1e-6);
    // Cruise dominates entry/exit.
    EXPECT_GE(s.v_cruise + 1e-9, s.v_entry);
    EXPECT_GE(s.v_cruise + 1e-9, s.v_exit);
    // Machine limits hold.
    EXPECT_LE(s.v_cruise, m.max_velocity + 1e-6);
    // Junction continuity.
    if (prev != nullptr) {
      EXPECT_NEAR(prev->v_exit, s.v_entry, 1e-6);
    }
    prev = &s;
    total += s.duration();
  }
  EXPECT_GT(total, 0.0);
  EXPECT_TRUE(std::isfinite(plan.nominal_motion_duration()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramPlanning,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class RandomProgramExecution : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomProgramExecution, NoiseNeverBreaksGeometry) {
  const Program p = random_program(GetParam() + 100, 60);
  const printer::MachineConfig m = printer::ultimaker3();
  printer::ExecutorConfig exec;
  exec.sample_rate = 400.0;
  const auto trace = printer::simulate_print(p, m, exec, GetParam());
  // The trace must stay within the commanded envelope.
  for (std::size_t i = 0; i < trace.samples(); ++i) {
    EXPECT_GE(trace.x[i], -1.0);
    EXPECT_LE(trace.x[i], 121.0);
    EXPECT_TRUE(std::isfinite(trace.vx[i]));
    EXPECT_TRUE(std::isfinite(trace.ax[i]));
  }
  // Flow is only nonnegative (no retractions in these programs).
  for (double f : trace.flow) EXPECT_GE(f, -1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramExecution,
                         ::testing::Values(11, 22, 33, 44, 55));

// ----------------------------------------------------------- round trip --

class SlicerRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(SlicerRoundTrip, SerializeParsePreservesPlannedTiming) {
  gcode::SlicerConfig cfg;
  cfg.object_height = 0.6;
  cfg.layer_height = GetParam();
  const Program original = gcode::slice(test_support::circle_outline(6.0), cfg);
  const Program reparsed = gcode::parse_program(gcode::to_gcode(original));

  printer::MachineConfig m = printer::ultimaker3();
  m.time_noise = test_support::no_time_noise();
  const double t1 =
      plan_program(original, m).nominal_motion_duration();
  const double t2 =
      plan_program(reparsed, m).nominal_motion_duration();
  // 5-decimal serialization keeps the plan essentially identical.
  EXPECT_NEAR(t1, t2, t1 * 1e-4);
  EXPECT_EQ(original.layer_starts().size(), reparsed.layer_starts().size());
}

INSTANTIATE_TEST_SUITE_P(LayerHeights, SlicerRoundTrip,
                         ::testing::Values(0.15, 0.2, 0.3));

TEST(AttackRoundTrip, MutatedProgramsSurviveSerialization) {
  gcode::SlicerConfig cfg;
  cfg.object_height = 0.6;
  const auto outline = gcode::gear_outline(8, 5.0, 6.5);
  const Program benign = gcode::slice(outline, cfg);
  for (gcode::AttackType a : gcode::all_attacks()) {
    const Program attacked = gcode::apply_attack(a, benign, outline, cfg);
    const Program reparsed = gcode::parse_program(gcode::to_gcode(attacked));
    EXPECT_EQ(attacked.size(), reparsed.size()) << gcode::attack_name(a);
    EXPECT_NEAR(attacked.stats().total_extrusion,
                reparsed.stats().total_extrusion, 1e-2)
        << gcode::attack_name(a);
  }
}

// ------------------------------------------------- end-to-end invariants --

TEST(EndToEnd, NoiselessTraceIsCanonicalTimeBase) {
  // A noiseless run must be strictly shorter or equal to the expected
  // duration of noisy runs on average (gaps only ever add time).
  gcode::SlicerConfig cfg;
  cfg.object_height = 0.4;
  const Program p = gcode::slice(test_support::circle_outline(6.0), cfg);
  const printer::MachineConfig m = printer::ultimaker3();
  printer::ExecutorConfig exec;
  exec.sample_rate = 400.0;
  const double quiet =
      test_support::simulate_print_noiseless(p, m, exec).duration();
  double noisy_sum = 0.0;
  const int runs = 5;
  for (int s = 0; s < runs; ++s) {
    noisy_sum += printer::simulate_print(p, m, exec, 1000 + s).duration();
  }
  EXPECT_GT(noisy_sum / runs, quiet - 0.05);
}

}  // namespace
}  // namespace nsync
