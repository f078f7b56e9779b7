// Tests for the slicer-lite.
#include <gtest/gtest.h>

#include <cmath>

#include "gcode/slicer.hpp"
#include "test_support.hpp"

namespace nsync::gcode {
namespace {

using test_support::circle_outline;

SlicerConfig small_config() {
  SlicerConfig cfg;
  cfg.object_height = 1.0;
  cfg.layer_height = 0.2;
  cfg.bed_center_x = 50.0;
  cfg.bed_center_y = 50.0;
  return cfg;
}

TEST(Slicer, LayerCountMatchesHeights) {
  const Program p = slice(circle_outline(8.0), small_config());
  EXPECT_EQ(p.layer_starts().size(), 5u);  // 1.0 / 0.2

  SlicerConfig thick = small_config();
  thick.layer_height = 0.3;
  const Program p2 = slice(circle_outline(8.0), thick);
  EXPECT_EQ(p2.layer_starts().size(), 3u);  // round(1.0 / 0.3)
}

TEST(Slicer, ExtrusionIsMonotonicallyNondecreasing) {
  const Program p = slice(gear_outline(10, 6.0, 8.0), small_config());
  double e = 0.0;
  for (const auto& c : p.commands()) {
    if (c.is_move() && c.e) {
      EXPECT_GE(*c.e, e - 1e-12);
      e = *c.e;
    }
  }
  EXPECT_GT(e, 0.0);
}

TEST(Slicer, PartStaysAtBedCenter) {
  const Program p = slice(circle_outline(8.0), small_config());
  const ProgramStats st = p.stats();
  // Extrusion happens around (50, 50); bounding box includes home at 0.
  EXPECT_NEAR((st.min_x + st.max_x) / 2.0, 25.0, 5.0);  // skewed by home
  double min_x = 1e9, max_x = -1e9;
  double x = 0.0, e = 0.0;
  for (const auto& c : p.commands()) {
    if (!c.is_move()) continue;
    if (c.x) x = *c.x;
    const double ne = c.e.value_or(e);
    if (ne > e) {
      min_x = std::min(min_x, x);
      max_x = std::max(max_x, x);
    }
    e = ne;
  }
  EXPECT_NEAR((min_x + max_x) / 2.0, 50.0, 0.5);
  EXPECT_NEAR(max_x - min_x, 16.0, 0.5);  // the 8 mm-radius circle
}

TEST(Slicer, ScaleShrinksEverything) {
  SlicerConfig cfg = small_config();
  const Program base = slice(circle_outline(8.0), cfg);
  cfg.scale = 0.5;
  const Program scaled = slice(circle_outline(8.0), cfg);
  const ProgramStats a = base.stats();
  const ProgramStats b = scaled.stats();
  EXPECT_LT(b.total_extrusion, a.total_extrusion * 0.5);
  EXPECT_LE(b.max_z, a.max_z * 0.65);  // 0.5 mm at 0.2 layers -> 3 layers
}

TEST(Slicer, SpeedFactorScalesFeedrates) {
  SlicerConfig cfg = small_config();
  const Program base = slice(circle_outline(8.0), cfg);
  cfg.speed_factor = 0.5;
  const Program slow = slice(circle_outline(8.0), cfg);
  ASSERT_EQ(base.size(), slow.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto& cb = base[i];
    const auto& cs = slow[i];
    if (cb.type == CommandType::kLinearMove && cb.f && cb.e) {
      EXPECT_NEAR(*cs.f, *cb.f * 0.5, 1e-6) << "command " << i;
    }
  }
}

TEST(Slicer, VolumetricLimitCapsThickLayerSpeed) {
  SlicerConfig cfg = small_config();
  cfg.layer_height = 0.3;
  cfg.infill_speed = 45.0;
  cfg.max_volumetric_rate = 4.0;  // 4 / (0.4 * 0.3) = 33.3 mm/s cap
  const Program p = slice(circle_outline(8.0), cfg);
  double max_extrude_feed = 0.0;
  for (const auto& c : p.commands()) {
    if (c.type == CommandType::kLinearMove && c.f && c.e) {
      max_extrude_feed = std::max(max_extrude_feed, *c.f / 60.0);
    }
  }
  EXPECT_NEAR(max_extrude_feed, 4.0 / (0.4 * 0.3), 0.1);
}

TEST(Slicer, GridInfillDiffersFromLines) {
  SlicerConfig cfg = small_config();
  const Program lines = slice(circle_outline(8.0), cfg);
  cfg.infill = InfillPattern::kGrid;
  const Program grid = slice(circle_outline(8.0), cfg);
  EXPECT_NE(lines.size(), grid.size());
  // Grid deposits a comparable amount of material (doubled spacing per
  // family compensates the two families).
  EXPECT_NEAR(grid.stats().total_extrusion, lines.stats().total_extrusion,
              lines.stats().total_extrusion * 0.35);
}

TEST(Slicer, HeaderEmitsThermalCommands) {
  const Program p = slice(circle_outline(8.0), small_config());
  bool has_home = false, has_hot_wait = false, has_bed_wait = false,
       has_fan = false;
  for (const auto& c : p.commands()) {
    has_home |= c.type == CommandType::kHome;
    has_hot_wait |= c.type == CommandType::kWaitHotendTemp;
    has_bed_wait |= c.type == CommandType::kWaitBedTemp;
    has_fan |= c.type == CommandType::kFanOn;
  }
  EXPECT_TRUE(has_home);
  EXPECT_TRUE(has_hot_wait);
  EXPECT_TRUE(has_bed_wait);
  EXPECT_TRUE(has_fan);
}

TEST(Slicer, NoHeaderOption) {
  SlicerConfig cfg = small_config();
  cfg.emit_header = false;
  const Program p = slice(circle_outline(8.0), cfg);
  for (const auto& c : p.commands()) {
    EXPECT_NE(c.type, CommandType::kHome);
    EXPECT_NE(c.type, CommandType::kWaitHotendTemp);
  }
}

TEST(Slicer, ZeroInfillOnlyPerimeters) {
  SlicerConfig cfg = small_config();
  cfg.infill_density = 0.0;
  const Program p = slice(circle_outline(8.0), cfg);
  EXPECT_GT(p.stats().extruding_moves, 0u);
  // With two perimeter shells of a 48-gon each layer: about 2*48 extruding
  // moves per layer; infill would add many more.
  SlicerConfig with_fill = small_config();
  const Program p2 = slice(circle_outline(8.0), with_fill);
  EXPECT_GT(p2.stats().extruding_moves, p.stats().extruding_moves);
}

TEST(Slicer, RejectsBadConfigs) {
  const Polygon c = circle_outline(8.0);
  SlicerConfig cfg = small_config();
  cfg.layer_height = 0.0;
  EXPECT_THROW(slice(c, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.scale = -1.0;
  EXPECT_THROW(slice(c, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.infill_density = 1.5;
  EXPECT_THROW(slice(c, cfg), std::invalid_argument);
  EXPECT_THROW(slice(Polygon({{0, 0}, {1, 1}}), small_config()),
               std::invalid_argument);
}

class LayerHeightSweep : public ::testing::TestWithParam<double> {};

TEST_P(LayerHeightSweep, LayerCountConsistent) {
  SlicerConfig cfg = small_config();
  cfg.layer_height = GetParam();
  const Program p = slice(circle_outline(8.0), cfg);
  const auto expected = static_cast<std::size_t>(
      std::max(1.0, std::round(cfg.object_height / cfg.layer_height)));
  EXPECT_EQ(p.layer_starts().size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Heights, LayerHeightSweep,
                         ::testing::Values(0.1, 0.15, 0.2, 0.25, 0.3, 0.5));

}  // namespace
}  // namespace nsync::gcode
