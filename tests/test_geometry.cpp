// Tests for the slicer's 2-D geometry kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "gcode/geometry.hpp"
#include "test_support.hpp"

namespace nsync::gcode {
namespace {

using test_support::area;
using test_support::circle_outline;
using test_support::contains;
using test_support::perimeter;

constexpr double kPi = std::numbers::pi;

TEST(Polygon, UnitSquareBasics) {
  const Polygon sq({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_NEAR(area(sq), 1.0, 1e-12);
  EXPECT_NEAR(perimeter(sq), 4.0, 1e-12);
  const Point2 c = sq.centroid();
  EXPECT_NEAR(c.x, 0.5, 1e-12);
  EXPECT_NEAR(c.y, 0.5, 1e-12);
}

TEST(Polygon, ScaledAboutCenter) {
  const Polygon sq({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  const Polygon half = sq.scaled(0.5, {1.0, 1.0});
  EXPECT_NEAR(area(half), 1.0, 1e-12);
  const auto [lo, hi] = half.bounding_box();
  EXPECT_NEAR(lo.x, 0.5, 1e-12);
  EXPECT_NEAR(hi.x, 1.5, 1e-12);
}

TEST(Polygon, TranslatedMovesBoundingBox) {
  const Polygon sq({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  const auto [lo, hi] = sq.translated(10.0, -5.0).bounding_box();
  EXPECT_NEAR(lo.x, 10.0, 1e-12);
  EXPECT_NEAR(hi.y, -4.0, 1e-12);
}

TEST(Polygon, RotationPreservesAreaAndPerimeter) {
  const Polygon gear = gear_outline(8, 5.0, 7.0);
  const Polygon rot = gear.rotated(0.7, {1.0, 2.0});
  EXPECT_NEAR(area(rot), area(gear), 1e-9);
  EXPECT_NEAR(perimeter(rot), perimeter(gear), 1e-9);
}

TEST(Polygon, InsetShrinksArea) {
  const Polygon circle = circle_outline(10.0, 64);
  const Polygon in = circle.inset(1.0);
  EXPECT_LT(area(in), area(circle));
  // A circle inset by 1 should be close to a circle of radius 9.
  EXPECT_NEAR(area(in), kPi * 81.0, kPi * 81.0 * 0.02);
  // Fully consuming inset yields an empty polygon.
  EXPECT_TRUE(circle.inset(11.0).empty());
}

TEST(Scanline, CrossingsOfSquare) {
  const Polygon sq({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  const auto xs = scanline_intersections(sq, 1.0);
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_NEAR(xs[0], 0.0, 1e-12);
  EXPECT_NEAR(xs[1], 2.0, 1e-12);
  EXPECT_TRUE(scanline_intersections(sq, 3.0).empty());
}

TEST(Scanline, EvenCrossingCount) {
  const Polygon gear = gear_outline(10, 6.0, 8.0);
  for (double y = -7.5; y < 7.5; y += 0.37) {
    const auto xs = scanline_intersections(gear, y);
    EXPECT_EQ(xs.size() % 2, 0u) << "y=" << y;
  }
}

TEST(FillLines, SegmentsLieInsidePolygon) {
  const Polygon circle = circle_outline(5.0, 48);
  const auto segs = fill_lines(circle, 0.8, kPi / 4.0);
  EXPECT_GT(segs.size(), 4u);
  for (const auto& s : segs) {
    const Point2 mid{(s.a.x + s.b.x) / 2.0, (s.a.y + s.b.y) / 2.0};
    EXPECT_TRUE(contains(circle, mid));
  }
}

TEST(FillLines, SpacingControlsCount) {
  const Polygon sq({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const auto coarse = fill_lines(sq, 2.0, 0.0);
  const auto fine = fill_lines(sq, 1.0, 0.0);
  EXPECT_NEAR(static_cast<double>(fine.size()),
              2.0 * static_cast<double>(coarse.size()), 1.5);
  EXPECT_THROW(fill_lines(sq, 0.0, 0.0), std::invalid_argument);
}

TEST(FillLines, HorizontalLinesHaveExpectedLength) {
  const Polygon sq({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const auto segs = fill_lines(sq, 1.0, 0.0);
  for (const auto& s : segs) {
    EXPECT_NEAR(std::abs(s.b.x - s.a.x), 10.0, 1e-9);
    EXPECT_NEAR(s.a.y, s.b.y, 1e-9);
  }
}

TEST(GearOutline, VertexRadiiBetweenRootAndTip) {
  const Polygon gear = gear_outline(14, 7.38, 9.0);
  EXPECT_GE(gear.size(), 14u * 4u);
  for (const auto& v : gear.vertices()) {
    const double r = std::hypot(v.x, v.y);
    EXPECT_GE(r, 7.38 - 1e-9);
    EXPECT_LE(r, 9.0 + 1e-9);
  }
  // Area between the root circle and tip circle.
  EXPECT_GT(area(gear), kPi * 7.38 * 7.38 * 0.98);
  EXPECT_LT(area(gear), kPi * 9.0 * 9.0);
}

TEST(GearOutline, RejectsBadParameters) {
  EXPECT_THROW(gear_outline(2, 5.0, 7.0), std::invalid_argument);
  EXPECT_THROW(gear_outline(8, 7.0, 5.0), std::invalid_argument);
  EXPECT_THROW(gear_outline(8, 5.0, 7.0, 0.95), std::invalid_argument);
}

class FillAngleProperty : public ::testing::TestWithParam<double> {};

TEST_P(FillAngleProperty, TotalFillLengthIsAngleInvariant) {
  // The total deposited length should be roughly area / spacing no matter
  // the fill direction.
  const double angle = GetParam();
  const Polygon circle = circle_outline(8.0, 96);
  const double spacing = 0.5;
  const auto segs = fill_lines(circle, spacing, angle);
  double total = 0.0;
  for (const auto& s : segs) total += std::hypot(s.b.x - s.a.x, s.b.y - s.a.y);
  const double expected = area(circle) / spacing;
  EXPECT_NEAR(total, expected, expected * 0.05) << "angle=" << angle;
}

INSTANTIATE_TEST_SUITE_P(Angles, FillAngleProperty,
                         ::testing::Values(0.0, kPi / 6, kPi / 4, kPi / 2,
                                           2.0));

}  // namespace
}  // namespace nsync::gcode
