// 2-D geometry used by the slicer-lite: polygons, scanline clipping,
// insetting, and the parametric outline of the paper's test object (a
// 60 mm gear).
#ifndef NSYNC_GCODE_GEOMETRY_HPP
#define NSYNC_GCODE_GEOMETRY_HPP

#include <cstddef>
#include <vector>

namespace nsync::gcode {

struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

/// Closed polygon given by its vertex loop (implicitly closed; the last
/// vertex connects back to the first).
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point2> vertices)
      : vertices_(std::move(vertices)) {}

  [[nodiscard]] const std::vector<Point2>& vertices() const {
    return vertices_;
  }
  [[nodiscard]] std::size_t size() const { return vertices_.size(); }
  [[nodiscard]] bool empty() const { return vertices_.empty(); }

  /// Vertex centroid.
  [[nodiscard]] Point2 centroid() const;
  /// Uniform scale about a center point.
  [[nodiscard]] Polygon scaled(double factor, Point2 center) const;
  /// Translation.
  [[nodiscard]] Polygon translated(double dx, double dy) const;
  /// Rotation about a center point by `radians`.
  [[nodiscard]] Polygon rotated(double radians, Point2 center) const;
  /// Approximate inward offset: scales toward the centroid so that the
  /// boundary moves in by roughly `distance`.  Good enough for star-convex
  /// outlines such as gears, rings and boxes.
  [[nodiscard]] Polygon inset(double distance) const;
  /// Axis-aligned bounding box as {min, max}.
  [[nodiscard]] std::pair<Point2, Point2> bounding_box() const;

 private:
  std::vector<Point2> vertices_;
};

/// X coordinates where the horizontal line y = `y` crosses the polygon
/// boundary, sorted ascending.  Consecutive pairs bound interior spans
/// (even-odd rule).
[[nodiscard]] std::vector<double> scanline_intersections(const Polygon& poly,
                                                         double y);

/// A straight fill segment produced by clipping an infill line to a polygon.
struct Segment2 {
  Point2 a;
  Point2 b;
};

/// Clips a family of parallel lines (at `angle_rad` from the X axis, spaced
/// `spacing` apart) to the polygon interior.  Returns the interior segments
/// ordered line by line, with alternating direction for short travel moves.
[[nodiscard]] std::vector<Segment2> fill_lines(const Polygon& poly,
                                               double spacing,
                                               double angle_rad);

/// Parametric gear outline: `teeth` trapezoidal teeth between the root and
/// tip radii.  `tip_fraction` is the fraction of the tooth pitch occupied by
/// the tip land.  Matches the paper's test object at outer_d = 60 mm.
[[nodiscard]] Polygon gear_outline(std::size_t teeth, double root_radius,
                                   double tip_radius,
                                   double tip_fraction = 0.35,
                                   std::size_t arc_points = 3);

}  // namespace nsync::gcode

#endif  // NSYNC_GCODE_GEOMETRY_HPP
