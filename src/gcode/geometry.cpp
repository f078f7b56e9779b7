#include "gcode/geometry.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace nsync::gcode {

namespace {
constexpr double kPi = std::numbers::pi;
}

Point2 Polygon::centroid() const {
  Point2 c;
  if (vertices_.empty()) return c;
  for (const auto& v : vertices_) {
    c.x += v.x;
    c.y += v.y;
  }
  c.x /= static_cast<double>(vertices_.size());
  c.y /= static_cast<double>(vertices_.size());
  return c;
}

Polygon Polygon::scaled(double factor, Point2 center) const {
  std::vector<Point2> out(vertices_.size());
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    out[i].x = center.x + (vertices_[i].x - center.x) * factor;
    out[i].y = center.y + (vertices_[i].y - center.y) * factor;
  }
  return Polygon(std::move(out));
}

Polygon Polygon::translated(double dx, double dy) const {
  std::vector<Point2> out(vertices_.size());
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    out[i] = {vertices_[i].x + dx, vertices_[i].y + dy};
  }
  return Polygon(std::move(out));
}

Polygon Polygon::rotated(double radians, Point2 center) const {
  const double c = std::cos(radians);
  const double s = std::sin(radians);
  std::vector<Point2> out(vertices_.size());
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const double dx = vertices_[i].x - center.x;
    const double dy = vertices_[i].y - center.y;
    out[i] = {center.x + c * dx - s * dy, center.y + s * dx + c * dy};
  }
  return Polygon(std::move(out));
}

Polygon Polygon::inset(double distance) const {
  if (vertices_.size() < 3) return *this;
  const Point2 c = centroid();
  // Mean vertex distance from the centroid sets the scale factor.
  double mean_r = 0.0;
  for (const auto& v : vertices_) {
    mean_r += std::hypot(v.x - c.x, v.y - c.y);
  }
  mean_r /= static_cast<double>(vertices_.size());
  if (mean_r <= distance) return Polygon{};  // fully consumed
  return scaled((mean_r - distance) / mean_r, c);
}

std::pair<Point2, Point2> Polygon::bounding_box() const {
  if (vertices_.empty()) return {{0, 0}, {0, 0}};
  Point2 lo = vertices_.front();
  Point2 hi = vertices_.front();
  for (const auto& v : vertices_) {
    lo.x = std::min(lo.x, v.x);
    lo.y = std::min(lo.y, v.y);
    hi.x = std::max(hi.x, v.x);
    hi.y = std::max(hi.y, v.y);
  }
  return {lo, hi};
}

std::vector<double> scanline_intersections(const Polygon& poly, double y) {
  std::vector<double> xs;
  const auto& v = poly.vertices();
  const std::size_t n = v.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = v[i];
    const auto& b = v[(i + 1) % n];
    // Half-open rule avoids double counting at shared vertices.
    if ((a.y <= y && b.y > y) || (b.y <= y && a.y > y)) {
      xs.push_back(a.x + (b.x - a.x) * (y - a.y) / (b.y - a.y));
    }
  }
  std::sort(xs.begin(), xs.end());
  return xs;
}

std::vector<Segment2> fill_lines(const Polygon& poly, double spacing,
                                 double angle_rad) {
  if (spacing <= 0.0) {
    throw std::invalid_argument("fill_lines: spacing must be positive");
  }
  if (poly.size() < 3) return {};
  const Point2 center = poly.centroid();
  // Rotate the polygon so the fill direction becomes horizontal, fill with
  // horizontal scanlines, and rotate the segments back.
  const Polygon rot = poly.rotated(-angle_rad, center);
  const auto [lo, hi] = rot.bounding_box();
  std::vector<Segment2> out;
  bool reverse = false;
  // Offset the first scanline by half a spacing so lines are not glued to
  // the boundary.
  for (double y = lo.y + spacing * 0.5; y < hi.y; y += spacing) {
    const auto xs = scanline_intersections(rot, y);
    std::vector<Segment2> row;
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      if (xs[i + 1] - xs[i] < 1e-9) continue;
      row.push_back({{xs[i], y}, {xs[i + 1], y}});
    }
    if (reverse) {
      std::reverse(row.begin(), row.end());
      for (auto& seg : row) std::swap(seg.a, seg.b);
    }
    reverse = !reverse;
    out.insert(out.end(), row.begin(), row.end());
  }
  // Rotate back.
  const double c = std::cos(angle_rad);
  const double s = std::sin(angle_rad);
  auto unrotate = [&](Point2 p) {
    const double dx = p.x - center.x;
    const double dy = p.y - center.y;
    return Point2{center.x + c * dx - s * dy, center.y + s * dx + c * dy};
  };
  for (auto& seg : out) {
    seg.a = unrotate(seg.a);
    seg.b = unrotate(seg.b);
  }
  return out;
}

Polygon gear_outline(std::size_t teeth, double root_radius, double tip_radius,
                     double tip_fraction, std::size_t arc_points) {
  if (teeth < 3 || root_radius <= 0.0 || tip_radius <= root_radius) {
    throw std::invalid_argument("gear_outline: invalid gear parameters");
  }
  if (tip_fraction <= 0.0 || tip_fraction >= 0.9) {
    throw std::invalid_argument("gear_outline: tip_fraction out of range");
  }
  std::vector<Point2> v;
  const double pitch = 2.0 * kPi / static_cast<double>(teeth);
  const double tip_half = pitch * tip_fraction * 0.5;
  const double root_half = pitch * (1.0 - tip_fraction) * 0.5;
  auto arc = [&](double r, double a0, double a1) {
    for (std::size_t i = 0; i < arc_points; ++i) {
      const double t = static_cast<double>(i) /
                       static_cast<double>(arc_points > 1 ? arc_points - 1 : 1);
      const double a = a0 + (a1 - a0) * t;
      v.push_back({r * std::cos(a), r * std::sin(a)});
    }
  };
  for (std::size_t k = 0; k < teeth; ++k) {
    const double center = pitch * static_cast<double>(k);
    // Tip land then root land; the straight flanks emerge between them.
    arc(tip_radius, center - tip_half, center + tip_half);
    arc(root_radius, center + tip_half + 1e-3,
        center + tip_half + 2.0 * root_half - 1e-3);
  }
  return Polygon(std::move(v));
}

}  // namespace nsync::gcode
