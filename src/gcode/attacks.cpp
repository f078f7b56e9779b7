#include "gcode/attacks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace nsync::gcode {

const std::vector<AttackType>& all_attacks() {
  static const std::vector<AttackType> kAll = {
      AttackType::kVoid, AttackType::kInfillGrid, AttackType::kSpeed095,
      AttackType::kLayer03, AttackType::kScale095};
  return kAll;
}

std::string attack_name(AttackType type) {
  switch (type) {
    case AttackType::kVoid: return "Void";
    case AttackType::kInfillGrid: return "InfillGrid";
    case AttackType::kSpeed095: return "Speed0.95";
    case AttackType::kLayer03: return "Layer0.3";
    case AttackType::kScale095: return "Scale0.95";
  }
  return "Unknown";
}

namespace {

/// Axis-aligned bounds of the deposition moves only; travel and homing
/// moves (e.g. G28 to the origin) would skew the part center.
struct DepositionBounds {
  double min_x = 0.0, max_x = 0.0;
  double min_y = 0.0, max_y = 0.0;
  double max_z = 0.0;
  double center_x() const { return (min_x + max_x) / 2.0; }
  double center_y() const { return (min_y + max_y) / 2.0; }
};

DepositionBounds deposition_bounds(const Program& program) {
  DepositionBounds b;
  b.min_x = b.min_y = std::numeric_limits<double>::max();
  b.max_x = b.max_y = std::numeric_limits<double>::lowest();
  double x = 0.0, y = 0.0, z = 0.0, e = 0.0;
  for (const auto& c : program.commands()) {
    if (c.type == CommandType::kSetPosition) {
      if (c.x) x = *c.x;
      if (c.y) y = *c.y;
      if (c.z) z = *c.z;
      if (c.e) e = *c.e;
      continue;
    }
    if (c.type == CommandType::kHome) {
      x = y = z = 0.0;
      continue;
    }
    if (!c.is_move()) continue;
    const double nx = c.x.value_or(x);
    const double ny = c.y.value_or(y);
    const double nz = c.z.value_or(z);
    const double ne = c.e.value_or(e);
    if (ne > e) {
      b.min_x = std::min({b.min_x, x, nx});
      b.max_x = std::max({b.max_x, x, nx});
      b.min_y = std::min({b.min_y, y, ny});
      b.max_y = std::max({b.max_y, y, ny});
      b.max_z = std::max(b.max_z, nz);
    }
    x = nx;
    y = ny;
    z = nz;
    e = ne;
  }
  if (b.max_x < b.min_x) {
    throw std::invalid_argument("deposition_bounds: program never extrudes");
  }
  return b;
}

}  // namespace

Program attack_void(const Program& benign, double z_lo_fraction,
                    double z_hi_fraction, double radius_fraction) {
  if (!(0.0 <= z_lo_fraction && z_lo_fraction < z_hi_fraction &&
        z_hi_fraction <= 1.0)) {
    throw std::invalid_argument("attack_void: bad z fractions");
  }
  if (radius_fraction <= 0.0 || radius_fraction > 1.0) {
    throw std::invalid_argument("attack_void: bad radius fraction");
  }
  const DepositionBounds part = deposition_bounds(benign);
  const double z_lo = part.max_z * z_lo_fraction;
  const double z_hi = part.max_z * z_hi_fraction;
  const double cx = part.center_x();
  const double cy = part.center_y();
  const double radius =
      radius_fraction *
      std::max(part.max_x - part.min_x, part.max_y - part.min_y) / 2.0;

  Program out = benign;
  out.set_name(benign.name() + " [attack: Void]");
  double x = 0.0, y = 0.0, z = 0.0, e = 0.0;
  double removed = 0.0;  // extrusion removed so far; later E words shift down
  for (auto& c : out.commands()) {
    if (c.type == CommandType::kSetPosition) {
      if (c.x) x = *c.x;
      if (c.y) y = *c.y;
      if (c.z) z = *c.z;
      if (c.e) e = *c.e;
      continue;
    }
    if (c.type == CommandType::kHome) {
      x = y = z = 0.0;
      continue;
    }
    if (!c.is_move()) continue;
    const double nx = c.x.value_or(x);
    const double ny = c.y.value_or(y);
    const double nz = c.z.value_or(z);
    const double ne = c.e.value_or(e);
    const bool extruding = c.e.has_value() && ne > e;
    // A deposition move is inside the void when its layer falls in the
    // z-band and its path passes within `radius` of the part center
    // (point-to-segment distance, so infill lines crossing the center are
    // caught even though their endpoints sit on the perimeter).
    const double seg_dx = nx - x;
    const double seg_dy = ny - y;
    const double seg_len2 = seg_dx * seg_dx + seg_dy * seg_dy;
    double t_closest = 0.0;
    if (seg_len2 > 1e-12) {
      t_closest = std::clamp(
          ((cx - x) * seg_dx + (cy - y) * seg_dy) / seg_len2, 0.0, 1.0);
    }
    const double closest = std::hypot(x + t_closest * seg_dx - cx,
                                      y + t_closest * seg_dy - cy);
    const bool in_void = nz >= z_lo && nz <= z_hi && closest <= radius;
    if (extruding && in_void) {
      removed += ne - e;
      c.e.reset();               // travel instead of extrusion
      c.type = CommandType::kRapidMove;
      c.f = 7200.0;              // the head skips over the void at travel pace
    } else if (c.e.has_value()) {
      *c.e -= removed;           // keep the E axis continuous
    }
    x = nx;
    y = ny;
    z = nz;
    e = ne;
  }
  return out;
}

Program attack_speed(const Program& benign, double factor) {
  if (factor <= 0.0) {
    throw std::invalid_argument("attack_speed: factor must be positive");
  }
  Program out = benign;
  out.set_name(benign.name() + " [attack: Speed" + std::to_string(factor) +
               "]");
  for (auto& c : out.commands()) {
    if (c.is_move() && c.f) {
      *c.f *= factor;
    }
  }
  return out;
}

Program attack_scale(const Program& benign, double factor) {
  if (factor <= 0.0) {
    throw std::invalid_argument("attack_scale: factor must be positive");
  }
  const DepositionBounds part = deposition_bounds(benign);
  const double cx = part.center_x();
  const double cy = part.center_y();
  Program out = benign;
  out.set_name(benign.name() + " [attack: Scale" + std::to_string(factor) +
               "]");
  for (auto& c : out.commands()) {
    if (!c.is_move()) continue;
    if (c.x) *c.x = cx + (*c.x - cx) * factor;
    if (c.y) *c.y = cy + (*c.y - cy) * factor;
    if (c.z) *c.z = *c.z * factor;
    if (c.e) *c.e = *c.e * factor;  // shorter paths need less material
  }
  return out;
}

Program attack_infill_grid(const Polygon& outline, SlicerConfig cfg) {
  cfg.infill = InfillPattern::kGrid;
  Program out = slice(outline, cfg);
  out.set_name(out.name() + " [attack: InfillGrid]");
  return out;
}

Program attack_layer_height(const Polygon& outline, SlicerConfig cfg,
                            double new_height) {
  if (new_height <= 0.0) {
    throw std::invalid_argument("attack_layer_height: bad height");
  }
  cfg.layer_height = new_height;
  Program out = slice(outline, cfg);
  out.set_name(out.name() + " [attack: Layer" + std::to_string(new_height) +
               "]");
  return out;
}

Program apply_attack(AttackType type, const Program& benign,
                     const Polygon& outline, const SlicerConfig& cfg) {
  switch (type) {
    case AttackType::kVoid: return attack_void(benign);
    case AttackType::kInfillGrid: return attack_infill_grid(outline, cfg);
    case AttackType::kSpeed095: return attack_speed(benign, 0.95);
    case AttackType::kLayer03: return attack_layer_height(outline, cfg, 0.3);
    case AttackType::kScale095: return attack_scale(benign, 0.95);
  }
  throw std::invalid_argument("apply_attack: unknown attack type");
}

}  // namespace nsync::gcode
