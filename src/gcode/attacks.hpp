// The five malicious-process generators of Table I.
//
// | Process    | Description                        | Source |
// |------------|------------------------------------|--------|
// | Void       | A void is inserted                 | [25]   |
// | InfillGrid | Infill pattern is changed to grid  | [4]    |
// | Speed0.95  | Printing speed is decreased by 5%  | [12]   |
// | Layer0.3   | Layer height is changed to 0.3 mm  | [12]   |
// | Scale0.95  | The object is shrunk by 5%         | [25]   |
//
// Void, Speed0.95 and Scale0.95 are direct G-code manipulations of the
// benign program.  InfillGrid and Layer0.3 change slicing parameters, so
// they are realized by re-slicing the same outline with a mutated config
// (exactly what an attacker editing the toolchain would produce).
#ifndef NSYNC_GCODE_ATTACKS_HPP
#define NSYNC_GCODE_ATTACKS_HPP

#include <string>
#include <vector>

#include "gcode/program.hpp"
#include "gcode/slicer.hpp"

namespace nsync::gcode {

enum class AttackType {
  kVoid,
  kInfillGrid,
  kSpeed095,
  kLayer03,
  kScale095,
};

/// All five attack types, in Table I order.
[[nodiscard]] const std::vector<AttackType>& all_attacks();

/// Table I process name ("Void", "InfillGrid", ...).
[[nodiscard]] std::string attack_name(AttackType type);

/// Inserts an internal void: extruding moves whose Z lies in
/// [z_lo_fraction, z_hi_fraction] of the object height and whose endpoint
/// falls within `radius_fraction` of the part's XY extent around its center
/// become travel moves (no material deposited).  Structural sabotage per
/// Sturm et al. [25].
[[nodiscard]] Program attack_void(const Program& benign,
                                  double z_lo_fraction = 0.25,
                                  double z_hi_fraction = 0.75,
                                  double radius_fraction = 0.35);

/// Scales every feedrate by `factor` (0.95 in the paper).
[[nodiscard]] Program attack_speed(const Program& benign,
                                   double factor = 0.95);

/// Scales X/Y/Z (and extrusion) by `factor` about the part's XY center
/// (0.95 in the paper).
[[nodiscard]] Program attack_scale(const Program& benign,
                                   double factor = 0.95);

/// Re-slices with the infill pattern switched to grid.
[[nodiscard]] Program attack_infill_grid(const Polygon& outline,
                                         SlicerConfig cfg);

/// Re-slices with the layer height changed (0.3 mm in the paper).
[[nodiscard]] Program attack_layer_height(const Polygon& outline,
                                          SlicerConfig cfg,
                                          double new_height = 0.3);

/// Dispatch: produces the malicious program for `type` given the benign
/// program plus the outline/config it was sliced from.
[[nodiscard]] Program apply_attack(AttackType type, const Program& benign,
                                   const Polygon& outline,
                                   const SlicerConfig& cfg);

}  // namespace nsync::gcode

#endif  // NSYNC_GCODE_ATTACKS_HPP
