// Slicer-lite: turns a 2-D part outline into layer-by-layer G-code with
// perimeters and infill.  Stands in for Cura / MatterControl (Section
// VIII-A): the paper's attacks are parameter changes at slicing time or
// G-code edits, both of which this module supports.
#ifndef NSYNC_GCODE_SLICER_HPP
#define NSYNC_GCODE_SLICER_HPP

#include <cstddef>
#include <string>

#include "gcode/geometry.hpp"
#include "gcode/program.hpp"

namespace nsync::gcode {

/// Infill patterns.  The paper's InfillGrid attack switches Lines -> Grid.
enum class InfillPattern {
  kLines,  ///< parallel lines, direction alternating 45/135 deg per layer
  kGrid,   ///< two crossed families (0 and 90 deg) in every layer
};

[[nodiscard]] std::string infill_pattern_name(InfillPattern p);

/// Slicing parameters (defaults approximate a 0.4 mm nozzle FDM profile,
/// layer height 0.2 mm as in the paper's default setting).
struct SlicerConfig {
  double layer_height = 0.2;        ///< mm (Layer0.3 attack changes this)
  double object_height = 7.5;       ///< mm (the paper's gear is 7.5 mm thick)
  double scale = 1.0;               ///< XY+Z scale (Scale0.95 attack: 0.95)
  double extrusion_width = 0.4;     ///< mm
  double filament_diameter = 1.75;  ///< mm
  double infill_density = 0.2;      ///< 0..1 fraction
  InfillPattern infill = InfillPattern::kLines;
  std::size_t perimeter_count = 2;  ///< concentric shells per layer
  double perimeter_speed = 30.0;    ///< mm/s
  double infill_speed = 45.0;       ///< mm/s
  double travel_speed = 120.0;      ///< mm/s
  /// Maximum volumetric deposition rate (mm^3/s) the hotend can melt; print
  /// speeds are capped so width * layer_height * speed stays below it.
  /// This is why re-slicing at a thicker layer height (the Layer0.3
  /// attack) audibly slows the print down on a real machine.
  double max_volumetric_rate = 4.0;
  double first_layer_speed_factor = 0.5;
  double speed_factor = 1.0;        ///< global multiplier (Speed0.95: 0.95)
  double bed_center_x = 100.0;      ///< part placement on the bed, mm
  double bed_center_y = 100.0;
  double hotend_temp = 205.0;       ///< deg C
  double bed_temp = 60.0;           ///< deg C
  bool emit_header = true;          ///< homing + heating preamble
  bool emit_layer_comments = true;  ///< ;LAYER:n markers
};

/// Slices `outline` (defined around the origin) into a complete program.
/// Throws std::invalid_argument for degenerate configs (non-positive layer
/// height, empty outline, ...).
[[nodiscard]] Program slice(const Polygon& outline, const SlicerConfig& cfg);

}  // namespace nsync::gcode

#endif  // NSYNC_GCODE_SLICER_HPP
