// Machine descriptions for the two printers of the evaluation:
// an Ultimaker 3-like Cartesian machine (UM3) and a SeeMeCNC Rostock Max
// V3-like delta machine (RM3), plus the stochastic time-noise model that is
// the phenomenon the paper studies (Section I).
#ifndef NSYNC_PRINTER_MACHINE_HPP
#define NSYNC_PRINTER_MACHINE_HPP

#include <array>
#include <string>

namespace nsync::printer {

enum class KinematicsType {
  kCartesian,  ///< motors drive X/Y/Z directly (UM3 style)
  kDelta,      ///< three vertical towers with arms (RM3 style)
};

/// Delta-robot geometry: towers at 120 degree spacing on a circle of
/// `tower_radius`, arms of length `arm_length` connecting carriages to the
/// effector.
struct DeltaGeometry {
  double arm_length = 291.0;    ///< mm (Rostock Max V3 ballpark)
  double tower_radius = 200.0;  ///< mm
};

/// Sources of time noise (Section I): frame drops in the DAQ, mechanical
/// and thermal delays in devices, and task scheduling.  Each printing
/// process draws fresh noise from these distributions, which is what makes
/// repeated runs of the same G-code end at different times (Fig. 1).
struct TimeNoiseConfig {
  /// Multiplicative duration jitter per motion segment:
  /// actual = nominal * max(0.2, 1 + N(0, duration_jitter_std)).
  double duration_jitter_std = 0.01;
  /// Probability that a random gap is inserted after a segment.
  double gap_probability = 0.02;
  /// Mean of the exponential gap length (seconds).
  double gap_mean = 0.02;
  /// Std of the one-time startup offset (seconds); models the alignment
  /// error left over after signals are aligned "at the beginning".
  double start_offset_std = 0.01;
  /// Low-frequency drift: a slowly varying speed factor with this
  /// amplitude (fraction) models firmware/clock drift over the process.
  double drift_amplitude = 0.004;
  /// Period of the drift modulation in seconds.
  double drift_period = 40.0;
};

/// Printer description: kinematics, dynamic limits, drivetrain and a simple
/// first-order thermal model for the hotend and bed.
struct MachineConfig {
  std::string name = "UM3";
  KinematicsType kinematics = KinematicsType::kCartesian;
  DeltaGeometry delta;

  double max_velocity = 150.0;        ///< mm/s (XY)
  double max_z_velocity = 20.0;       ///< mm/s
  double max_accel = 3000.0;          ///< mm/s^2
  double junction_deviation = 0.05;   ///< mm (corner slowdown aggressiveness)
  double min_junction_speed = 0.5;    ///< mm/s floor at sharp corners

  std::array<double, 3> steps_per_mm = {80.0, 80.0, 400.0};  ///< per motor
  double e_steps_per_mm = 300.0;

  // First-order thermal model: dT/dt = (duty * heat_rate - (T - ambient) /
  // tau).  heat_rate is deg C per second at full power.
  double ambient_temp = 25.0;
  double hotend_heat_rate = 40.0;  ///< scaled up so heating is seconds, not
                                   ///< minutes (documented in DESIGN.md)
  double hotend_tau = 25.0;
  double bed_heat_rate = 15.0;
  double bed_tau = 60.0;

  double motor_hold_current = 0.3;   ///< A, stepper idle current proxy
  double motor_run_current = 0.9;    ///< A while moving
  double heater_hotend_power = 35.0; ///< W at full duty
  double heater_bed_power = 180.0;   ///< W at full duty
  double base_power = 8.0;           ///< W electronics idle draw

  TimeNoiseConfig time_noise;
};

/// An Ultimaker 3-like Cartesian machine (the most popular desktop printer
/// per the paper's Section VIII-A).
[[nodiscard]] MachineConfig ultimaker3();

/// A SeeMeCNC Rostock Max V3-like delta machine.
[[nodiscard]] MachineConfig rostock_max_v3();

/// Motor-space position for a head position (x, y, z) in mm.
/// Cartesian: identity.  Delta: the three carriage heights via inverse
/// kinematics; throws std::domain_error when (x, y) is out of reach.
[[nodiscard]] std::array<double, 3> motor_positions(const MachineConfig& m,
                                                    double x, double y,
                                                    double z);

}  // namespace nsync::printer

#endif  // NSYNC_PRINTER_MACHINE_HPP
