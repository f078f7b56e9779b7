// Firmware executor: runs a MotionPlan on a simulated clock, injecting the
// paper's time noise (duration jitter, random inter-command gaps, slow
// drift, start offset), integrating a first-order thermal model, and
// sampling everything into a uniformly-sampled MotionTrace that the sensor
// models render into side-channel signals.
#ifndef NSYNC_PRINTER_EXECUTOR_HPP
#define NSYNC_PRINTER_EXECUTOR_HPP

#include <array>
#include <cstddef>
#include <vector>

#include "printer/machine.hpp"
#include "printer/planner.hpp"
#include "signal/rng.hpp"

namespace nsync::printer {

/// Timestamped layer-change event (ground truth used by the layer-coarse
/// baselines; the paper obtained these from a bed accelerometer or Z-motor
/// currents).
struct LayerEvent {
  std::size_t layer = 0;
  double time = 0.0;  ///< seconds from trace start
};

/// Uniformly sampled record of the machine state over a whole printing
/// process.  All per-sample vectors share the same length.
struct MotionTrace {
  double sample_rate = 0.0;  ///< master rate in Hz

  std::vector<double> x, y, z;     ///< head position (mm)
  std::vector<double> vx, vy, vz;  ///< head velocity (mm/s)
  std::vector<double> ax, ay, az;  ///< head acceleration (mm/s^2)
  std::array<std::vector<double>, 3> motor_vel;  ///< motor-space speeds
  std::vector<double> flow;         ///< extrusion rate (mm filament / s)
  std::vector<double> fan;          ///< fan duty 0..1
  std::vector<double> hotend_temp;  ///< deg C
  std::vector<double> bed_temp;     ///< deg C
  std::vector<double> hotend_duty;  ///< heater duty 0..1
  std::vector<double> bed_duty;     ///< heater duty 0..1
  std::vector<double> layer;        ///< active layer index

  std::vector<LayerEvent> layer_events;

  [[nodiscard]] std::size_t samples() const { return x.size(); }
  [[nodiscard]] double duration() const {
    return sample_rate > 0.0 ? static_cast<double>(samples()) / sample_rate
                             : 0.0;
  }
};

/// Execution options.
struct ExecutorConfig {
  double sample_rate = 2000.0;  ///< master trace rate (Hz)
  /// Hard cap on any single heater wait (seconds of simulated time).
  double max_heat_wait = 120.0;
  /// Temperature tolerance that releases M109/M190.
  double temp_tolerance = 1.5;
  /// Extra trace padding after the last command (seconds).
  double tail_padding = 0.25;
};

/// Executes `plan` on machine `m` with time noise drawn from `rng`.
/// A `m.time_noise` with every source at 0 gives a noise-free reference
/// run.  Throws std::domain_error if the toolpath leaves a delta
/// machine's reachable volume.
[[nodiscard]] MotionTrace execute_plan(const MotionPlan& plan,
                                       const MachineConfig& m,
                                       const ExecutorConfig& cfg,
                                       nsync::signal::Rng& rng);

/// Drops everything before `t_start` seconds and re-bases timestamps.
/// Used to start side-channel signals at the first deposition move: the
/// paper aligns signals "at the beginning of the printing process", i.e.
/// after homing/heating, whose duration varies run to run.
[[nodiscard]] MotionTrace trim_trace(const MotionTrace& trace, double t_start);

/// Convenience: trims to `pre_roll` seconds before the first layer event
/// (no-op when there are no layer events).
[[nodiscard]] MotionTrace trim_to_first_layer(const MotionTrace& trace,
                                              double pre_roll = 0.25);

}  // namespace nsync::printer

#endif  // NSYNC_PRINTER_EXECUTOR_HPP
