// The sensor rig: renders a simulated MotionTrace into each of the six
// side-channel signals of Table II.
//
// Model summary (see DESIGN.md for the substitution argument):
//  ACC  head acceleration + frame resonance + wideband noise; gyro channels
//       react to cross-axis acceleration (strongly printer-state coupled)
//  TMP  sensor die temperature: slow thermal state + noise (weakly coupled)
//  MAG  stepper coil currents through a fixed coupling matrix + geomagnetic
//       offset + strong noise (coupled but noisy, as in Fig. 10)
//  AUD  per-motor step-frequency tones with harmonics + fan/ambient noise
//       (strongly coupled)
//  EPT  60 Hz mains hum dominating a faint motion-correlated EMI floor (raw
//       signal useless, spectrogram informative — Section VIII-B)
//  PWR  heater-dominated electrical power draw (weakly coupled)
#ifndef NSYNC_SENSORS_RIG_HPP
#define NSYNC_SENSORS_RIG_HPP

#include <cstdint>

#include "printer/executor.hpp"
#include "printer/machine.hpp"
#include "sensors/daq.hpp"
#include "sensors/side_channel.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

namespace nsync::sensors {

/// Rig-wide rendering options.
struct RigConfig {
  /// Multiplies all Table II sampling rates.  The paper records AUD at
  /// 48 kHz and EPT at 96 kHz; eval runs use rate_scale < 1 to keep the
  /// synthetic datasets tractable (recorded in EXPERIMENTS.md).
  double rate_scale = 1.0;
  /// Per-channel explicit rate override in Hz; <= 0 means
  /// paper_rate * rate_scale.
  double acc_rate = 0.0;
  double tmp_rate = 0.0;
  double mag_rate = 0.0;
  double aud_rate = 0.0;
  double ept_rate = 0.0;
  double pwr_rate = 0.0;
  /// Scales every additive noise source.
  double noise_scale = 1.0;
  /// DAQ model shared by all channels; bits/full_scale are set per channel.
  DaqConfig daq;
  /// Disables the DAQ stage entirely (deterministic unit tests).
  bool apply_daq = true;
};

/// Renders side-channel signals from motion traces.
class SensorRig {
 public:
  SensorRig(printer::MachineConfig machine, RigConfig config);

  /// Effective sampling rate for `ch` under this rig's configuration.
  [[nodiscard]] double rate(SideChannel ch) const;

  /// Renders one side channel from `trace`.  `rng` drives sensor noise and
  /// the DAQ model; pass a per-run fork so runs are independent.
  [[nodiscard]] nsync::signal::Signal render(SideChannel ch,
                                             const printer::MotionTrace& trace,
                                             nsync::signal::Rng& rng) const;

 private:
  printer::MachineConfig machine_;
  RigConfig config_;
};

}  // namespace nsync::sensors

#endif  // NSYNC_SENSORS_RIG_HPP
