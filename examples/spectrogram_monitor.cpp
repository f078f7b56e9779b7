// Example: real-time monitoring on the spectrogram transform.
//
// Table VIII shows spectrograms are the strongest transform for several
// side channels (they are shift-tolerant within a column and separate
// informative bins from hum, e.g. EPT's 60 Hz).  This example chains the
// full live pipeline:
//
//   DAQ chunks -> StreamingStft (columns) -> RealtimeMonitor (NSYNC/DWM)
//
// on the audio channel, against an InfillGrid-sabotaged print.
//
// Run: ./build/examples/spectrogram_monitor
#include <iostream>

#include "core/nsync.hpp"
#include "dsp/streaming_stft.hpp"
#include "eval/setup.hpp"
#include "gcode/attacks.hpp"
#include "printer/simulator.hpp"
#include "sensors/rig.hpp"

using namespace nsync;

namespace {

signal::Signal observe_aud(const gcode::Program& program,
                           const eval::PrinterSetup& setup,
                           std::uint64_t seed) {
  printer::ExecutorConfig exec;
  exec.sample_rate = 1500.0;
  const printer::MotionTrace trace = printer::trim_to_first_layer(
      printer::simulate_print(program, setup.machine, exec, seed));
  const sensors::SensorRig rig(setup.machine, setup.rig);
  signal::Rng rng(seed * 131 + 3);
  return rig.render(sensors::SideChannel::kAud, trace, rng);
}

}  // namespace

int main() {
  const eval::EvalScale scale = eval::EvalScale::tiny();
  const eval::PrinterSetup setup =
      eval::make_printer_setup(eval::PrinterKind::kUm3, scale);
  const auto stft_cfg = eval::table3_stft(sensors::SideChannel::kAud);

  // Reference + training, transformed offline (training is not live).
  const signal::Signal ref_raw = observe_aud(setup.benign_program, setup, 1);
  const signal::Signal reference = dsp::spectrogram(ref_raw, stft_cfg);
  std::cout << "reference spectrogram: " << reference.frames()
            << " columns x " << reference.channels() << " channels @ "
            << reference.sample_rate() << " Hz\n";

  core::NsyncConfig cfg;
  cfg.sync = core::SyncMethod::kDwm;
  cfg.dwm = eval::dwm_params_for(eval::PrinterKind::kUm3,
                                 reference.sample_rate());
  cfg.r = 0.3;
  core::NsyncIds ids(reference, cfg);
  std::vector<signal::Signal> train;
  for (std::uint64_t s = 2; s < 9; ++s) {
    train.push_back(
        dsp::spectrogram(observe_aud(setup.benign_program, setup, s),
                         stft_cfg));
  }
  ids.fit(train);

  // Live phase: raw audio chunks stream through the STFT into the monitor.
  const gcode::Program sabotaged =
      gcode::attack_infill_grid(setup.outline, setup.slicer);
  const signal::Signal live_raw = observe_aud(sabotaged, setup, 42);

  dsp::StreamingStft stft(stft_cfg, live_raw.sample_rate(),
                          live_raw.channels());
  core::RealtimeMonitor monitor(reference, cfg, ids.thresholds());

  const auto chunk = static_cast<std::size_t>(0.05 * live_raw.sample_rate());
  std::size_t pos = 0;
  while (pos < live_raw.frames() && !monitor.intrusion()) {
    const std::size_t end = std::min(pos + chunk, live_raw.frames());
    // Forward newly finished spectrogram columns to the monitor.
    if (stft.push(signal::SignalView(live_raw).slice(pos, end)) > 0) {
      monitor.push(stft.emitted());
    }
    pos = end;
  }

  const double t = static_cast<double>(pos) / live_raw.sample_rate();
  if (monitor.intrusion()) {
    std::cout << "ALARM after " << t << " s of audio ("
              << stft.columns() << " spectrogram columns, "
              << monitor.windows() << " DWM windows)\n";
    return 0;
  }
  std::cout << "no alarm raised — attack missed\n";
  return 1;
}
