// Composable, seeded sensor-fault model.
//
// The paper treats the sensing front end as a source of trouble in its own
// right: Section I lists frame drops among the causes of time noise and
// footnote 2 notes the side-channel gains are "susceptible to changes".
// `apply_daq` models the benign version of that (quantization, gain
// jitter, rare frame drops); the FaultInjector models the *degraded*
// regimes a production IDS must survive — a loose connector, a saturated
// amplifier, a DAQ whose clock drifts, a sensor that goes dark mid-print.
//
// Faults compose: every enabled fault type is evaluated per input frame
// from one seeded Rng, so a given (config, seed) pair always yields the
// same output, and the injector keeps its state (gain level, in-progress
// burst, resampling phase) across apply() calls so it can sit inside a
// streaming pipeline and corrupt chunk after chunk consistently.
//
// Amplitude faults act on the original timeline (gain step, stuck-at,
// NaN/Inf burst, saturation); timeline faults (clock skew, duplication,
// dropout) then reshape it.  Every fault interval is recorded in the
// event log with its logical input-frame position, giving tests and
// benches exact ground truth for what was injected where.
#ifndef NSYNC_SENSORS_FAULT_INJECTOR_HPP
#define NSYNC_SENSORS_FAULT_INJECTOR_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "signal/rng.hpp"
#include "signal/signal.hpp"

namespace nsync::sensors {

/// The fault taxonomy.  Rates are per input frame; interval lengths are
/// drawn 1 + Exponential(mean - 1) so every burst lasts at least one
/// frame.
enum class FaultKind {
  kDropout,     ///< contiguous frames lost in transport (shortens stream)
  kStuckAt,     ///< output freezes at the last delivered frame
  kSaturation,  ///< amplifier clipping at +/- a fixed level
  kNanBurst,    ///< ADC glitch emitting NaN (or +/-Inf) samples
  kGainStep,    ///< abrupt multiplicative gain change that persists
  kFrameDuplication,  ///< a frame is delivered twice (lengthens stream)
  kClockSkew,   ///< sampling-clock rate error (resampled timeline)
};

/// All fault probabilities default to 0 (a default FaultConfig is a
/// transparent pass-through), so callers enable exactly the regimes they
/// want to study.
struct FaultConfig {
  /// Per-frame probability that a dropout interval starts.
  double dropout_rate = 0.0;
  /// Mean dropout length in frames (>= 1).
  double dropout_frames_mean = 8.0;

  /// Per-frame probability that the output freezes (stuck-at interval).
  double stuck_rate = 0.0;
  /// Mean stuck interval length in frames (>= 1).
  double stuck_frames_mean = 16.0;

  /// Per-frame probability that a non-finite burst starts.
  double nan_burst_rate = 0.0;
  /// Mean burst length in frames (>= 1).
  double nan_burst_frames_mean = 4.0;
  /// Fraction of burst frames emitting +/-Inf instead of NaN.
  double inf_fraction = 0.25;

  /// Per-frame probability of an abrupt gain step.
  double gain_step_rate = 0.0;
  /// Std of the log-gain step (0.2 ~= +/-20 % per step).
  double gain_step_std = 0.2;

  /// Per-frame probability that the frame is delivered twice.
  double duplication_rate = 0.0;

  /// Clip the output to [-saturation_level, +saturation_level]; <= 0
  /// disables clipping.
  double saturation_level = 0.0;

  /// Relative sampling-clock rate error: the stream is resampled so that
  /// `1 + clock_skew` input frames produce one output frame step (0.001 =
  /// the DAQ clock runs 0.1 % fast).  0 disables resampling.
  double clock_skew = 0.0;

  /// Deterministic slow sensor drift — the aging/temperature regime the
  /// baseline registry adapts to, as opposed to the *abrupt* random
  /// kGainStep above.  Every input frame multiplies the drift gain by
  /// `1 + gain_drift_per_frame` and adds `offset_drift_per_frame` to the
  /// drift offset; a frame's samples become
  /// `v * (gain * drift_gain) + drift_offset` (before saturation).  No
  /// randomness is consumed, so enabling drift does not perturb the other
  /// faults' RNG stream, and no events are logged (drift is continuous,
  /// not an interval).  0 disables.
  double gain_drift_per_frame = 0.0;
  double offset_drift_per_frame = 0.0;

  /// Throws std::invalid_argument when any field is out of range.
  void validate() const;
};

/// One injected fault interval, in logical *input* frame coordinates
/// (indices since the first frame ever passed to apply()).
struct FaultEvent {
  FaultKind kind = FaultKind::kDropout;
  std::size_t start = 0;   ///< first affected input frame
  std::size_t frames = 0;  ///< interval length (1 for point events)
  double value = 0.0;      ///< gain after a step; saturation level; 0 else
};

/// Stateful, streaming-capable fault model.  apply() may be called once
/// with a whole signal or repeatedly with consecutive chunks; the fault
/// state carries across calls.
class FaultInjector {
 public:
  FaultInjector(FaultConfig cfg, std::uint64_t seed);

  /// Corrupts `s` (the next chunk of the stream) and returns the faulted
  /// frames.  The output length can differ from the input length
  /// (dropout, duplication, clock skew).
  [[nodiscard]] nsync::signal::Signal apply(const nsync::signal::SignalView& s);

  /// Ground-truth log of every fault injected so far.
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }

  /// Total input frames consumed so far.
  [[nodiscard]] std::size_t frames_in() const { return frames_in_; }
  /// Total output frames produced so far.
  [[nodiscard]] std::size_t frames_out() const { return frames_out_; }
  /// Current cumulative gain (product of all gain steps).
  [[nodiscard]] double gain() const { return gain_; }
  /// Current cumulative drift gain/offset (see FaultConfig drift fields).
  [[nodiscard]] double drift_gain() const { return drift_gain_; }
  [[nodiscard]] double drift_offset() const { return drift_offset_; }

 private:
  void corrupt_in_place(nsync::signal::Signal& chunk, std::size_t base_frame);
  [[nodiscard]] nsync::signal::Signal resample_skewed(
      const nsync::signal::SignalView& s);
  [[nodiscard]] std::size_t draw_length(double mean);

  FaultConfig cfg_;
  nsync::signal::Rng rng_;
  std::vector<FaultEvent> events_;

  // Streaming state.
  std::size_t frames_in_ = 0;
  std::size_t frames_out_ = 0;
  double gain_ = 1.0;
  double drift_gain_ = 1.0;
  double drift_offset_ = 0.0;
  std::size_t stuck_left_ = 0;
  std::size_t nan_left_ = 0;
  std::size_t drop_left_ = 0;
  std::vector<double> held_frame_;   // last clean frame (stuck-at source)
  bool have_held_frame_ = false;
  // Clock-skew resampler state: position of the next output sample on the
  // global input timeline, plus the last input frame of the previous
  // chunk for cross-chunk interpolation.
  double skew_pos_ = 0.0;
  std::vector<double> skew_prev_frame_;
  bool have_skew_prev_ = false;
};

/// Convenience for the "sensor goes dark" scenario: returns a copy of `s`
/// whose frames from `from_frame` on are replaced by the constant `level`
/// (a flatlined, zero-information channel).  `from_frame` past the end
/// returns the signal unchanged.
[[nodiscard]] nsync::signal::Signal flatline_from(
    const nsync::signal::SignalView& s, std::size_t from_frame,
    double level = 0.0);

}  // namespace nsync::sensors

#endif  // NSYNC_SENSORS_FAULT_INJECTOR_HPP
