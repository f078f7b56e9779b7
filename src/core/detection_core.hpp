// The streaming detection core — the single implementation of NSYNC's
// window-by-window detection logic (Sections VII-A/B), shared by the batch
// pipeline (`NsyncIds::analyze`), the per-print streaming monitor
// (`RealtimeMonitor`) and the multi-session `MonitorEngine`.
//
// One `step()` consumes one synchronizer window and performs, in order:
//   1. window scoring     — the comparator's vertical distance (Eq. 16)
//                           against the matched, clamped reference window;
//   2. validity masking   — a window is invalid when the synchronizer
//                           flagged it, either matched window is degenerate
//                           (flat / non-finite samples), or the distance
//                           itself comes out non-finite;
//   3. carry-forward      — invalid windows repeat the last valid h/v
//                           values, so they contribute zero CADHD evidence
//                           and the min filters never see fault artifacts;
//   4. c_disp             — the streaming CADHD accumulator (Eq. 17);
//   5. min filtering      — the spike-suppression filters (Eq. 21-22),
//                           computed incrementally with a monotonic deque
//                           (O(1) amortized per window) instead of
//                           re-scanning the trailing history;
//   6. threshold latching — once armed with OCC thresholds, the first
//                           window whose features cross any critical value
//                           latches the intrusion verdict and records
//                           `first_alarm_window` (Eq. 18-20).
//
// Batch and streaming use produce bitwise-identical features, masks and
// verdicts by construction: the batch path literally replays this state
// machine window by window (see tests/test_streaming_equivalence.cpp).
#ifndef NSYNC_CORE_DETECTION_CORE_HPP
#define NSYNC_CORE_DETECTION_CORE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/discriminator.hpp"
#include "core/distance.hpp"
#include "core/dwm.hpp"
#include "signal/signal.hpp"

namespace nsync::signal {
class ByteWriter;
class ByteReader;
}  // namespace nsync::signal

namespace nsync::core {

/// Incremental trailing-minimum filter (Eq. 21-22) over a scalar stream:
/// push(x) returns min of x and the previous window-1 samples.  Internally
/// a monotonic deque in a fixed ring, so a push is O(1) amortized and
/// allocation-free after construction; the emitted values are exactly
/// those of the batch `signal::min_filter` (same comparison structure),
/// which tests/test_detection_core.cpp pins against a naive recompute.
class StreamingMinFilter {
 public:
  /// Throws std::invalid_argument when `window` is 0.
  explicit StreamingMinFilter(std::size_t window);

  /// Consumes the next sample and returns the filtered value.
  double push(double x);

  /// Samples consumed since construction.
  [[nodiscard]] std::size_t samples() const { return next_; }

  /// Serializes the deque contents and stream position (checkpointing).
  /// Save and restore run one field list (signal/fields.hpp).
  void save_state(nsync::signal::ByteWriter& w) const;
  /// Restores state written by save_state.  Throws CheckpointError:
  /// kMismatch on a different filter window, kCorrupt on malformed state
  /// (a deque that breaks its invariants); on throw, *this is unchanged.
  void restore_state(nsync::signal::ByteReader& r);

 private:
  /// The one field list of the persisted state (signal/fields.hpp); `Self`
  /// is const for encoding.
  template <class Io, class Self>
  static void fields(Io& io, Self& f);

  struct Entry {
    std::size_t index = 0;
    double value = 0.0;
  };

  std::size_t window_ = 0;
  std::vector<Entry> ring_;  // capacity window_ + 1, monotonic deque
  std::size_t head_ = 0;     // ring slot of the deque front
  std::size_t size_ = 0;     // live deque entries
  std::size_t next_ = 0;     // stream index of the next sample
};

/// Window-at-a-time detection state machine.  Feed it one synchronizer
/// window per step() — in real time as windows complete, or in a batch
/// replay over a finished DwmResult — and read features()/valid()/
/// detection() at any point.
class DetectionCore {
 public:
  /// `dwm` supplies the window geometry (n_win/n_hop) used to locate the
  /// matched reference window; `filter_window` is the spike-suppression
  /// width (Section VII-B).  Throws on invalid parameters.
  DetectionCore(const DwmParams& dwm, DistanceMetric metric,
                std::size_t filter_window);

  /// Installs OCC thresholds and arms the intrusion latch.  Steps taken
  /// before arming never fire; discriminating a finished batch instead
  /// uses `discriminate()` on features() (identical comparisons).
  void set_thresholds(const Thresholds& t);
  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] const Thresholds& thresholds() const { return thresholds_; }

  /// Scores window index windows(): `h_disp`/`sync_valid` are the
  /// synchronizer's outputs for it, `a_win` its observed frames (exactly
  /// n_win of them) and `b` the whole reference signal.  Returns the
  /// window's validity after the comparator-stage re-checks.
  bool step(double h_disp, bool sync_valid,
            const nsync::signal::SignalView& a_win,
            const nsync::signal::SignalView& b);

  /// Pre-scored variant: consumes a window whose vertical distance was
  /// already computed (or synthesized — unit tests, non-DWM feeds).
  /// Applies stages 2-6 only; a non-finite `h_disp`/`v_dist` invalidates
  /// the window regardless of `valid`.
  bool step_scored(double h_disp, double v_dist, bool valid);

  /// Pre-allocates every per-window array for `n_windows` windows, and the
  /// distance scratch for one window, so no step performs a heap
  /// allocation.
  void reserve(std::size_t n_windows);

  /// Windows consumed so far.
  [[nodiscard]] std::size_t windows() const { return valid_.size(); }
  /// The three feature arrays, one entry per consumed window.
  [[nodiscard]] const DetectionFeatures& features() const { return features_; }
  /// Running maxima of the three feature arrays: feature_maxima() of
  /// features(), kept per window so a channel score never rescans them.
  /// Not persisted; restore_state() rebuilds them from the arrays.
  [[nodiscard]] const FeatureMaxima& maxima() const { return maxima_; }
  /// Carried vertical distances (the comparator output, Eq. 16).
  [[nodiscard]] const std::vector<double>& v_dist() const { return v_dist_; }
  /// Per-window validity (1 = scored, 0 = degenerate/held).
  [[nodiscard]] const std::vector<std::uint8_t>& valid() const {
    return valid_;
  }
  /// Latched verdict.  `intrusion`/`first_alarm_window` freeze at the
  /// first crossing; the per-sub-module flags keep accumulating so a
  /// finished stream reports exactly what batch `discriminate()` would.
  [[nodiscard]] const Detection& detection() const { return detection_; }

  /// Serializes every window of accumulated state — features, masks,
  /// carried values, min-filter deques, latched verdict — such that a
  /// restored core continues the stream bitwise identically to one that
  /// never stopped.  Save and restore run one field list
  /// (signal/fields.hpp).
  void save_state(nsync::signal::ByteWriter& w) const;
  /// Restores state written by save_state into a core constructed with
  /// the same parameters.  Throws CheckpointError: kMismatch when the
  /// serialized geometry/metric/filter differ from this core's, kCorrupt
  /// on internally inconsistent state — including an armed, valid,
  /// intrusion or by_* byte other than 0/1.  On throw, *this is unchanged.
  void restore_state(nsync::signal::ByteReader& r);

 private:
  bool apply_window(double h_disp, double v_dist, bool ok);
  template <class Io, class Self>
  static void fields(Io& io, Self& c);

  DwmParams dwm_;
  DistanceMetric metric_;
  std::size_t filter_window_;
  Thresholds thresholds_;
  bool armed_ = false;

  DetectionFeatures features_;
  FeatureMaxima maxima_;
  std::vector<double> v_dist_;
  std::vector<std::uint8_t> valid_;
  Detection detection_;

  StreamingMinFilter h_min_;
  StreamingMinFilter v_min_;
  DistanceWorkspace dist_ws_;  // window_distance scratch, reused per step
  double c_disp_acc_ = 0.0;
  double h_prev_ = 0.0;  // last *valid* displacement (carry-forward)
  double v_prev_ = 0.0;  // last *valid* vertical distance
};

}  // namespace nsync::core

#endif  // NSYNC_CORE_DETECTION_CORE_HPP
