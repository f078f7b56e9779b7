// The NSYNC IDS (Fig. 7): dynamic synchronizer -> comparator ->
// discriminator, with OCC threshold learning.  Both synchronizers are
// supported: DWM (Table VIII) and DTW/FastDTW (Table IX).
#ifndef NSYNC_CORE_NSYNC_HPP
#define NSYNC_CORE_NSYNC_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/comparator.hpp"
#include "core/detection_core.hpp"
#include "core/discriminator.hpp"
#include "core/distance.hpp"
#include "core/dtw.hpp"
#include "core/dwm.hpp"
#include "core/health.hpp"
#include "signal/signal.hpp"

namespace nsync::core {

enum class SyncMethod {
  kDwm,  ///< Dynamic Window Matching (the paper's contribution)
  kDtw,  ///< FastDTW (the prior art)
};

struct NsyncConfig {
  SyncMethod sync = SyncMethod::kDwm;
  DwmParams dwm;                  ///< used when sync == kDwm
  std::size_t dtw_radius = 1;     ///< used when sync == kDtw ("the smallest
                                  ///< radius for the fastest speed")
  DistanceMetric metric = DistanceMetric::kCorrelation;
  std::size_t filter_window = 3;  ///< spike suppression (Eq. 21-22)
  double r = 0.3;                 ///< OCC margin (Section VIII-E)
  HealthPolicy health;            ///< channel-health state machine knobs
};

/// Synchronizer + comparator outputs for one observed signal.
///
/// `valid[i] == 0` marks window i as degenerate (sensor fault: flat or
/// non-finite data in either matched window); its h_disp/v_dist hold the
/// last valid value and contribute no detection evidence.  Empty for the
/// DTW path (no fault masking) — treat empty as all-valid.
struct Analysis {
  std::vector<double> h_disp;
  std::vector<double> v_dist;
  std::vector<std::uint8_t> valid;
  DetectionFeatures features;
};

/// A complete NSYNC intrusion detection system bound to one reference
/// signal.  Typical use:
///   NsyncIds ids(reference, config);
///   ids.fit(benign_training_signals);
///   Detection d = ids.detect(observed);
///
/// Thread safety: after construction (and, for detect, after fit) the
/// const methods — analyze(), detect(), thresholds(), config(),
/// reference() — touch no mutable state (no caches, no lazy init) and
/// may be called concurrently from any number of threads on one
/// instance; the eval experiment runners do exactly that.  fit(),
/// fit_from_analyses() and set_thresholds() are writers and must not
/// overlap with readers.
class NsyncIds {
 public:
  NsyncIds(nsync::signal::Signal reference, NsyncConfig config);

  /// Runs the synchronizer and the comparator on one observed signal.
  [[nodiscard]] Analysis analyze(const nsync::signal::SignalView& observed) const;

  /// Learns the OCC thresholds from benign observations (Section VII-C).
  /// Throws when `benign` is empty.
  void fit(std::span<const nsync::signal::Signal> benign);

  /// Learns thresholds from precomputed analyses (lets callers reuse
  /// analyses across `r` sweeps).
  void fit_from_analyses(std::span<const Analysis> analyses);

  /// Manually installs thresholds.
  void set_thresholds(const Thresholds& t) {
    thresholds_ = t;
    trained_ = true;
  }

  /// Analyzes and discriminates.  Throws std::logic_error before fit().
  [[nodiscard]] Detection detect(const nsync::signal::SignalView& observed) const;

  /// Discriminates a precomputed analysis.
  [[nodiscard]] Detection detect(const Analysis& analysis) const;

  [[nodiscard]] const Thresholds& thresholds() const;
  [[nodiscard]] bool trained() const { return trained_; }
  [[nodiscard]] const NsyncConfig& config() const { return config_; }
  [[nodiscard]] const nsync::signal::Signal& reference() const {
    return reference_;
  }

 private:
  nsync::signal::Signal reference_;
  NsyncConfig config_;
  Thresholds thresholds_;
  bool trained_ = false;
};

/// Real-time monitor: a streaming NSYNC/DWM instance that consumes observed
/// frames as the print progresses and raises the alarm at the first window
/// whose features cross the thresholds.  DWM's causality is what makes this
/// possible (DTW "does not natively support real-time operations").
///
/// This is a thin composition: DwmSynchronizer turns frames into windows,
/// DetectionCore scores/masks/latches each window, ChannelHealthMonitor
/// classifies the validity stream.  All detection logic lives in the core.
class RealtimeMonitor {
 public:
  /// `config.sync` must be kDwm; throws std::invalid_argument otherwise.
  RealtimeMonitor(nsync::signal::Signal reference, NsyncConfig config,
                  Thresholds thresholds);

  /// Feeds observed frames; processes every completed window and updates
  /// the detection state.  Returns the number of windows processed by this
  /// call.  Once an intrusion has been flagged the state latches.  On
  /// return the synchronizer holds only frames a future window reads.
  std::size_t push(const nsync::signal::SignalView& frames);

  /// Pre-allocates synchronizer and core storage for `n_windows` windows so
  /// no window step after this — the first included — performs a heap
  /// allocation.
  void reserve_windows(std::size_t n_windows);

  [[nodiscard]] const Detection& detection() const {
    return core_.detection();
  }
  [[nodiscard]] bool intrusion() const { return core_.detection().intrusion; }
  [[nodiscard]] std::size_t windows() const { return sync_.windows(); }
  /// Frames ever pushed, also those after the reference was exhausted.
  [[nodiscard]] std::size_t frames_pushed() const {
    return sync_.observed().end();
  }
  /// Features accumulated so far (c_disp / filtered distances per window).
  [[nodiscard]] const DetectionFeatures& features() const {
    return core_.features();
  }

  /// Running maxima of features(), the input of core::channel_score.
  [[nodiscard]] const FeatureMaxima& feature_maxima() const {
    return core_.maxima();
  }

  /// Per-window validity mask (1 = scored, 0 = degenerate window whose
  /// features were carried forward from the last valid window).
  [[nodiscard]] const std::vector<std::uint8_t>& valid() const {
    return core_.valid();
  }
  /// Current channel-health classification driven by the validity stream
  /// (healthy -> degraded -> offline with recovery hysteresis; see
  /// core/health.hpp).  The fusion layer uses this to drop offline
  /// channels from the vote.
  [[nodiscard]] ChannelHealth health() const { return health_.state(); }

  /// The configuration this monitor was constructed with (checkpointing
  /// needs it to rebuild an identical monitor before restore_state).
  [[nodiscard]] const NsyncConfig& config() const { return config_; }
  /// The armed OCC thresholds.
  [[nodiscard]] const Thresholds& thresholds() const {
    return core_.thresholds();
  }
  /// The reference signal this monitor synchronizes against.
  [[nodiscard]] const nsync::signal::Signal& reference() const {
    return sync_.reference();
  }

  /// Running maxima of the detection features over *benign-looking*
  /// windows only: a window contributes iff it was valid, the channel was
  /// healthy when it completed, and no intrusion was latched.  This is the
  /// raw material the baseline registry folds into per-device OCC
  /// re-learning at end of print — windows observed during an alarm or on
  /// a degraded/offline sensor never enter the baseline (anti-poisoning).
  [[nodiscard]] const FeatureMaxima& benign_feature_maxima() const {
    return benign_max_;
  }
  /// Number of windows that contributed to benign_feature_maxima().
  [[nodiscard]] std::uint64_t benign_windows() const {
    return benign_windows_;
  }

  /// Serializes the full streaming state — synchronizer, detection core,
  /// health machine — so a monitor restored into the same configuration
  /// continues the stream bitwise identically to one that never stopped.
  void save_state(nsync::signal::ByteWriter& w) const;
  /// Restores state written by save_state.  Throws CheckpointError
  /// (kMismatch/kCorrupt); on throw this monitor is unchanged.
  void restore_state(nsync::signal::ByteReader& r);

 private:
  /// The one field list of the persisted state (signal/fields.hpp); `Self`
  /// is const for encoding.
  template <class Io, class Self>
  static void fields(Io& io, Self& m);

  DwmSynchronizer sync_;
  NsyncConfig config_;
  DetectionCore core_;
  ChannelHealthMonitor health_;
  FeatureMaxima benign_max_;
  std::uint64_t benign_windows_ = 0;
};

}  // namespace nsync::core

#endif  // NSYNC_CORE_NSYNC_HPP
