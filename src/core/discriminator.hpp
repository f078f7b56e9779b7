// The NSYNC discriminator (Section VII-B) and its One-Class-Classification
// threshold learning (Section VII-C).
//
// Three sub-modules, each with a learned critical value; any one alarming
// declares an intrusion:
//   1. c_disp: Cumulative Absolute Difference of the Horizontal
//      Displacement (CADHD, Eq. 17) -- catches failed synchronization;
//   2. h_dist: filtered |h_disp| (Eq. 19/21) -- catches timing divergence;
//   3. v_dist: filtered vertical distance (Eq. 20/22) -- catches amplitude
//      divergence.
#ifndef NSYNC_CORE_DISCRIMINATOR_HPP
#define NSYNC_CORE_DISCRIMINATOR_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace nsync::core {

/// Derived per-window (or per-point) detection features.
struct DetectionFeatures {
  std::vector<double> c_disp;    ///< CADHD (Eq. 17)
  std::vector<double> h_dist_f;  ///< min-filtered horizontal distance
  std::vector<double> v_dist_f;  ///< min-filtered vertical distance
};

/// Computes the three feature arrays from the synchronizer/comparator
/// outputs.  `filter_window` is the spike-suppression window (3 by
/// default, Section VII-B).  h_disp and v_dist may differ in length (DWM
/// produces one v_dist per h_disp; DTW one per point) — each feature uses
/// its own source length.
[[nodiscard]] DetectionFeatures compute_features(
    std::span<const double> h_disp, std::span<const double> v_dist,
    std::size_t filter_window = 3);

/// Learned critical values.
struct Thresholds {
  double c_c = 0.0;
  double h_c = 0.0;
  double v_c = 0.0;
};

/// Per-signal maxima of the three features (Eq. 23-25): each is the
/// largest non-NaN value, floored at 0.  Training learns thresholds from
/// them, and a detection core keeps them as running peaks, which is all
/// a channel's anomaly score reads (core::channel_score).
struct FeatureMaxima {
  double c_max = 0.0;
  double h_max = 0.0;
  double v_max = 0.0;
};

/// Field lists (signal/fields.hpp) of the two triples, as raw-bit doubles.
template <class Io>
void thresholds_fields(Io& io, auto& t) {
  io.pod(t.c_c);
  io.pod(t.h_c);
  io.pod(t.v_c);
}
template <class Io>
void maxima_fields(Io& io, auto& m) {
  io.pod(m.c_max);
  io.pod(m.h_max);
  io.pod(m.v_max);
}

/// Maxima of one signal's features (0 when a feature is empty).
[[nodiscard]] FeatureMaxima feature_maxima(const DetectionFeatures& f);

/// Folds one window's features into running maxima.  Applied window by
/// window it reproduces feature_maxima() over the arrays exactly.
inline void fold_window(FeatureMaxima& m, double c_disp, double h_dist_f,
                        double v_dist_f) {
  m.c_max = std::max(m.c_max, c_disp);
  m.h_max = std::max(m.h_max, h_dist_f);
  m.v_max = std::max(m.v_max, v_dist_f);
}

/// Relative floor on the Eq. 28 spread: per feature the margin is
/// r * max(hi - lo, kMinRelativeSpread * hi).  Without it, identical
/// training maxima (a single benign print, or per-device calibration on
/// one profile) collapse the spread to zero and the critical threshold
/// sits exactly at the benign max — any benign window one ULP above
/// training fires.
inline constexpr double kMinRelativeSpread = 0.05;

/// OCC threshold learning (Eq. 26-28): critical = max_m + r (max_m -
/// min_m), with the spread floored at kMinRelativeSpread * max_m so
/// degenerate training sets keep a safety margin.  `r` trades FPR against
/// FNR.  Throws on empty input.
[[nodiscard]] Thresholds learn_thresholds(std::span<const FeatureMaxima> train,
                                          double r);

/// Outcome of running the discriminator over one signal.
struct Detection {
  bool intrusion = false;
  bool by_c_disp = false;  ///< sub-module 1 alarmed
  bool by_h_dist = false;  ///< sub-module 2 alarmed
  bool by_v_dist = false;  ///< sub-module 3 alarmed
  /// Index of the first window (feature entry) at which any sub-module
  /// alarmed — the alarm-latency metric; -1 when benign.
  std::ptrdiff_t first_alarm_window = -1;
};

/// Applies Eq. 18-20 to the features.
[[nodiscard]] Detection discriminate(const DetectionFeatures& f,
                                     const Thresholds& t);

}  // namespace nsync::core

#endif  // NSYNC_CORE_DISCRIMINATOR_HPP
