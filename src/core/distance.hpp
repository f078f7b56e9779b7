// Similarity functions and distance metrics (Sections V-B and VII-A).
//
// Two shapes of comparison appear in the paper:
//  * point (frame) comparisons across the C channel values — used by DTW
//    and by point-by-point baselines;
//  * window comparisons along the time axis, computed per channel and then
//    averaged across channels — used by TDE and the DWM comparator (this
//    "discards channel-wise information and focuses on time-wise
//    information", Section V-B).
#ifndef NSYNC_CORE_DISTANCE_HPP
#define NSYNC_CORE_DISTANCE_HPP

#include <span>
#include <string>
#include <vector>

#include "signal/signal.hpp"

namespace nsync::core {

/// Distance metrics supported by the comparator.  The paper defaults to
/// correlation distance because it is insensitive to per-run gain changes
/// (footnote 2); Euclidean/Manhattan/MAE are provided for the baselines and
/// the gain-sensitivity ablation.
enum class DistanceMetric {
  kCorrelation,  ///< 1 - Pearson (Eq. 14)
  kCosine,       ///< 1 - cos angle (Belikovetsky's IDS)
  kEuclidean,    ///< L2
  kManhattan,    ///< L1
  kMae,          ///< mean absolute error (Moore's IDS)
};

[[nodiscard]] std::string distance_metric_name(DistanceMetric m);

/// Distance between two equal-length 1-D vectors.
[[nodiscard]] double vector_distance(std::span<const double> u,
                                     std::span<const double> v,
                                     DistanceMetric metric);

/// Point distance between frame i of `a` and frame j of `b` across the
/// channel dimension (used by DTW and point-based baselines).
[[nodiscard]] double frame_distance(const nsync::signal::SignalView& a,
                                    std::size_t i,
                                    const nsync::signal::SignalView& b,
                                    std::size_t j, DistanceMetric metric);

/// Window distance between two equal-shape windows: the metric is computed
/// along time per channel, then averaged across channels (Section VII-A).
/// Throws std::invalid_argument on shape mismatch.
[[nodiscard]] double window_distance(const nsync::signal::SignalView& u,
                                     const nsync::signal::SignalView& v,
                                     DistanceMetric metric);

/// Reusable scratch for window_distance: holds the per-channel contiguous
/// copies, so a steady-state caller (the streaming DetectionCore) performs
/// no heap allocation per window once the buffers have grown to size.
struct DistanceWorkspace {
  std::vector<double> u;
  std::vector<double> v;
};

/// window_distance writing its scratch into `ws`; bitwise identical to the
/// allocating overload.
[[nodiscard]] double window_distance(const nsync::signal::SignalView& u,
                                     const nsync::signal::SignalView& v,
                                     DistanceMetric metric,
                                     DistanceWorkspace& ws);

}  // namespace nsync::core

#endif  // NSYNC_CORE_DISTANCE_HPP
