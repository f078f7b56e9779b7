// 1-D filters used by the NSYNC discriminator and the sensor models:
// trailing minimum filter (spike suppression, Eq. 21-22), moving average,
// median filter and cumulative absolute difference (Eq. 17).
#ifndef NSYNC_SIGNAL_FILTERS_HPP
#define NSYNC_SIGNAL_FILTERS_HPP

#include <cstddef>
#include <span>
#include <vector>

namespace nsync::signal {

/// Trailing minimum filter (Eq. 21-22 of the paper):
///   out[i] = min(v[max(0, i-n+1) : i+1])
/// i.e. the minimum of the current sample and the previous n-1 samples.
/// The paper writes min(v[i-n : i]); we interpret the window as including
/// the current sample so that the filtered array has the same length and a
/// defined value at i = 0.  `window` must be >= 1.
[[nodiscard]] std::vector<double> min_filter(std::span<const double> v,
                                             std::size_t window);

/// Trailing moving average with the same window convention as min_filter.
[[nodiscard]] std::vector<double> moving_average(std::span<const double> v,
                                                 std::size_t window);

/// Centered median filter with an odd window (edges use shrunken windows).
[[nodiscard]] std::vector<double> median_filter(std::span<const double> v,
                                                std::size_t window);

/// Cumulative absolute difference (Eq. 17):
///   out[i] = sum_{j<=i} |v[j] - v[j-1]|  with v[-1] = `initial`.
[[nodiscard]] std::vector<double> cumulative_abs_diff(
    std::span<const double> v, double initial = 0.0);

}  // namespace nsync::signal

#endif  // NSYNC_SIGNAL_FILTERS_HPP
