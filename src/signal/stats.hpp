// Basic descriptive statistics over 1-D sample arrays and per-channel
// statistics over multichannel signals.  The mean and Pearson
// accumulation loops run through the runtime-dispatched SIMD
// moments kernels (dsp/simd/simd.hpp), shared with dsp/xcorr.cpp; under
// a vector backend these reductions reassociate and may differ from the
// scalar backend by a few ULPs.
#ifndef NSYNC_SIGNAL_STATS_HPP
#define NSYNC_SIGNAL_STATS_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "signal/signal.hpp"

namespace nsync::signal {

/// Arithmetic mean of `v` (0 for an empty span).
[[nodiscard]] double mean(std::span<const double> v);

/// Maximum value (throws std::invalid_argument on an empty span).
[[nodiscard]] double max_value(std::span<const double> v);

/// Pearson correlation coefficient between `u` and `v` (Eq. 3 of the paper).
/// Returns 0 when either vector is degenerate — its centered energy is
/// rounding noise relative to its raw magnitude (the shared
/// simd::degenerate_variance guard, also used by the sliding-correlation
/// window normalization) — or when any sample is non-finite (the paper's
/// similarity function is undefined there; 0 is the neutral score).
[[nodiscard]] double pearson(std::span<const double> u,
                             std::span<const double> v);

/// True when every sample of `s` is finite (no NaN / +-Inf).
[[nodiscard]] bool finite_window(const SignalView& s);

/// True when `s` cannot support correlation-based comparison: it is
/// shorter than 2 frames, contains a non-finite sample, or every channel
/// is constant (zero variance).  Such windows are tagged invalid by the
/// streaming pipeline instead of being scored.
[[nodiscard]] bool degenerate_window(const SignalView& s);

/// Per-channel means of a multichannel signal.
[[nodiscard]] std::vector<double> channel_means(const SignalView& s);

}  // namespace nsync::signal

#endif  // NSYNC_SIGNAL_STATS_HPP
