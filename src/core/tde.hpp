// Time Delay Estimation (Section V-B) and its biased variant TDEB
// (Section VI-B, Fig. 5).
//
// TDE slides the template `y` across the longer signal `x`, scores each
// placement with the channel-averaged Pearson correlation, and returns the
// argmax.  TDEB multiplies the score array by a Gaussian window centered at
// an expected delay, biasing the estimate toward continuity when the window
// content is periodic or noisy.
//
// Every channel count runs the same correlation: each channel goes
// through dsp::sliding_pearson_fft_into (two single-lane rffts and one
// irfft at dsp::correlation_fft_size(nx)) on the workspace's per-channel
// scratch, and the channel scores are summed in channel order and scaled
// by 1/C.  A multichannel score is therefore bitwise the channel average
// of sliding_pearson_fft under every SIMD backend.
//
// Two tiers of API are provided.  The allocating functions return fresh
// vectors and are convenient for tests and ablations.  The TdeWorkspace
// overloads thread reusable scratch through dsp::xcorr so that the DWM
// steady-state path (one TDEB call per window, millions of windows per
// print) performs no heap allocation and fuses score accumulation, the
// negative-score clamp, the Gaussian bias and the argmax into a single
// pass with no intermediate vectors.  Both tiers produce bitwise
// identical results.
#ifndef NSYNC_CORE_TDE_HPP
#define NSYNC_CORE_TDE_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/xcorr.hpp"
#include "signal/signal.hpp"

namespace nsync::core {

struct TdeOptions {
  /// Use the FFT + prefix-sum sliding correlation (identical output to the
  /// naive path; the naive path exists for testing and ablation).
  bool use_fft = true;
};

/// Per-thread scratch for the allocation-free TDE path: channel
/// extraction buffers, per-channel and accumulated score buffers, and the
/// sliding-correlation workspace (which itself owns the FFT staging).  A
/// default-constructed workspace is valid for any input and grows to
/// steady-state size on first use.
struct TdeWorkspace {
  std::vector<double> x_chan;       ///< channel c of x (strided copy)
  std::vector<double> y_chan;       ///< channel c of y (strided copy)
  std::vector<double> chan_scores;  ///< per-channel sliding correlation
  std::vector<double> scores;       ///< channel-averaged similarity
  nsync::dsp::SlidingPearsonWorkspace pearson;

  // TDEB Gaussian weight cache: reused verbatim while (center, sigma,
  // n_out) are unchanged (static callers); recomputed otherwise.
  std::vector<double> bias_w;
  double bias_center = 0.0;
  double bias_sigma = 0.0;

  /// Reserves the buffers (and builds the FFT plan) that TDE and TDEB of
  /// an nx-frame x against an ny-frame template, both with `channels`
  /// channels, use under `opts`, so the first call of that shape
  /// allocates nothing.  The per-channel scratch is shared by every
  /// channel, so the reservation does not grow with `channels`.
  /// Requires nx >= ny >= 2.
  void reserve(std::size_t nx, std::size_t ny, std::size_t channels,
               const TdeOptions& opts);
};

/// Similarity array s[n] = f(x[n : n+Ny], y), n = 0 .. Nx - Ny (Eq. 1).
/// Multichannel inputs are scored per channel and averaged (Section V-B).
/// Fills ws.scores and returns a span over it (valid until the workspace
/// is reused); no heap allocation at steady state.  The delay estimate
/// n_delay (Eq. 2) is the argmax of these scores.  Throws
/// std::invalid_argument when shapes are incompatible.
std::span<const double> similarity_scores_into(
    const nsync::signal::SignalView& x, const nsync::signal::SignalView& y,
    const TdeOptions& opts, TdeWorkspace& ws);

/// Multiplies `scores` by a Gaussian of std `sigma_samples` centered at
/// `center` (TDEB bias).  Returns the biased copy.
[[nodiscard]] std::vector<double> bias_scores(std::vector<double> scores,
                                              double center,
                                              double sigma_samples);

/// TDEB[sigma](x, y): biased delay estimate.  `center` is the score index
/// the bias pulls toward (n_ext in the DWM algorithm).  Returns the argmax
/// of the biased scores.
[[nodiscard]] std::size_t estimate_delay_biased(
    const nsync::signal::SignalView& x, const nsync::signal::SignalView& y,
    double center, double sigma_samples, const TdeOptions& opts = {});

/// Fused workspace variant of estimate_delay_biased: similarity scoring,
/// the clamp of negative correlations, the Gaussian bias and the argmax
/// run as one pass over ws.scores with no intermediate vectors.  Bitwise
/// identical to the allocating overload.
std::size_t estimate_delay_biased(const nsync::signal::SignalView& x,
                                  const nsync::signal::SignalView& y,
                                  double center, double sigma_samples,
                                  const TdeOptions& opts, TdeWorkspace& ws);

}  // namespace nsync::core

#endif  // NSYNC_CORE_TDE_HPP
