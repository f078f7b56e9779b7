// Sliding normalized correlation ("the sliding method", Section V-B).
//
// Two implementations with identical output are provided: a direct
// O(Nx * Ny) evaluation (TdeOptions::use_fft = false) and an rfft +
// prefix-sum path (the default inside TDE).  The pre-rfft complex-FFT
// reference that the tests and bench_ablation_tde_speed compare against
// lives in dsp/reference/reference.hpp, outside the production library.
// The *_into entry points write into caller-owned buffers and perform no
// heap allocation once their workspace has reached steady-state size.
//
// The fft path's centering, prefix-sum, and window-normalization passes
// run through the runtime-dispatched SIMD kernels (dsp/simd/simd.hpp).
// Under a vector backend the prefix sums and energy reductions
// reassociate, so scores can differ from the scalar backend by a few
// ULPs (see DESIGN.md, "SIMD dispatch"); the degenerate-window guard is
// relative (1e-12) and unaffected by that noise.
#ifndef NSYNC_DSP_XCORR_HPP
#define NSYNC_DSP_XCORR_HPP

#include <span>
#include <vector>

#include "dsp/fft.hpp"

namespace nsync::dsp {

/// Reusable scratch for sliding_pearson_fft_into: centered copies of both
/// inputs, the FFT numerator, the prefix sums, and the real-FFT staging
/// buffers.  A default-constructed workspace is valid for any input.
struct SlidingPearsonWorkspace {
  std::vector<double> yc;   ///< centered template
  std::vector<double> xc;   ///< centered long signal
  std::vector<double> num;  ///< FFT cross-correlation numerator
  std::vector<double> ps;   ///< prefix sums of xc
  std::vector<double> ps2;  ///< prefix sums of xc^2
  CorrelationWorkspace corr;

  /// Reserves every buffer for an nx-sample x and an ny-sample template,
  /// so the first sliding_pearson_fft_into of that shape allocates nothing.
  void reserve(std::size_t nx, std::size_t ny);
};

/// s[n] = pearson(x[n : n+Ny], y) for n = 0 .. Nx-Ny  (Eq. 1 with Eq. 3).
/// Direct evaluation.  Requires x.size() >= y.size() >= 2.
[[nodiscard]] std::vector<double> sliding_pearson_naive(
    std::span<const double> x, std::span<const double> y);

/// Same output as sliding_pearson_naive, computed with one real-FFT
/// cross-correlation for the numerator and prefix sums for the windowed
/// means/norms.  Degenerate windows (zero variance, non-finite samples)
/// score 0, matching stats::pearson; note that a single NaN in `x`
/// contaminates the FFT numerator, so on non-finite input this path
/// zeroes *every* affected window while the naive path only zeroes the
/// windows that overlap the NaN — upstream consumers (DwmSynchronizer)
/// mask such windows out before scoring.
[[nodiscard]] std::vector<double> sliding_pearson_fft(
    std::span<const double> x, std::span<const double> y);

/// Same as sliding_pearson_fft, writing into `out` (which must have
/// exactly x.size() - y.size() + 1 elements) using `ws` for all scratch.
/// Zero heap allocations at steady state; bitwise identical to the
/// allocating wrapper.
void sliding_pearson_fft_into(std::span<const double> x,
                              std::span<const double> y,
                              std::span<double> out,
                              SlidingPearsonWorkspace& ws);

/// Allocation-free variant of sliding_pearson_naive writing into `out`
/// (same size contract as sliding_pearson_fft_into).
void sliding_pearson_naive_into(std::span<const double> x,
                                std::span<const double> y,
                                std::span<double> out);

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_XCORR_HPP
