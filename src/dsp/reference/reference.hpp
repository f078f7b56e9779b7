// Pre-optimisation reference kernels, for tests and benchmarks only.
//
// These are the implementations the production DSP paths replaced: a
// radix-2 FFT that recomputes its twiddle factors on every call, a real
// FFT that routes non-power-of-two lengths through the complex fft(), and
// a cross-correlation / sliding Pearson built on two full-size complex
// FFTs instead of the real-FFT half-size trick.  The equivalence tests
// compare the production kernels against them, and bench_micro and
// bench_ablation_tde_speed time them as baselines.  They are compiled
// into nsync_dsp_reference, which is built only with NSYNC_BUILD_TESTS or
// NSYNC_BUILD_BENCH and is never installed, so no production library or
// binary carries them.
#ifndef NSYNC_DSP_REFERENCE_REFERENCE_HPP
#define NSYNC_DSP_REFERENCE_REFERENCE_HPP

#include <span>
#include <vector>

#include "dsp/fft.hpp"

namespace nsync::dsp {

/// Radix-2 FFT that recomputes its twiddle factors on every call (the
/// pre-cache implementation of fft_radix2).  `data.size()` must be a
/// power of two.
void fft_radix2_uncached(std::span<Complex> data, bool inverse = false);

/// rfft() as it ran before every length had a cached real-FFT plan: even
/// n pack x into n/2 complex values, run the complex fft() and untangle in
/// std::complex arithmetic; odd n take the complex fft() of the
/// zero-imaginary signal.  Any n; returns floor(n/2)+1 bins.
[[nodiscard]] std::vector<Complex> rfft_unplanned(std::span<const double> x);

/// Pre-rfft cross_correlate_valid using two full-size complex FFTs.
/// Pads to next_power_of_two(nx + ny), the full linear convolution, so
/// it stays independent of the production correlation_fft_size(nx).
/// Requires x.size() >= y.size() >= 1.
[[nodiscard]] std::vector<double> cross_correlate_valid_complex(
    std::span<const double> x, std::span<const double> y);

/// Pre-rfft sliding_pearson_fft: the numerator comes from
/// cross_correlate_valid_complex.  Requires x.size() >= y.size() >= 2.
[[nodiscard]] std::vector<double> sliding_pearson_fft_complex(
    std::span<const double> x, std::span<const double> y);

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_REFERENCE_REFERENCE_HPP
