// Pre-optimisation reference kernels, for tests and benchmarks only.
//
// These are the implementations the production DSP paths replaced: a
// radix-2 FFT that recomputes its twiddle factors on every call, a real
// FFT that routes non-power-of-two lengths through the complex fft(), and
// a cross-correlation / sliding Pearson built on two full-size complex
// FFTs instead of the real-FFT half-size trick; plus a spectrogram that
// sums every window as a direct real DFT, the independent twin of the
// small-window column route.  The equivalence tests
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
#include "dsp/stft.hpp"
#include "signal/signal.hpp"

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

/// spectrogram() with every column of every channel computed as a direct
/// real DFT, whatever n_win is: bin k of a windowed frame x is
/// re = sum_j x_j cos(2 pi r/n), im = sum_j x_j * -sin(2 pi r/n) with
/// r = jk mod n, both summed in j order from 0.0, and its magnitude is
/// sqrt(re*re + im*im) (log1p'd when configured).  Written independently
/// of detail::StftColumn but with its twiddle values and summation order,
/// so the windows that column sums directly match it bitwise.
[[nodiscard]] nsync::signal::Signal spectrogram_dft_reference(
    const nsync::signal::SignalView& s, const StftConfig& cfg);

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_REFERENCE_REFERENCE_HPP
