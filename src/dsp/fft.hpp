// Fast Fourier Transform.
//
// Provides an iterative radix-2 complex FFT plus a Bluestein (chirp-Z)
// fallback so that any length is supported, and real-input transforms
// (rfft/irfft) that exploit conjugate symmetry via the half-size complex
// trick: a length-N real FFT runs as one length-N/2 complex FFT plus an
// O(N) untangling pass, roughly halving the work of the complex path.
// For power-of-two N the pack gathers the even/odd sample pairs straight
// into bit-reversed order, so the half-size transform runs only its
// butterfly stages (no separate in-place permutation pass); irfft does
// the same gather after its untangle.  Every radix-2 transform runs its
// butterfly stages two per sweep over the planes (one sweep loads and
// stores each element once for both stages), and every radix-2 inverse
// scales by the exact reciprocal 1/n of its power-of-two size.  Other
// even N run the same trick with a Bluestein half transform, and odd N
// one N-point Bluestein transform.  The N/2+1 non-negative-frequency
// bins feed the spectrogram pipeline (Table III of the paper) and the
// fast TDE cross-correlation; both run every channel through this one
// single-lane forward transform.
//
// All entry points share a process-wide, thread-safe plan cache: radix-2
// twiddle factors and bit-reversal permutations are computed once per
// size, real-FFT untangling twiddles once per even size (power of two or
// not), and the Bluestein chirp plus the FFT of its convolution kernel
// once per (size, direction).  Every function here is safe to call
// concurrently from multiple threads, and the workspace entry points
// perform no heap allocation once their buffers have grown to
// steady-state size.  A
// CorrelationWorkspace also holds the plan of its last transform size,
// so the per-window, per-channel TDE correlation takes neither the
// cache's lock nor a reference count (shard threads would contend on
// both).
//
// The butterfly, untangle, bin-product and scaling inner loops run through
// the runtime-dispatched SIMD kernel table (dsp/simd/simd.hpp): AVX2 on
// x86-64 hosts that support it, the always-built scalar backend
// everywhere else.  Both backends are bitwise-identical for these kernels
// (the vector lanes evaluate the exact scalar formulas in parallel), so
// results do not depend on the machine the binary lands on.  The
// uncached, unplanned and full-complex reference transforms the tests
// compare against live in dsp/reference/reference.hpp, outside the
// production library.
#ifndef NSYNC_DSP_FFT_HPP
#define NSYNC_DSP_FFT_HPP

#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace nsync::dsp {

using Complex = std::complex<double>;

/// Returns true when n is a power of two (n >= 1).
[[nodiscard]] bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n (n >= 1).
[[nodiscard]] std::size_t next_power_of_two(std::size_t n);

/// In-place forward FFT; `data.size()` must be a power of two.  Uses the
/// cached plan for that size (creating it on first use).
void fft_radix2(std::span<Complex> data, bool inverse = false);

/// Forward DFT of arbitrary length (radix-2 when possible, Bluestein
/// otherwise).  Returns a new vector of the same length.
[[nodiscard]] std::vector<Complex> fft(std::span<const Complex> input);

/// Inverse DFT of arbitrary length (includes the 1/N normalization).
[[nodiscard]] std::vector<Complex> ifft(std::span<const Complex> input);

/// Forward DFT of a real sequence; returns bins 0 .. N/2 (inclusive),
/// i.e. floor(N/2)+1 complex values.  Even lengths use the half-size
/// complex trick (one N/2-point FFT + untangle); odd lengths run the
/// N-point Bluestein transform of the zero-imaginary signal.  Every length
/// has a cached plan.
[[nodiscard]] std::vector<Complex> rfft(std::span<const double> input);

/// Inverse of rfft: reconstructs the length-n real sequence from its
/// floor(n/2)+1 non-negative-frequency bins (which must describe a
/// conjugate-symmetric spectrum, i.e. come from a real signal).  Includes
/// the 1/n normalization.
[[nodiscard]] std::vector<double> irfft(std::span<const Complex> bins,
                                        std::size_t n);

/// Magnitudes of rfft(input).
[[nodiscard]] std::vector<double> rfft_magnitude(std::span<const double> input);

/// Transform size of the valid-lag correlation of an nx-sample x with any
/// template y (ny <= nx): next_power_of_two(max(nx, 2)).
///
/// A length-m circular correlation folds linear-convolution index k + m
/// onto k.  Lag n reads index n + ny - 1 >= ny - 1, and a non-zero index
/// k + m needs k + m <= nx + ny - 2, i.e. k < ny - 1 once m >= nx: only
/// the discarded lags alias, so m >= nx is exact where the textbook
/// nx + ny padding is often twice as long.  The floor of 2 keeps the
/// half-size real transform non-empty for nx = ny = 1.  The size depends
/// on nx alone, never on a workspace's history, so a freshly restored
/// workspace computes bitwise the same scores as a long-running one.
[[nodiscard]] std::size_t correlation_fft_size(std::size_t nx);

namespace detail {
struct RfftPlan;
}  // namespace detail

/// Reusable scratch for the zero-allocation real-FFT correlation path.
/// Buffers are resized to correlation_fft_size(x.size()) on every call
/// (no allocation once at capacity); a default-constructed workspace is
/// valid for any input.
struct CorrelationWorkspace {
  /// Four half planes of correlation_fft_size(nx)/2 doubles, back to
  /// back: x's packed transform (re, im), then time-reversed y's.  The y
  /// pair doubles as the inverse untangle's interleaved staging, and the
  /// x pair ends up holding the (unscaled) correlation.
  std::vector<double> planes;
  std::vector<Complex> spec;  ///< the n/2+1 bins of rfft(x) * rfft(y)
  /// Plan of the last transform size; refetched from the shared cache
  /// only when the size changes.
  std::shared_ptr<const detail::RfftPlan> plan;

  /// Reserves every buffer for an nx-sample x and fetches (building if
  /// needed) the FFT plan of correlation_fft_size(nx), so the first call
  /// with that nx allocates nothing either.
  void reserve(std::size_t nx);
};

/// Linear cross-correlation of x with y via FFT zero-padding, into `out`:
///   out[k] = sum_n x[n + k] * y[n],  k = 0 .. x.size() - y.size()
/// Requires x.size() >= y.size() >= 1 and exactly x.size() - y.size() + 1
/// elements in `out`.  This is the unnormalized numerator used by the
/// fast sliding-correlation TDE path.  It computes the real-FFT
/// composition (two rfft + one irfft at m = correlation_fft_size(x.size()),
/// whose circular wrap lands only on lags outside the valid range) fused
/// into pack -> stages -> product -> stages -> tail, without changing any
/// output bit of that composition (see fft.cpp and DESIGN.md section 3.2).
/// Uses `ws` for all scratch and performs no heap allocation once `ws`
/// has reached steady-state size for the transform length.  Reads x and
/// y in place: no padded copy of either is made.
void cross_correlate_valid_into(std::span<const double> x,
                                std::span<const double> y,
                                std::span<double> out,
                                CorrelationWorkspace& ws);

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_FFT_HPP
