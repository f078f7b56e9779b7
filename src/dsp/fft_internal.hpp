// Internal FFT plan structures and split-plane runners.
//
// Shared between fft.cpp (the public entry points) and the spectrogram
// (stft.cpp), which runs rfft_split on planes it owns.  Plans store
// twiddles in split re/im arrays — the layout the SIMD kernels consume —
// with the per-stage tables COPIED from the full
// w_n^k = exp(-2*pi*i*k/n) table rather than recomputed per stage:
// cos(-2*pi*k/len) can differ in the last bit from the full-table entry
// at k*stride because the two argument reductions round differently, and
// the bitwise contract against the pre-split implementation hinges on
// reading the exact same twiddle bits.
//
// Not part of the installed public API; include only from src/dsp and
// from white-box tests.
#ifndef NSYNC_DSP_FFT_INTERNAL_HPP
#define NSYNC_DSP_FFT_INTERNAL_HPP

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft.hpp"

namespace nsync::dsp::detail {

/// Radix-2 DIT plan: bit-reversal permutation plus the concatenated
/// per-stage twiddle tables.  Stage `len` has len/2 entries starting at
/// offset len/2 - 1 (total n - 1 entries), copied from the full forward
/// table at stride n/len.
struct Radix2Plan {
  std::size_t n = 0;
  std::vector<std::size_t> bitrev;
  std::vector<double> stage_re;
  std::vector<double> stage_im;

  [[nodiscard]] const double* stage_twr(std::size_t len) const {
    return stage_re.data() + (len / 2 - 1);
  }
  [[nodiscard]] const double* stage_twi(std::size_t len) const {
    return stage_im.data() + (len / 2 - 1);
  }
};

/// Bluestein plan (chirp + FFT of the convolution kernel) in split layout.
struct BluesteinPlan {
  std::size_t n = 0;
  std::size_t m = 0;  ///< power-of-two convolution length
  std::shared_ptr<const Radix2Plan> conv;  ///< radix-2 plan of size m
  std::vector<double> chirp_re;
  std::vector<double> chirp_im;
  std::vector<double> kernel_re;
  std::vector<double> kernel_im;
};

/// Real-FFT plan for any size n >= 1.  Exactly one of `half` and
/// `bluestein` is set:
///  * power-of-two n: `half` is the n/2-point radix-2 plan;
///  * even n otherwise: `bluestein` is the n/2-point Bluestein plan (the
///    half-size complex trick with a chirp-Z half transform);
///  * odd n: `bluestein` is the n-point Bluestein plan of the zero-imaginary
///    signal.
/// Even sizes also hold the untangling twiddles w_n^k, k < n/2, in split
/// layout.
struct RfftPlan {
  std::size_t n = 0;
  std::shared_ptr<const Radix2Plan> half;
  std::shared_ptr<const BluesteinPlan> bluestein;
  std::vector<double> tw_re;
  std::vector<double> tw_im;

  /// Doubles each split plane handed to rfft_split must hold.
  [[nodiscard]] std::size_t plane_size() const {
    return half ? n / 2 : bluestein->m;
  }
};

/// Cached real-FFT plan lookup (thread-safe, build-once).
std::shared_ptr<const RfftPlan> get_rfft_plan(std::size_t n);

/// In-place radix-2 FFT over split planes of plan.n complex elements
/// (bit-reversal swap pass, butterfly stages through the SIMD dispatch
/// table two per sweep, and the 1/n scaling when inverse).  Bitwise
/// identical to the historical interleaved std::complex implementation:
/// a stage-pair sweep gives every element the same two butterflies as
/// two single passes, and n is a power of two, so multiplying by the
/// exact 1/n rounds the same real number as dividing by n.  The complex
/// fft() and Bluestein paths use it; rfft/irfft and the correlation fold
/// the permutation into their pack instead and run only the stages.
void run_radix2_split(double* re, double* im, const Radix2Plan& plan,
                      bool inverse);

/// Forward real FFT for the (power-of-two) plan size n = x.size():
/// half-size pack gathered in bit-reversed order, the butterfly stages in
/// the split half planes (each plan.n/2 doubles), and the untangling
/// epilogue into n/2+1 bins.
void rfft_pow2_split(std::span<const double> x, std::span<Complex> out,
                     double* half_re, double* half_im, const RfftPlan& plan);

/// Forward real FFT of any plan size n = x.size() into floor(n/2)+1 bins.
/// `re`/`im` are caller-owned scratch planes of plan.plane_size() doubles
/// each.  Power-of-two plans run rfft_pow2_split; the others run the
/// Bluestein convolution on the packed (even) or zero-imaginary (odd)
/// signal, then the even sizes untangle.  Bitwise equal to the complex
/// fft() route through the same plans.  Allocates nothing.
void rfft_split(std::span<const double> x, std::span<Complex> out, double* re,
                double* im, const RfftPlan& plan);

/// Inverse of rfft_pow2_split (power-of-two plans only): n/2+1 bins ->
/// length-n real signal (includes the 1/n normalization via the half
/// transform's 1/(n/2) and the 0.5s).  `out` doubles as the untangle's
/// interleaved staging, so `bins` must not alias it.
void irfft_pow2_split(std::span<const Complex> bins, std::span<double> out,
                      double* half_re, double* half_im, const RfftPlan& plan);

}  // namespace nsync::dsp::detail

#endif  // NSYNC_DSP_FFT_INTERNAL_HPP
