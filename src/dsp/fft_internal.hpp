// Internal FFT plan structures and split-plane runners.
//
// Shared between fft.cpp (the public scalar entry points) and
// batched_fft.cpp (BatchedRfftPlan) so both read the same cached plans.
// Plans store twiddles in split re/im arrays — the layout the SIMD
// kernels consume — with the per-stage tables COPIED from the full
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

/// Real-FFT plan for an even power-of-two size n: the half-size complex
/// plan plus the untangling twiddles w_n^k, k < n/2, in split layout.
struct RfftPlan {
  std::size_t n = 0;
  std::shared_ptr<const Radix2Plan> half;
  std::vector<double> tw_re;
  std::vector<double> tw_im;
};

/// Bluestein plan (chirp + FFT of the convolution kernel) in split layout.
struct BluesteinPlan {
  std::size_t n = 0;
  std::size_t m = 0;  ///< power-of-two convolution length
  std::vector<double> chirp_re;
  std::vector<double> chirp_im;
  std::vector<double> kernel_re;
  std::vector<double> kernel_im;
};

/// Cached plan lookups (thread-safe, build-once).
std::shared_ptr<const Radix2Plan> get_radix2_plan(std::size_t n);
std::shared_ptr<const RfftPlan> get_rfft_plan(std::size_t n);
std::shared_ptr<const BluesteinPlan> get_bluestein_plan(std::size_t n,
                                                        bool inverse);

/// In-place radix-2 FFT over split planes of plan.n complex elements
/// (bit-reversal swap pass, butterfly stages through the SIMD dispatch
/// table, and the 1/n scaling when inverse).  Bitwise identical to the
/// historical interleaved std::complex implementation.  The complex fft()
/// and Bluestein paths use it; rfft/irfft fold the permutation into
/// their pack instead and run only the butterfly stages.
void run_radix2_split(double* re, double* im, const Radix2Plan& plan,
                      bool inverse);

/// Batched variant over lane-interleaved rows: element k of lane l lives
/// at [k * lanes + l].  Lanes are fully independent, and each lane's
/// arithmetic is identical to run_radix2_split's.
void run_radix2_split_batch(double* re, double* im, std::size_t lanes,
                            const Radix2Plan& plan, bool inverse);

/// Forward real FFT for the (power-of-two) plan size n = x.size():
/// half-size pack gathered in bit-reversed order, the butterfly stages in
/// the split half planes (each plan.n/2 doubles), and the untangling
/// epilogue into n/2+1 bins.
void rfft_pow2_split(std::span<const double> x, std::span<Complex> out,
                     double* half_re, double* half_im, const RfftPlan& plan);

/// Inverse counterpart: n/2+1 bins -> length-n real signal (includes the
/// 1/n normalization via the half transform's 1/(n/2) and the 0.5s).
/// `out` doubles as the untangle's interleaved staging, so `bins` must
/// not alias it.
void irfft_pow2_split(std::span<const Complex> bins, std::span<double> out,
                      double* half_re, double* half_im, const RfftPlan& plan);

}  // namespace nsync::dsp::detail

#endif  // NSYNC_DSP_FFT_INTERNAL_HPP
