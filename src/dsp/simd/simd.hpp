// Runtime CPU-dispatched SIMD kernels for the DSP hot loops and the
// CRC-32 that checksums every persisted and transmitted byte.
//
// Every arithmetic-dense inner loop of the rfft → cross-correlation →
// sliding-Pearson → TDEB chain, of the spectrogram's per-channel rfft
// and small-window DFT, and the CRC-32 byte loop, is routed through a
// table of function pointers (`Ops`) resolved once at startup: an AVX2
// backend on x86-64 hosts that support it, and a portable scalar backend
// that is always built, runs everywhere else, and is the reference
// implementation.  All transforms are single-lane (one signal per call),
// so no kernel here interleaves lanes.
//
// Equivalence contract (pinned by tests/test_simd_equivalence.cpp, see
// DESIGN.md "SIMD dispatch layer" for the per-kernel table):
//
//  * "bitwise" kernels are lane-parallel only — each output element is
//    computed with exactly the scalar backend's operation sequence, no
//    FMA contraction and no reassociation — so the AVX2 and scalar
//    backends produce bit-identical results.  This covers the radix-2
//    butterfly passes (single and stage-pair), the rfft/irfft untangling
//    epilogues, the fused correlation untangle-and-product, complex bin
//    products (the Bluestein chirp and kernel multiplies), the 1/n scale,
//    (de)interleaves, centered copies, window normalization, the small
//    spectrogram windows' direct DFT, per-channel sums and the TDEB
//    clamp+bias+argmax epilogue.  The integer CRC-32 kernel is exact by
//    construction: every backend returns the same 32-bit state.
//  * "ULP-bounded" kernels reassociate a reduction (vector partial
//    accumulators, vectorized prefix scan).  Their divergence from the
//    scalar backend is bounded by standard summation-error analysis:
//    |simd - scalar| <= 2 * n * eps * sum(|terms|).  This covers sum,
//    centered energy and the 1-D prefix-sum scan.
//
// Backend selection: the best compiled-in backend the host supports,
// overridable with the NSYNC_SIMD environment variable ("scalar" or
// "avx2"; an unknown or unavailable name is ignored and the best backend
// stays) or at runtime with set_backend() (tests, ablations).  All
// selection state is atomic; the kernels themselves are stateless and
// thread-safe.
#ifndef NSYNC_DSP_SIMD_SIMD_HPP
#define NSYNC_DSP_SIMD_SIMD_HPP

#include <algorithm>
#include <complex>
#include <cstddef>
#include <cstdint>

namespace nsync::dsp::simd {

/// Shared degenerate-window guard used by every normalization path
/// (sliding-Pearson window variance, stats::pearson denominators): a
/// window whose centered energy `var` does not rise above rounding noise
/// relative to its raw energy `sumsq` cannot support correlation and
/// scores 0.  Written as !(var > eps) so a NaN from non-finite input
/// routes into the degenerate branch instead of slipping past a
/// `var <= eps` comparison.  The AVX2 backend of normalize_windows
/// implement exactly this predicate lane-wise (max_pd operand order
/// matches std::max's NaN semantics), so the guard cannot drift between
/// the scalar and SIMD paths again.
[[nodiscard]] inline bool degenerate_variance(double var, double sumsq) {
  return !(var > 1e-12 * std::max(1.0, sumsq));
}

using Complex = std::complex<double>;

enum class Isa { kScalar = 0, kAvx2 = 1 };

/// Kernel table for one backend.  All pointers are always valid.
struct Ops {
  Isa isa;
  const char* name;

  // --- bitwise kernels (lane-parallel, no reassociation) ---------------

  /// One radix-2 DIT butterfly stage of span `len` over split re/im data
  /// of n complex elements (n % len == 0).  `twr`/`twi` hold the stage's
  /// len/2 twiddles contiguously; `inverse` conjugates them.
  void (*radix2_pass)(double* re, double* im, std::size_t n, std::size_t len,
                      const double* twr, const double* twi, bool inverse);

  /// Stages `len` and `2*len` in one sweep (n % (2*len) == 0): each block
  /// of 2*len elements is loaded once, both stages' butterflies run on it,
  /// and it is stored once.  `twr`/`twi` hold stage len's len/2 twiddles
  /// followed by stage 2*len's len twiddles (the plan's concatenated
  /// layout).  Every element sees the same two butterflies, with the same
  /// operands, as two radix2_pass calls, so the result is bitwise theirs.
  void (*radix2_pass_pair)(double* re, double* im, std::size_t n,
                           std::size_t len, const double* twr,
                           const double* twi, bool inverse);

  /// x[i] *= s for both planes: the inverse-FFT normalization, called
  /// with s = 1/n for a power-of-two n.  2^-p is exact, so x * 2^-p and
  /// x / 2^p round the same real number and are the same double for
  /// every x (subnormal results and signed zeros included).
  void (*scale2)(double* re, double* im, std::size_t n, double s);

  /// Split-layout bin product: (ar,ai)[i] *= (br,bi)[i].
  void (*cmul_split_inplace)(double* ar, double* ai, const double* br,
                             const double* bi, std::size_t n);

  /// Real-FFT untangling epilogue, bins k = 1 .. h-1 (caller handles the
  /// purely real k = 0 and k = h bins):
  ///   out[k] = 0.5*(z_k + conj(z_{h-k})) + tw_k * (0,-0.5)*(z_k - conj(z_{h-k}))
  void (*rfft_untangle)(const double* hre, const double* him,
                        const double* twr, const double* twi, std::size_t h,
                        Complex* out);

  /// Correlation bin product, k = 0 .. h: untangles the half-size
  /// transforms (xr,xi) and (yr,yi) into X[k] and Y[k] exactly as
  /// rfft_untangle does (X[0] = (xr0+xi0, 0), X[h] = (xr0-xi0, 0)) and
  /// writes out[k] = X[k] * Y[k] with the naive complex product
  /// (Xr*Yr - Xi*Yi, Xr*Yi + Xi*Yr).  Bitwise equal to two untangles
  /// into spectra followed by a bin-wise multiply; only the stores of the
  /// two spectra are gone.
  void (*rfft_untangle_product)(const double* xr, const double* xi,
                                const double* yr, const double* yi,
                                const double* twr, const double* twi,
                                std::size_t h, Complex* out);

  /// Inverse epilogue, natural order k = 0 .. h-1 (bins has h+1 entries),
  /// stored as interleaved pairs out[2k] = Re half[k], out[2k+1] = Im:
  ///   half[k] = 0.5*(x_k + conj(x_{h-k})) + i * conj(tw_k)*(0.5*(x_k - conj(x_{h-k})))
  void (*irfft_untangle)(const Complex* bins, const double* twr,
                         const double* twi, std::size_t h, double* out);

  /// re[k] = xy[2k], im[k] = xy[2k+1] (complex AoS -> split).
  void (*deinterleave)(const double* xy, std::size_t n, double* re,
                       double* im);

  /// xy[2k] = re[k], xy[2k+1] = im[k] (split -> complex AoS / unpack).
  void (*interleave)(const double* re, const double* im, std::size_t n,
                     double* xy);

  /// dst[i] = src[i] - mu (centered copy).
  void (*subtract_scalar)(const double* src, double mu, double* dst,
                          std::size_t n);

  /// Sliding-Pearson normalization epilogue over contiguous prefix sums:
  /// for each window n, var from (ps, ps2), degenerate guard, then
  /// out[n] = num[n] / (sqrt(var) * y_norm) with non-finite results
  /// zeroed (exact scalar comparison semantics; NaN routes degenerate).
  void (*normalize_windows)(const double* ps, const double* ps2,
                            std::size_t ny, double y_norm, const double* num,
                            double* out, std::size_t n_out);

  /// Fused TDEB epilogue: argmax_j of max(scores[j], 0) * w[j], strict
  /// greater-than so the first occurrence of the maximum wins (identical
  /// to the scalar reference loop).  Requires finite scores (guaranteed
  /// by the normalization guard upstream) and n >= 1.
  std::size_t (*clamp_weight_argmax)(const double* scores, const double* w,
                                     std::size_t n);

  /// Direct real-DFT magnitudes of x[0..n): for k < bins,
  ///   re_k = sum_j x[j] * c[j*bins + k],  im_k = sum_j x[j] * s[j*bins + k],
  /// each summed from 0.0 in ascending j, and out[k] = sqrt(re_k*re_k +
  /// im_k*im_k).  `c`/`s` are the spectrogram column's [j][k] cos and -sin
  /// tables.  The AVX2 backend runs bins in lanes (no sum is split), so
  /// it is bitwise the scalar loop.
  void (*real_dft_magnitude)(const double* x, std::size_t n, const double* c,
                             const double* s, std::size_t bins, double* out);

  /// Per-channel sums of row-major frames*channels data, accumulated in
  /// ascending frame order per channel (bitwise equal to a sequential
  /// per-channel sum).
  void (*channel_sums)(const double* data, std::size_t frames,
                       std::size_t channels, double* sums);

  // --- ULP-bounded kernels (reassociating reductions) ------------------

  /// sum(x[0..n)).  The AVX2 backend uses 4 partial accumulators.
  double (*sum)(const double* x, std::size_t n);

  /// dst[i] = src[i] - mu; returns sum(dst[i]^2).
  double (*subtract_scalar_energy)(const double* src, double mu, double* dst,
                                   std::size_t n);

  /// Pearson accumulators: *num += sum(du*dv), *du2 += sum(du^2),
  /// *dv2 += sum(dv^2) with du = u[i]-mu, dv = v[i]-mv.
  void (*pearson_accumulate)(const double* u, const double* v, double mu,
                             double mv, std::size_t n, double* num,
                             double* du2, double* dv2);

  /// 1-D prefix sums ps[0] = 0, ps[i+1] = ps[i] + x[i] (and squares).
  /// The AVX2 backend uses an in-register inclusive scan (reassociates).
  void (*prefix_sums)(const double* x, double* ps, double* ps2,
                      std::size_t n);

  // --- byte kernels (exact) --------------------------------------------

  /// Advances the reflected CRC-32/IEEE register (polynomial 0xEDB88320)
  /// over p[0..n).  `state` is the raw register, neither pre- nor
  /// post-inverted: the checksum of a buffer is
  /// crc32_update(0xFFFFFFFF, p, n) ^ 0xFFFFFFFF, and feeding a buffer in
  /// pieces gives the state of feeding it whole.  The scalar backend is a
  /// slicing-by-8 table; AVX2 folds 64-byte blocks with PCLMULQDQ and
  /// leaves the last < 16 bytes to the table.
  std::uint32_t (*crc32_update)(std::uint32_t state, const std::uint8_t* p,
                                std::size_t n);
};

/// The active backend's kernel table.
const Ops& ops();

/// ISA of the active backend.
Isa active_isa();

/// Human-readable name ("scalar", "avx2"), whether or not that backend is
/// compiled into this binary.
const char* isa_name(Isa isa);

/// Best backend compiled into this binary that the host can execute —
/// what startup resolution picks unless NSYNC_SIMD overrides it.
Isa best_supported_isa();

/// True when `isa`'s kernels are compiled in and the host supports them
/// (AVX2 also needs PCLMULQDQ, which its CRC-32 kernel uses).
bool backend_available(Isa isa);

/// Switches the active backend; returns false (no change) when the
/// requested backend is unavailable.  Atomic, but callers doing
/// A/B comparisons should not run transforms concurrently with a switch.
bool set_backend(Isa isa);

/// True when the AVX2 backend was compiled in (NSYNC_ENABLE_SIMD=ON on an
/// x86-64 target).
bool built_with_simd();

}  // namespace nsync::dsp::simd

#endif  // NSYNC_DSP_SIMD_SIMD_HPP
