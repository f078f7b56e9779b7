// AVX2 backend.
//
// This translation unit is compiled with `-mavx2 -mpclmul
// -ffp-contract=off` and deliberately WITHOUT `-mfma`: the equivalence
// contract in simd.hpp promises that lane-parallel kernels are bitwise
// identical to the scalar backend, and a fused multiply-add would change
// the rounding of every `a*b - c*d` complex product.  Each vector body
// below performs exactly the scalar backend's operation sequence per lane
// — including the "useless" multiplies by 0.0 and the full multiply by
// the k = 0 twiddle (1.0, -0.0) — so the only kernels that can diverge
// are the explicitly ULP-bounded reductions near the bottom of the file
// (partial accumulators / in-register scans reassociate; see simd.hpp).
// The CRC-32 fold at the very bottom is integer arithmetic and exact.
//
// NaN/signed-zero gotchas encoded here (do not "fix" the operand order):
//  * `_mm256_max_pd(a, b)` returns b when either input is NaN, while
//    `std::max(x, y)` returns x.  Hence `std::max(scores[j], 0.0)` maps
//    to `_mm256_max_pd(zero, s)` (s second) and `std::max(1.0, s2)` maps
//    to `_mm256_max_pd(s2, ones)` (ones second).
//  * Unary negation is `xor` with -0.0 (bit-exact, matches scalar `-x`).
//  * Masked-out lanes may divide by zero / sqrt a negative; the results
//    are discarded by the mask and float divide-by-zero is well-defined
//    IEEE behavior (and not part of -fsanitize=undefined).
#include "dsp/simd/kernels.hpp"

#if defined(NSYNC_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace nsync::dsp::simd::avx2 {
namespace {

inline __m256d negate(__m256d v) {
  return _mm256_xor_pd(v, _mm256_set1_pd(-0.0));
}

inline __m256d neg_if(__m256d v, bool cond) { return cond ? negate(v) : v; }

/// [v3 v2 v1 v0] from [v0 v1 v2 v3].
inline __m256d reverse(__m256d v) { return _mm256_permute4x64_pd(v, 0x1B); }

/// lo=[e0 o0 e1 o1], hi=[e2 o2 e3 o3] -> even=[e0..e3], odd=[o0..o3].
inline void split_pairs(__m256d lo, __m256d hi, __m256d& even, __m256d& odd) {
  const __m256d t0 = _mm256_permute2f128_pd(lo, hi, 0x20);
  const __m256d t1 = _mm256_permute2f128_pd(lo, hi, 0x31);
  even = _mm256_unpacklo_pd(t0, t1);
  odd = _mm256_unpackhi_pd(t0, t1);
}

/// Inverse of split_pairs.
inline void join_pairs(__m256d even, __m256d odd, __m256d& lo, __m256d& hi) {
  const __m256d t0 = _mm256_unpacklo_pd(even, odd);
  const __m256d t1 = _mm256_unpackhi_pd(even, odd);
  lo = _mm256_permute2f128_pd(t0, t1, 0x20);
  hi = _mm256_permute2f128_pd(t0, t1, 0x31);
}

/// One radix-2 butterfly per lane, the scalar formula:
/// t = v * w, then (u, v) <- (u + t, u - t).
inline void butterfly(__m256d& ur, __m256d& ui, __m256d& vr, __m256d& vi,
                      __m256d wr, __m256d wi) {
  const __m256d tr =
      _mm256_sub_pd(_mm256_mul_pd(vr, wr), _mm256_mul_pd(vi, wi));
  const __m256d ti =
      _mm256_add_pd(_mm256_mul_pd(vr, wi), _mm256_mul_pd(vi, wr));
  const __m256d ar = ur;
  const __m256d ai = ui;
  ur = _mm256_add_pd(ar, tr);
  ui = _mm256_add_pd(ai, ti);
  vr = _mm256_sub_pd(ar, tr);
  vi = _mm256_sub_pd(ai, ti);
}

/// 4x4 transpose of rows r0..r3 (its own inverse).
inline void transpose4(__m256d& r0, __m256d& r1, __m256d& r2, __m256d& r3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// rfft_untangle's bins k .. k+3 (1 <= k, k + 4 <= h) of the half
/// transform (hre, him), written exactly as the scalar formula.
inline void untangle4(const double* hre, const double* him, const double* twr,
                      const double* twi, std::size_t h, std::size_t k,
                      __m256d& o_re, __m256d& o_im) {
  const __m256d halfc = _mm256_set1_pd(0.5);
  const __m256d neghalf = _mm256_set1_pd(-0.5);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d zr = _mm256_loadu_pd(hre + k);
  const __m256d zi = _mm256_loadu_pd(him + k);
  const __m256d cr = reverse(_mm256_loadu_pd(hre + (h - k - 3)));
  const __m256d ci = reverse(_mm256_loadu_pd(him + (h - k - 3)));
  const __m256d er = _mm256_mul_pd(halfc, _mm256_add_pd(zr, cr));
  const __m256d ei = _mm256_mul_pd(halfc, _mm256_sub_pd(zi, ci));
  const __m256d dr = _mm256_sub_pd(zr, cr);
  const __m256d di = _mm256_add_pd(zi, ci);
  // odd = (0,-0.5) * d, written exactly as the scalar formula
  // 0.0*dr - (-0.5)*di / 0.0*di + (-0.5)*dr.
  const __m256d odd_r =
      _mm256_sub_pd(_mm256_mul_pd(zero, dr), _mm256_mul_pd(neghalf, di));
  const __m256d odd_i =
      _mm256_add_pd(_mm256_mul_pd(zero, di), _mm256_mul_pd(neghalf, dr));
  const __m256d wr = _mm256_loadu_pd(twr + k);
  const __m256d wi = _mm256_loadu_pd(twi + k);
  o_re = _mm256_add_pd(
      er, _mm256_sub_pd(_mm256_mul_pd(wr, odd_r), _mm256_mul_pd(wi, odd_i)));
  o_im = _mm256_add_pd(
      ei, _mm256_add_pd(_mm256_mul_pd(wr, odd_i), _mm256_mul_pd(wi, odd_r)));
}

/// Scalar rfft_untangle bin k (the vector kernels' tails).
inline Complex untangle_bin(const double* hre, const double* him,
                            const double* twr, const double* twi,
                            std::size_t h, std::size_t k) {
  const double sr = hre[k] + hre[h - k];
  const double si = him[k] - him[h - k];
  const double er = 0.5 * sr;
  const double ei = 0.5 * si;
  const double dr = hre[k] - hre[h - k];
  const double di = him[k] + him[h - k];
  const double odd_r = 0.0 * dr - (-0.5) * di;
  const double odd_i = 0.0 * di + (-0.5) * dr;
  return Complex(er + (twr[k] * odd_r - twi[k] * odd_i),
                 ei + (twr[k] * odd_i + twi[k] * odd_r));
}

/// a * b with the naive formula (ar*br - ai*bi, ar*bi + ai*br).
inline Complex cmul(double ar, double ai, double br, double bi) {
  return Complex(ar * br - ai * bi, ar * bi + ai * br);
}

/// In-register inclusive scan [v0, v0+v1, v0+v1+v2, v0+v1+v2+v3]
/// (reassociates — only used by the ULP-bounded prefix_sums).
inline __m256d inclusive_scan(__m256d v) {
  __m256d t = _mm256_permute4x64_pd(v, 0x90);        // [v0 v0 v1 v2]
  t = _mm256_blend_pd(t, _mm256_setzero_pd(), 0x1);  // [ 0 v0 v1 v2]
  v = _mm256_add_pd(v, t);
  const __m256d u = _mm256_permute2f128_pd(v, v, 0x08);  // [0 0 s0 s1]
  return _mm256_add_pd(v, u);
}

}  // namespace

void radix2_pass(double* re, double* im, std::size_t n, std::size_t len,
                 const double* twr, const double* twi, bool inverse) {
  if (len < 8) {
    // Spans 2 and 4 run inside radix2_pass_pair's transposed sweep; a
    // single pass at them is left only for n <= 8 (the pair kernel's
    // fallback), too small to fill a register.
    scalar::radix2_pass(re, im, n, len, twr, twi, inverse);
    return;
  }
  const std::size_t half = len / 2;
  // half is a multiple of 4: plain 4-wide k loop, no tail.
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; k += 4) {
      const __m256d wr = _mm256_loadu_pd(twr + k);
      const __m256d wi = neg_if(_mm256_loadu_pd(twi + k), inverse);
      double* rea = re + i + k;
      double* ima = im + i + k;
      double* reb = rea + half;
      double* imb = ima + half;
      __m256d ur = _mm256_loadu_pd(rea), ui = _mm256_loadu_pd(ima);
      __m256d vr = _mm256_loadu_pd(reb), vi = _mm256_loadu_pd(imb);
      butterfly(ur, ui, vr, vi, wr, wi);
      _mm256_storeu_pd(rea, ur);
      _mm256_storeu_pd(ima, ui);
      _mm256_storeu_pd(reb, vr);
      _mm256_storeu_pd(imb, vi);
    }
  }
}

void radix2_pass_pair(double* re, double* im, std::size_t n, std::size_t len,
                      const double* twr, const double* twi, bool inverse) {
  const std::size_t q = len / 2;  // quarter of a 2*len block
  if (n < 16 || q == 2) {
    // Too small for the 4x4 transpose, or a quarter of two lanes: the
    // two single stages are the same arithmetic.
    radix2_pass(re, im, n, len, twr, twi, inverse);
    radix2_pass(re, im, n, 2 * len, twr + q, twi + q, inverse);
    return;
  }
  if (q == 1) {
    // Stages 2 and 4: blocks of four elements [x0 x1 x2 x3].  Transpose
    // four blocks so each register holds one x_j of all four, run the
    // butterflies (x0,x1), (x2,x3) with w2[0], then (x0,x2) with w4[0]
    // and (x1,x3) with w4[1], and transpose back.
    const __m256d war = _mm256_set1_pd(twr[0]);
    const __m256d wai = _mm256_set1_pd(inverse ? -twi[0] : twi[0]);
    const __m256d w0r = _mm256_set1_pd(twr[1]);
    const __m256d w0i = _mm256_set1_pd(inverse ? -twi[1] : twi[1]);
    const __m256d w1r = _mm256_set1_pd(twr[2]);
    const __m256d w1i = _mm256_set1_pd(inverse ? -twi[2] : twi[2]);
    for (std::size_t i = 0; i < n; i += 16) {
      __m256d r0 = _mm256_loadu_pd(re + i), r1 = _mm256_loadu_pd(re + i + 4),
              r2 = _mm256_loadu_pd(re + i + 8),
              r3 = _mm256_loadu_pd(re + i + 12);
      __m256d i0 = _mm256_loadu_pd(im + i), i1 = _mm256_loadu_pd(im + i + 4),
              i2 = _mm256_loadu_pd(im + i + 8),
              i3 = _mm256_loadu_pd(im + i + 12);
      transpose4(r0, r1, r2, r3);
      transpose4(i0, i1, i2, i3);
      butterfly(r0, i0, r1, i1, war, wai);
      butterfly(r2, i2, r3, i3, war, wai);
      butterfly(r0, i0, r2, i2, w0r, w0i);
      butterfly(r1, i1, r3, i3, w1r, w1i);
      transpose4(r0, r1, r2, r3);
      transpose4(i0, i1, i2, i3);
      _mm256_storeu_pd(re + i, r0);
      _mm256_storeu_pd(re + i + 4, r1);
      _mm256_storeu_pd(re + i + 8, r2);
      _mm256_storeu_pd(re + i + 12, r3);
      _mm256_storeu_pd(im + i, i0);
      _mm256_storeu_pd(im + i + 4, i1);
      _mm256_storeu_pd(im + i + 8, i2);
      _mm256_storeu_pd(im + i + 12, i3);
    }
    return;
  }
  // q >= 4 is a multiple of 4: four quarter rows of a 2*len block, four
  // lanes of k at a time, no tail.
  const double* tbr = twr + q;
  const double* tbi = twi + q;
  for (std::size_t i = 0; i < n; i += 2 * len) {
    for (std::size_t k = 0; k < q; k += 4) {
      const __m256d war = _mm256_loadu_pd(twr + k);
      const __m256d wai = neg_if(_mm256_loadu_pd(twi + k), inverse);
      double* r = re + i + k;
      double* m = im + i + k;
      __m256d r0 = _mm256_loadu_pd(r), r1 = _mm256_loadu_pd(r + q),
              r2 = _mm256_loadu_pd(r + 2 * q), r3 = _mm256_loadu_pd(r + 3 * q);
      __m256d i0 = _mm256_loadu_pd(m), i1 = _mm256_loadu_pd(m + q),
              i2 = _mm256_loadu_pd(m + 2 * q), i3 = _mm256_loadu_pd(m + 3 * q);
      butterfly(r0, i0, r1, i1, war, wai);
      butterfly(r2, i2, r3, i3, war, wai);
      butterfly(r0, i0, r2, i2, _mm256_loadu_pd(tbr + k),
                neg_if(_mm256_loadu_pd(tbi + k), inverse));
      butterfly(r1, i1, r3, i3, _mm256_loadu_pd(tbr + k + q),
                neg_if(_mm256_loadu_pd(tbi + k + q), inverse));
      _mm256_storeu_pd(r, r0);
      _mm256_storeu_pd(r + q, r1);
      _mm256_storeu_pd(r + 2 * q, r2);
      _mm256_storeu_pd(r + 3 * q, r3);
      _mm256_storeu_pd(m, i0);
      _mm256_storeu_pd(m + q, i1);
      _mm256_storeu_pd(m + 2 * q, i2);
      _mm256_storeu_pd(m + 3 * q, i3);
    }
  }
}

void scale2(double* re, double* im, std::size_t n, double s) {
  const __m256d sv = _mm256_set1_pd(s);
  for (double* p : {re, im}) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(p + i, _mm256_mul_pd(_mm256_loadu_pd(p + i), sv));
    }
    for (; i < n; ++i) p[i] *= s;
  }
}

void cmul_split_inplace(double* ar, double* ai, const double* br,
                        const double* bi, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xr = _mm256_loadu_pd(ar + i);
    const __m256d xi = _mm256_loadu_pd(ai + i);
    const __m256d yr = _mm256_loadu_pd(br + i);
    const __m256d yi = _mm256_loadu_pd(bi + i);
    _mm256_storeu_pd(
        ar + i, _mm256_sub_pd(_mm256_mul_pd(xr, yr), _mm256_mul_pd(xi, yi)));
    _mm256_storeu_pd(
        ai + i, _mm256_add_pd(_mm256_mul_pd(xr, yi), _mm256_mul_pd(xi, yr)));
  }
  for (; i < n; ++i) {
    const double xr = ar[i];
    const double xi = ai[i];
    ar[i] = xr * br[i] - xi * bi[i];
    ai[i] = xr * bi[i] + xi * br[i];
  }
}

void rfft_untangle(const double* hre, const double* him, const double* twr,
                   const double* twi, std::size_t h, Complex* out) {
  double* outp = reinterpret_cast<double*>(out);
  std::size_t k = 1;
  for (; k + 4 <= h; k += 4) {
    __m256d o_re, o_im, lo, hi;
    untangle4(hre, him, twr, twi, h, k, o_re, o_im);
    join_pairs(o_re, o_im, lo, hi);
    _mm256_storeu_pd(outp + 2 * k, lo);
    _mm256_storeu_pd(outp + 2 * k + 4, hi);
  }
  for (; k < h; ++k) out[k] = untangle_bin(hre, him, twr, twi, h, k);
}

void rfft_untangle_product(const double* xr, const double* xi,
                           const double* yr, const double* yi,
                           const double* twr, const double* twi,
                           std::size_t h, Complex* out) {
  out[0] = cmul(xr[0] + xi[0], 0.0, yr[0] + yi[0], 0.0);
  out[h] = cmul(xr[0] - xi[0], 0.0, yr[0] - yi[0], 0.0);
  double* outp = reinterpret_cast<double*>(out);
  std::size_t k = 1;
  for (; k + 4 <= h; k += 4) {
    __m256d ar, ai, br, bi, lo, hi;
    untangle4(xr, xi, twr, twi, h, k, ar, ai);
    untangle4(yr, yi, twr, twi, h, k, br, bi);
    const __m256d pr =
        _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi));
    const __m256d pi =
        _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br));
    join_pairs(pr, pi, lo, hi);
    _mm256_storeu_pd(outp + 2 * k, lo);
    _mm256_storeu_pd(outp + 2 * k + 4, hi);
  }
  for (; k < h; ++k) {
    const Complex a = untangle_bin(xr, xi, twr, twi, h, k);
    const Complex b = untangle_bin(yr, yi, twr, twi, h, k);
    out[k] = cmul(a.real(), a.imag(), b.real(), b.imag());
  }
}

void irfft_untangle(const Complex* bins, const double* twr, const double* twi,
                    std::size_t h, double* out) {
  const __m256d halfc = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const double* bp = reinterpret_cast<const double*>(bins);
  std::size_t k = 0;
  for (; k + 4 <= h; k += 4) {
    __m256d xr, xi, fr, fi;
    split_pairs(_mm256_loadu_pd(bp + 2 * k), _mm256_loadu_pd(bp + 2 * k + 4),
                xr, xi);
    split_pairs(_mm256_loadu_pd(bp + 2 * (h - k - 3)),
                _mm256_loadu_pd(bp + 2 * (h - k - 3) + 4), fr, fi);
    const __m256d cr = reverse(fr);
    const __m256d ci = reverse(fi);
    const __m256d er = _mm256_mul_pd(halfc, _mm256_add_pd(xr, cr));
    const __m256d ei = _mm256_mul_pd(halfc, _mm256_sub_pd(xi, ci));
    const __m256d ir = _mm256_mul_pd(halfc, _mm256_sub_pd(xr, cr));
    const __m256d ii = _mm256_mul_pd(halfc, _mm256_add_pd(xi, ci));
    const __m256d wr = _mm256_loadu_pd(twr + k);
    const __m256d nti = negate(_mm256_loadu_pd(twi + k));
    const __m256d odd_r =
        _mm256_sub_pd(_mm256_mul_pd(wr, ir), _mm256_mul_pd(nti, ii));
    const __m256d odd_i =
        _mm256_add_pd(_mm256_mul_pd(wr, ii), _mm256_mul_pd(nti, ir));
    // half = even + (0,1) * odd, kept as the literal scalar formula.
    const __m256d h_re = _mm256_add_pd(
        er, _mm256_sub_pd(_mm256_mul_pd(zero, odd_r),
                          _mm256_mul_pd(one, odd_i)));
    const __m256d h_im = _mm256_add_pd(
        ei, _mm256_add_pd(_mm256_mul_pd(zero, odd_i),
                          _mm256_mul_pd(one, odd_r)));
    __m256d lo, hi;
    join_pairs(h_re, h_im, lo, hi);
    _mm256_storeu_pd(out + 2 * k, lo);
    _mm256_storeu_pd(out + 2 * k + 4, hi);
  }
  for (; k < h; ++k) {
    const double er = 0.5 * (bins[k].real() + bins[h - k].real());
    const double ei = 0.5 * (bins[k].imag() - bins[h - k].imag());
    const double ir = 0.5 * (bins[k].real() - bins[h - k].real());
    const double ii = 0.5 * (bins[k].imag() + bins[h - k].imag());
    const double nti = -twi[k];
    const double odd_r = twr[k] * ir - nti * ii;
    const double odd_i = twr[k] * ii + nti * ir;
    out[2 * k] = er + (0.0 * odd_r - 1.0 * odd_i);
    out[2 * k + 1] = ei + (0.0 * odd_i + 1.0 * odd_r);
  }
}

void deinterleave(const double* xy, std::size_t n, double* re, double* im) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d even, odd;
    split_pairs(_mm256_loadu_pd(xy + 2 * k), _mm256_loadu_pd(xy + 2 * k + 4),
                even, odd);
    _mm256_storeu_pd(re + k, even);
    _mm256_storeu_pd(im + k, odd);
  }
  for (; k < n; ++k) {
    re[k] = xy[2 * k];
    im[k] = xy[2 * k + 1];
  }
}

void interleave(const double* re, const double* im, std::size_t n,
                double* xy) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d lo, hi;
    join_pairs(_mm256_loadu_pd(re + k), _mm256_loadu_pd(im + k), lo, hi);
    _mm256_storeu_pd(xy + 2 * k, lo);
    _mm256_storeu_pd(xy + 2 * k + 4, hi);
  }
  for (; k < n; ++k) {
    xy[2 * k] = re[k];
    xy[2 * k + 1] = im[k];
  }
}

void subtract_scalar(const double* src, double mu, double* dst,
                     std::size_t n) {
  const __m256d mv = _mm256_set1_pd(mu);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(_mm256_loadu_pd(src + i), mv));
  }
  for (; i < n; ++i) dst[i] = src[i] - mu;
}

void normalize_windows(const double* ps, const double* ps2, std::size_t ny,
                       double y_norm, const double* num, double* out,
                       std::size_t n_out) {
  const double ny_d = static_cast<double>(ny);
  const __m256d nyv = _mm256_set1_pd(ny_d);
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d eps = _mm256_set1_pd(1e-12);
  const __m256d ynv = _mm256_set1_pd(y_norm);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d signmask = _mm256_set1_pd(-0.0);
  std::size_t n = 0;
  for (; n + 4 <= n_out; n += 4) {
    const __m256d s1 = _mm256_sub_pd(_mm256_loadu_pd(ps + n + ny),
                                     _mm256_loadu_pd(ps + n));
    const __m256d s2 = _mm256_sub_pd(_mm256_loadu_pd(ps2 + n + ny),
                                     _mm256_loadu_pd(ps2 + n));
    const __m256d var =
        _mm256_sub_pd(s2, _mm256_div_pd(_mm256_mul_pd(s1, s1), nyv));
    // degenerate_variance(var, s2): `ones` second so a NaN s2 resolves to
    // 1.0 exactly like std::max(1.0, s2); the ordered-quiet GT compare is
    // false on NaN var, matching the scalar !(var > thresh).
    const __m256d live = _mm256_cmp_pd(
        var, _mm256_mul_pd(eps, _mm256_max_pd(s2, ones)), _CMP_GT_OQ);
    // Dead lanes sqrt a negative / divide junk; their results are masked
    // to +0.0 below, matching the scalar `out[n] = 0.0` branch.
    const __m256d r = _mm256_div_pd(_mm256_loadu_pd(num + n),
                                    _mm256_mul_pd(_mm256_sqrt_pd(var), ynv));
    const __m256d finite =
        _mm256_cmp_pd(_mm256_andnot_pd(signmask, r), inf, _CMP_LT_OQ);
    _mm256_storeu_pd(out + n,
                     _mm256_and_pd(r, _mm256_and_pd(live, finite)));
  }
  for (; n < n_out; ++n) {
    const double s1 = ps[n + ny] - ps[n];
    const double s2 = ps2[n + ny] - ps2[n];
    const double var = s2 - s1 * s1 / ny_d;
    if (degenerate_variance(var, s2)) {
      out[n] = 0.0;
    } else {
      const double r = num[n] / (std::sqrt(var) * y_norm);
      out[n] = std::isfinite(r) ? r : 0.0;
    }
  }
}

std::size_t clamp_weight_argmax(const double* scores, const double* w,
                                std::size_t n) {
  if (n < 8) return scalar::clamp_weight_argmax(scores, w, n);
  const __m256d zero = _mm256_setzero_pd();
  __m256d best = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  __m256d best_idx = zero;
  __m256d idx = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  const __m256d four = _mm256_set1_pd(4.0);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    // std::max(scores[j], 0.0) returns scores[j] on -0.0 (and on NaN);
    // maxpd returns its second operand in both cases, so scores go second.
    const __m256d s = _mm256_max_pd(zero, _mm256_loadu_pd(scores + j));
    const __m256d biased = _mm256_mul_pd(s, _mm256_loadu_pd(w + j));
    const __m256d gt = _mm256_cmp_pd(biased, best, _CMP_GT_OQ);
    best = _mm256_blendv_pd(best, biased, gt);
    best_idx = _mm256_blendv_pd(best_idx, idx, gt);
    idx = _mm256_add_pd(idx, four);
  }
  // Each lane kept the FIRST index reaching its lane-max (strict GT), so
  // value-then-lowest-index selection reproduces the scalar first-wins
  // ordering globally.  `==` treats -0.0 and +0.0 as the tie they are
  // under the scalar strict-> comparison.
  double vals[4];
  double idxs[4];
  _mm256_storeu_pd(vals, best);
  _mm256_storeu_pd(idxs, best_idx);
  double best_score = vals[0];
  std::size_t best_j = static_cast<std::size_t>(idxs[0]);
  for (int l = 1; l < 4; ++l) {
    const auto cand = static_cast<std::size_t>(idxs[l]);
    if (vals[l] > best_score || (vals[l] == best_score && cand < best_j)) {
      best_score = vals[l];
      best_j = cand;
    }
  }
  for (; j < n; ++j) {
    const double s = std::max(scores[j], 0.0);
    const double biased = s * w[j];
    if (biased > best_score) {
      best_j = j;
      best_score = biased;
    }
  }
  return best_j;
}

namespace {

/// Bins [k, k + 4V) of real_dft_magnitude (V <= 4), V vectors of four
/// bins held in registers across the whole j sum.  Lanes of the last
/// vector outside `last` load zeros and are not stored.  Named
/// accumulators, not an array, so they stay in registers.  Always
/// inlined: when GCC called it out of line, real_dft_magnitude returned
/// without a vzeroupper, and the dirty upper ymm halves slowed the
/// caller's SSE code enough to triple the cost of a column.
template <int V>
[[gnu::always_inline]] inline void dft_magnitude_block(
    const double* x, std::size_t n, const double* c, const double* s,
    std::size_t bins, std::size_t k, __m256i last, double* out) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d re0 = zero, re1 = zero, re2 = zero, re3 = zero;
  __m256d im0 = zero, im1 = zero, im2 = zero, im3 = zero;
  const auto load = [last](const double* p, int v) {
    return v + 1 < V ? _mm256_loadu_pd(p + 4 * v)
                     : _mm256_maskload_pd(p + 4 * v, last);
  };
  for (std::size_t j = 0; j < n; ++j) {
    const __m256d xj = _mm256_set1_pd(x[j]);
    const double* cj = c + j * bins + k;
    const double* sj = s + j * bins + k;
    re0 = _mm256_add_pd(re0, _mm256_mul_pd(xj, load(cj, 0)));
    im0 = _mm256_add_pd(im0, _mm256_mul_pd(xj, load(sj, 0)));
    if constexpr (V > 1) {
      re1 = _mm256_add_pd(re1, _mm256_mul_pd(xj, load(cj, 1)));
      im1 = _mm256_add_pd(im1, _mm256_mul_pd(xj, load(sj, 1)));
    }
    if constexpr (V > 2) {
      re2 = _mm256_add_pd(re2, _mm256_mul_pd(xj, load(cj, 2)));
      im2 = _mm256_add_pd(im2, _mm256_mul_pd(xj, load(sj, 2)));
    }
    if constexpr (V > 3) {
      re3 = _mm256_add_pd(re3, _mm256_mul_pd(xj, load(cj, 3)));
      im3 = _mm256_add_pd(im3, _mm256_mul_pd(xj, load(sj, 3)));
    }
  }
  const auto store = [&](__m256d re, __m256d im, int v) {
    const __m256d mag = _mm256_sqrt_pd(
        _mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im)));
    if (v + 1 < V) {
      _mm256_storeu_pd(out + k + 4 * v, mag);
    } else {
      _mm256_maskstore_pd(out + k + 4 * v, last, mag);
    }
  };
  store(re0, im0, 0);
  if constexpr (V > 1) store(re1, im1, 1);
  if constexpr (V > 2) store(re2, im2, 2);
  if constexpr (V > 3) store(re3, im3, 3);
}

}  // namespace

void real_dft_magnitude(const double* x, std::size_t n, const double* c,
                        const double* s, std::size_t bins, double* out) {
  // Blocks of four vectors (eight accumulators), the last one masked.
  const __m256i all = _mm256_set1_epi64x(-1);
  std::size_t k = 0;
  while (bins - k > 16) {
    dft_magnitude_block<4>(x, n, c, s, bins, k, all, out);
    k += 16;
  }
  const std::size_t rest = bins - k;
  if (rest > 0) {
    const std::size_t vectors = (rest + 3) / 4;
    const auto lanes = static_cast<long long>(rest - 4 * (vectors - 1));
    const __m256i last = _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes),
                                            _mm256_set_epi64x(3, 2, 1, 0));
    switch (vectors) {
      case 1: dft_magnitude_block<1>(x, n, c, s, bins, k, last, out); break;
      case 2: dft_magnitude_block<2>(x, n, c, s, bins, k, last, out); break;
      case 3: dft_magnitude_block<3>(x, n, c, s, bins, k, last, out); break;
      default: dft_magnitude_block<4>(x, n, c, s, bins, k, last, out); break;
    }
  }
}

void channel_sums(const double* data, std::size_t frames,
                  std::size_t channels, double* sums) {
  std::size_t c = 0;
  for (; c + 4 <= channels; c += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t nf = 0; nf < frames; ++nf) {
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(data + nf * channels + c));
    }
    _mm256_storeu_pd(sums + c, acc);
  }
  if (c + 2 <= channels) {  // SSE pair for the 2-channel fleet case
    __m128d acc = _mm_setzero_pd();
    for (std::size_t nf = 0; nf < frames; ++nf) {
      acc = _mm_add_pd(acc, _mm_loadu_pd(data + nf * channels + c));
    }
    _mm_storeu_pd(sums + c, acc);
    c += 2;
  }
  for (; c < channels; ++c) {
    double acc = 0.0;
    for (std::size_t nf = 0; nf < frames; ++nf) acc += data[nf * channels + c];
    sums[c] = acc;
  }
}

// --- ULP-bounded reductions (4 partial accumulators / vector scan) -------

namespace {
inline double hsum(__m256d v) {
  double p[4];
  _mm256_storeu_pd(p, v);
  return ((p[0] + p[1]) + p[2]) + p[3];
}
}  // namespace

double sum(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double total = hsum(acc);
  for (; i < n; ++i) total += x[i];
  return total;
}

double subtract_scalar_energy(const double* src, double mu, double* dst,
                              std::size_t n) {
  const __m256d mv = _mm256_set1_pd(mu);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(src + i), mv);
    _mm256_storeu_pd(dst + i, d);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double total = hsum(acc);
  for (; i < n; ++i) {
    dst[i] = src[i] - mu;
    total += dst[i] * dst[i];
  }
  return total;
}

void pearson_accumulate(const double* u, const double* v, double mu,
                        double mv, std::size_t n, double* num, double* du2,
                        double* dv2) {
  const __m256d muv = _mm256_set1_pd(mu);
  const __m256d mvv = _mm256_set1_pd(mv);
  __m256d acc_n = _mm256_setzero_pd();
  __m256d acc_u = _mm256_setzero_pd();
  __m256d acc_v = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d du = _mm256_sub_pd(_mm256_loadu_pd(u + i), muv);
    const __m256d dv = _mm256_sub_pd(_mm256_loadu_pd(v + i), mvv);
    acc_n = _mm256_add_pd(acc_n, _mm256_mul_pd(du, dv));
    acc_u = _mm256_add_pd(acc_u, _mm256_mul_pd(du, du));
    acc_v = _mm256_add_pd(acc_v, _mm256_mul_pd(dv, dv));
  }
  double a = hsum(acc_n);
  double b = hsum(acc_u);
  double c = hsum(acc_v);
  for (; i < n; ++i) {
    const double du = u[i] - mu;
    const double dv = v[i] - mv;
    a += du * dv;
    b += du * du;
    c += dv * dv;
  }
  *num += a;
  *du2 += b;
  *dv2 += c;
}

void prefix_sums(const double* x, double* ps, double* ps2, std::size_t n) {
  ps[0] = 0.0;
  ps2[0] = 0.0;
  __m256d run = _mm256_setzero_pd();
  __m256d run2 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d out = _mm256_add_pd(run, inclusive_scan(v));
    _mm256_storeu_pd(ps + i + 1, out);
    run = _mm256_permute4x64_pd(out, 0xFF);
    const __m256d out2 =
        _mm256_add_pd(run2, inclusive_scan(_mm256_mul_pd(v, v)));
    _mm256_storeu_pd(ps2 + i + 1, out2);
    run2 = _mm256_permute4x64_pd(out2, 0xFF);
  }
  for (; i < n; ++i) {
    ps[i + 1] = ps[i] + x[i];
    ps2[i + 1] = ps2[i] + x[i] * x[i];
  }
}

// ---------------------------------------------------------------------------
// CRC-32 by carry-less multiplication folding (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
// 2009), in the bit-reflected domain of the IEEE polynomial
// P = 0x104C11DB7.  Each fold constant is (x^d mod P), bit-reflected and
// shifted left by one, for the distance d named beside it.

namespace {

// x.lo·k.lo ⊕ x.hi·k.hi ⊕ next (carry-less products): moves the 128
// bits of `x` forward by the distance `k` encodes and adds them onto the
// block `next`.
inline __m128i fold16(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// CRC register after p[0..n), n a multiple of 16 and at least 64.
std::uint32_t crc32_fold(std::uint32_t state, const std::uint8_t* p,
                         std::size_t n) {
  // lo: d = 4·128 + 32, hi: d = 4·128 − 32 (fold across 64 bytes).
  const __m128i k64 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  // lo: d = 128 + 32, hi: d = 128 − 32 (fold across 16 bytes).
  const __m128i k16 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  // d = 64 (fold the last 64 bits to 32 + 32).
  const __m128i k8 = _mm_set_epi64x(0, 0x163CD6124);
  // lo: P reflected; hi: μ = floor(x^64 / P) reflected (Barrett).
  const __m128i poly_mu = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i a0 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i a1 = load16(p + 16);
  __m128i a2 = load16(p + 32);
  __m128i a3 = load16(p + 48);
  p += 64;
  n -= 64;
  // Four independent accumulators keep the multiplier pipeline full.
  for (; n >= 64; p += 64, n -= 64) {
    a0 = fold16(a0, k64, load16(p));
    a1 = fold16(a1, k64, load16(p + 16));
    a2 = fold16(a2, k64, load16(p + 32));
    a3 = fold16(a3, k64, load16(p + 48));
  }
  __m128i x = fold16(a0, k16, a1);
  x = fold16(x, k16, a2);
  x = fold16(x, k16, a3);
  for (; n >= 16; p += 16, n -= 16) {
    x = fold16(x, k16, load16(p));
  }
  // 128 -> 64 bits: the low half moves forward by 64 onto the high half.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k16, 0x10));
  // 64 -> 32 + 32 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k8, 0x00));
  // Barrett reduction: t = ((x mod x^32)·μ mod x^32)·P leaves the
  // remainder in bits 32..63 of x ⊕ t.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, const std::uint8_t* p,
                           std::size_t n) {
  // The fold starts from four 16-byte blocks; shorter inputs, and the
  // bytes past the last whole 16-byte block, go through the table.
  if (n < 64) return scalar::crc32_update(state, p, n);
  const std::size_t folded = n & ~std::size_t{15};
  return scalar::crc32_update(crc32_fold(state, p, folded), p + folded,
                              n - folded);
}

}  // namespace nsync::dsp::simd::avx2

#endif  // NSYNC_SIMD_HAVE_AVX2
