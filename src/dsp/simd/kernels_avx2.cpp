// AVX2 backend.
//
// This translation unit is compiled with `-mavx2 -ffp-contract=off` and
// deliberately WITHOUT `-mfma`: the equivalence contract in simd.hpp
// promises that lane-parallel kernels are bitwise identical to the scalar
// backend, and a fused multiply-add would change the rounding of every
// `a*b - c*d` complex product.  Each vector body below performs exactly
// the scalar backend's operation sequence per lane — including the
// "useless" multiplies by 0.0 and the full multiply by the k = 0 twiddle
// (1.0, -0.0) — so the only kernels that can diverge are the explicitly
// ULP-bounded reductions at the bottom of the file (partial accumulators
// / in-register scans reassociate; see simd.hpp).
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
  if (n < 8) {  // n = 2 or 4: too small to fill a register productively
    scalar::radix2_pass(re, im, n, len, twr, twi, inverse);
    return;
  }
  const std::size_t half = len / 2;
  if (len == 2) {
    // Blocks are adjacent (u, v) pairs; deinterleave 4 blocks at a time.
    const __m256d wr = _mm256_set1_pd(twr[0]);
    const __m256d wi = _mm256_set1_pd(inverse ? -twi[0] : twi[0]);
    for (std::size_t i = 0; i < n; i += 8) {
      __m256d ur, vr, ui, vi, lo, hi;
      split_pairs(_mm256_loadu_pd(re + i), _mm256_loadu_pd(re + i + 4), ur,
                  vr);
      split_pairs(_mm256_loadu_pd(im + i), _mm256_loadu_pd(im + i + 4), ui,
                  vi);
      const __m256d tr =
          _mm256_sub_pd(_mm256_mul_pd(vr, wr), _mm256_mul_pd(vi, wi));
      const __m256d ti =
          _mm256_add_pd(_mm256_mul_pd(vr, wi), _mm256_mul_pd(vi, wr));
      join_pairs(_mm256_add_pd(ur, tr), _mm256_sub_pd(ur, tr), lo, hi);
      _mm256_storeu_pd(re + i, lo);
      _mm256_storeu_pd(re + i + 4, hi);
      join_pairs(_mm256_add_pd(ui, ti), _mm256_sub_pd(ui, ti), lo, hi);
      _mm256_storeu_pd(im + i, lo);
      _mm256_storeu_pd(im + i + 4, hi);
    }
    return;
  }
  if (len == 4) {
    // Block layout [u0 u1 v0 v1]; two blocks per iteration, the twiddle
    // pair broadcast across both 128-bit halves.
    const __m256d wr =
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(twr));
    const __m256d wi = neg_if(
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(twi)), inverse);
    for (std::size_t i = 0; i < n; i += 8) {
      const __m256d a0r = _mm256_loadu_pd(re + i);
      const __m256d a1r = _mm256_loadu_pd(re + i + 4);
      const __m256d a0i = _mm256_loadu_pd(im + i);
      const __m256d a1i = _mm256_loadu_pd(im + i + 4);
      const __m256d ur = _mm256_permute2f128_pd(a0r, a1r, 0x20);
      const __m256d vr = _mm256_permute2f128_pd(a0r, a1r, 0x31);
      const __m256d ui = _mm256_permute2f128_pd(a0i, a1i, 0x20);
      const __m256d vi = _mm256_permute2f128_pd(a0i, a1i, 0x31);
      const __m256d tr =
          _mm256_sub_pd(_mm256_mul_pd(vr, wr), _mm256_mul_pd(vi, wi));
      const __m256d ti =
          _mm256_add_pd(_mm256_mul_pd(vr, wi), _mm256_mul_pd(vi, wr));
      const __m256d nur = _mm256_add_pd(ur, tr);
      const __m256d nvr = _mm256_sub_pd(ur, tr);
      const __m256d nui = _mm256_add_pd(ui, ti);
      const __m256d nvi = _mm256_sub_pd(ui, ti);
      _mm256_storeu_pd(re + i, _mm256_permute2f128_pd(nur, nvr, 0x20));
      _mm256_storeu_pd(re + i + 4, _mm256_permute2f128_pd(nur, nvr, 0x31));
      _mm256_storeu_pd(im + i, _mm256_permute2f128_pd(nui, nvi, 0x20));
      _mm256_storeu_pd(im + i + 4, _mm256_permute2f128_pd(nui, nvi, 0x31));
    }
    return;
  }
  // len >= 8: half is a multiple of 4, plain 4-wide k loop, no tail.
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; k += 4) {
      const __m256d wr = _mm256_loadu_pd(twr + k);
      const __m256d wi = neg_if(_mm256_loadu_pd(twi + k), inverse);
      double* rea = re + i + k;
      double* ima = im + i + k;
      double* reb = rea + half;
      double* imb = ima + half;
      const __m256d vr = _mm256_loadu_pd(reb);
      const __m256d vi = _mm256_loadu_pd(imb);
      const __m256d tr =
          _mm256_sub_pd(_mm256_mul_pd(vr, wr), _mm256_mul_pd(vi, wi));
      const __m256d ti =
          _mm256_add_pd(_mm256_mul_pd(vr, wi), _mm256_mul_pd(vi, wr));
      const __m256d ur = _mm256_loadu_pd(rea);
      const __m256d ui = _mm256_loadu_pd(ima);
      _mm256_storeu_pd(rea, _mm256_add_pd(ur, tr));
      _mm256_storeu_pd(ima, _mm256_add_pd(ui, ti));
      _mm256_storeu_pd(reb, _mm256_sub_pd(ur, tr));
      _mm256_storeu_pd(imb, _mm256_sub_pd(ui, ti));
    }
  }
}

void divide2(double* re, double* im, std::size_t n, double d) {
  const __m256d dv = _mm256_set1_pd(d);
  for (double* p : {re, im}) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(p + i, _mm256_div_pd(_mm256_loadu_pd(p + i), dv));
    }
    for (; i < n; ++i) p[i] /= d;
  }
}

void cmul_inplace(Complex* a, const Complex* b, std::size_t n) {
  // Two complexes per register.  addsub computes
  // [ar*br - ai*bi, ai*br + ar*bi]; the imaginary part is the scalar
  // formula with the addends swapped, and IEEE addition is commutative,
  // so this is still bitwise.
  double* ap = reinterpret_cast<double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d av = _mm256_loadu_pd(ap + 2 * i);
    const __m256d bv = _mm256_loadu_pd(bp + 2 * i);
    const __m256d br = _mm256_movedup_pd(bv);
    const __m256d bi = _mm256_permute_pd(bv, 0xF);
    const __m256d as = _mm256_permute_pd(av, 0x5);
    _mm256_storeu_pd(ap + 2 * i, _mm256_addsub_pd(_mm256_mul_pd(av, br),
                                                  _mm256_mul_pd(as, bi)));
  }
  for (; i < n; ++i) {
    const double ar = a[i].real();
    const double ai = a[i].imag();
    const double br_s = b[i].real();
    const double bi_s = b[i].imag();
    a[i] = Complex(ar * br_s - ai * bi_s, ar * bi_s + ai * br_s);
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
  const __m256d halfc = _mm256_set1_pd(0.5);
  const __m256d neghalf = _mm256_set1_pd(-0.5);
  const __m256d zero = _mm256_setzero_pd();
  double* outp = reinterpret_cast<double*>(out);
  std::size_t k = 1;
  for (; k + 4 <= h; k += 4) {
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
    const __m256d o_re = _mm256_add_pd(
        er, _mm256_sub_pd(_mm256_mul_pd(wr, odd_r), _mm256_mul_pd(wi, odd_i)));
    const __m256d o_im = _mm256_add_pd(
        ei, _mm256_add_pd(_mm256_mul_pd(wr, odd_i), _mm256_mul_pd(wi, odd_r)));
    __m256d lo, hi;
    join_pairs(o_re, o_im, lo, hi);
    _mm256_storeu_pd(outp + 2 * k, lo);
    _mm256_storeu_pd(outp + 2 * k + 4, hi);
  }
  for (; k < h; ++k) {
    const double sr = hre[k] + hre[h - k];
    const double si = him[k] - him[h - k];
    const double er = 0.5 * sr;
    const double ei = 0.5 * si;
    const double dr = hre[k] - hre[h - k];
    const double di = him[k] + him[h - k];
    const double odd_r = 0.0 * dr - (-0.5) * di;
    const double odd_i = 0.0 * di + (-0.5) * dr;
    out[k] = Complex(er + (twr[k] * odd_r - twi[k] * odd_i),
                     ei + (twr[k] * odd_i + twi[k] * odd_r));
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

double centered_energy(const double* x, double mu, std::size_t n) {
  const __m256d mv = _mm256_set1_pd(mu);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), mv);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double total = hsum(acc);
  for (; i < n; ++i) {
    const double d = x[i] - mu;
    total += d * d;
  }
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

}  // namespace nsync::dsp::simd::avx2

#endif  // NSYNC_SIMD_HAVE_AVX2
