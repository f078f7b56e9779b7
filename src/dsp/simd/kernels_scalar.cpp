// Scalar reference backend.
//
// These bodies are literal transcriptions of the loops that previously
// lived inline in dsp/fft.cpp, dsp/xcorr.cpp, signal/stats.cpp,
// core/tde.cpp and signal/checkpoint.cpp.  Complex arithmetic is written
// out per component exactly as libstdc++'s std::complex<double> operators
// evaluate it for finite operands (naive product formula, component-wise
// scalar ops), so routing the old call sites through this backend changes
// no bits.  Every other backend is validated against these functions.
//
// Do not "simplify" the arithmetic here: expressions like the full
// multiply by the k = 0 twiddle (1.0, -0.0) or `0.0 * dr - (-0.5) * di`
// are load-bearing — they reproduce the exact rounding and signed-zero
// behavior of the original std::complex formulas.
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "dsp/simd/kernels.hpp"

namespace nsync::dsp::simd::scalar {

namespace {

// One radix-2 butterfly: t = v * w, then (u, v) <- (u + t, u - t).
inline void butterfly(double& ur, double& ui, double& vr, double& vi,
                      double wr, double wi) {
  const double tr = vr * wr - vi * wi;
  const double ti = vr * wi + vi * wr;
  const double ar = ur;
  const double ai = ui;
  ur = ar + tr;
  ui = ai + ti;
  vr = ar - tr;
  vi = ai - ti;
}

// Bin k (1 <= k < h) of the real transform whose h-point half transform
// sits in (hre, him):
//   0.5 * (z_k + conj(z_{h-k})) + tw_k * (0, -0.5) * (z_k - conj(z_{h-k}))
inline Complex untangle_bin(const double* hre, const double* him,
                            const double* twr, const double* twi,
                            std::size_t h, std::size_t k) {
  // even = 0.5 * (z_k + conj(z_{h-k}))
  const double sr = hre[k] + hre[h - k];
  const double si = him[k] - him[h - k];
  const double er = 0.5 * sr;
  const double ei = 0.5 * si;
  // odd = (0, -0.5) * (z_k - conj(z_{h-k}))
  const double dr = hre[k] - hre[h - k];
  const double di = him[k] + him[h - k];
  const double odd_r = 0.0 * dr - (-0.5) * di;
  const double odd_i = 0.0 * di + (-0.5) * dr;
  // out = even + tw_k * odd
  return Complex(er + (twr[k] * odd_r - twi[k] * odd_i),
                 ei + (twr[k] * odd_i + twi[k] * odd_r));
}

// a * b with the naive formula (ar*br - ai*bi, ar*bi + ai*br).
inline Complex cmul(double ar, double ai, double br, double bi) {
  return Complex(ar * br - ai * bi, ar * bi + ai * br);
}

static_assert(std::endian::native == std::endian::little,
              "crc32_update loads input words little-endian");

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slice-by-8 tables for the reflected CRC-32 (polynomial 0xEDB88320):
// t[0] is the classic byte table; t[k][i] is the CRC of byte i followed by
// k zero bytes, so eight input bytes fold into the state with eight
// independent lookups instead of a serial chain of eight.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

void radix2_pass(double* re, double* im, std::size_t n, std::size_t len,
                 const double* twr, const double* twi, bool inverse) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      butterfly(re[i + k], im[i + k], re[i + k + half], im[i + k + half],
                twr[k], inverse ? -twi[k] : twi[k]);
    }
  }
}

void radix2_pass_pair(double* re, double* im, std::size_t n, std::size_t len,
                      const double* twr, const double* twi, bool inverse) {
  // Quarter q of a 2*len block: stage len pairs (0,1) and (2,3) with
  // twiddle k, stage 2*len pairs (0,2) with k and (1,3) with k + q.
  const std::size_t q = len / 2;
  const double* tbr = twr + q;
  const double* tbi = twi + q;
  for (std::size_t i = 0; i < n; i += 2 * len) {
    for (std::size_t k = 0; k < q; ++k) {
      double* r = re + i + k;
      double* m = im + i + k;
      double r0 = r[0], r1 = r[q], r2 = r[2 * q], r3 = r[3 * q];
      double i0 = m[0], i1 = m[q], i2 = m[2 * q], i3 = m[3 * q];
      const double wai = inverse ? -twi[k] : twi[k];
      butterfly(r0, i0, r1, i1, twr[k], wai);
      butterfly(r2, i2, r3, i3, twr[k], wai);
      butterfly(r0, i0, r2, i2, tbr[k], inverse ? -tbi[k] : tbi[k]);
      butterfly(r1, i1, r3, i3, tbr[k + q],
                inverse ? -tbi[k + q] : tbi[k + q]);
      r[0] = r0, r[q] = r1, r[2 * q] = r2, r[3 * q] = r3;
      m[0] = i0, m[q] = i1, m[2 * q] = i2, m[3 * q] = i3;
    }
  }
}

void scale2(double* re, double* im, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) re[i] *= s;
  for (std::size_t i = 0; i < n; ++i) im[i] *= s;
}

void cmul_split_inplace(double* ar, double* ai, const double* br,
                        const double* bi, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xr = ar[i];
    const double xi = ai[i];
    ar[i] = xr * br[i] - xi * bi[i];
    ai[i] = xr * bi[i] + xi * br[i];
  }
}

void rfft_untangle(const double* hre, const double* him, const double* twr,
                   const double* twi, std::size_t h, Complex* out) {
  for (std::size_t k = 1; k < h; ++k) {
    out[k] = untangle_bin(hre, him, twr, twi, h, k);
  }
}

void rfft_untangle_product(const double* xr, const double* xi,
                           const double* yr, const double* yi,
                           const double* twr, const double* twi,
                           std::size_t h, Complex* out) {
  out[0] = cmul(xr[0] + xi[0], 0.0, yr[0] + yi[0], 0.0);
  out[h] = cmul(xr[0] - xi[0], 0.0, yr[0] - yi[0], 0.0);
  for (std::size_t k = 1; k < h; ++k) {
    const Complex a = untangle_bin(xr, xi, twr, twi, h, k);
    const Complex b = untangle_bin(yr, yi, twr, twi, h, k);
    out[k] = cmul(a.real(), a.imag(), b.real(), b.imag());
  }
}

void irfft_untangle(const Complex* bins, const double* twr, const double* twi,
                    std::size_t h, double* out) {
  for (std::size_t k = 0; k < h; ++k) {
    // even = 0.5 * (x_k + conj(x_{h-k}))
    const double er = 0.5 * (bins[k].real() + bins[h - k].real());
    const double ei = 0.5 * (bins[k].imag() - bins[h - k].imag());
    // odd = conj(tw_k) * (0.5 * (x_k - conj(x_{h-k})))
    const double ir = 0.5 * (bins[k].real() - bins[h - k].real());
    const double ii = 0.5 * (bins[k].imag() + bins[h - k].imag());
    const double nti = -twi[k];
    const double odd_r = twr[k] * ir - nti * ii;
    const double odd_i = twr[k] * ii + nti * ir;
    // half = even + (0, 1) * odd
    out[2 * k] = er + (0.0 * odd_r - 1.0 * odd_i);
    out[2 * k + 1] = ei + (0.0 * odd_i + 1.0 * odd_r);
  }
}

void deinterleave(const double* xy, std::size_t n, double* re, double* im) {
  for (std::size_t k = 0; k < n; ++k) {
    re[k] = xy[2 * k];
    im[k] = xy[2 * k + 1];
  }
}

void interleave(const double* re, const double* im, std::size_t n,
                double* xy) {
  for (std::size_t k = 0; k < n; ++k) {
    xy[2 * k] = re[k];
    xy[2 * k + 1] = im[k];
  }
}

void subtract_scalar(const double* src, double mu, double* dst,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] - mu;
}

void normalize_windows(const double* ps, const double* ps2, std::size_t ny,
                       double y_norm, const double* num, double* out,
                       std::size_t n_out) {
  const double ny_d = static_cast<double>(ny);
  for (std::size_t n = 0; n < n_out; ++n) {
    const double s1 = ps[n + ny] - ps[n];
    const double s2 = ps2[n + ny] - ps2[n];
    const double var = s2 - s1 * s1 / ny_d;
    if (degenerate_variance(var, s2)) {
      out[n] = 0.0;  // flat (or non-finite) window
    } else {
      const double r = num[n] / (std::sqrt(var) * y_norm);
      out[n] = std::isfinite(r) ? r : 0.0;
    }
  }
}

std::size_t clamp_weight_argmax(const double* scores, const double* w,
                                std::size_t n) {
  std::size_t best = 0;
  double best_score = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double s = std::max(scores[j], 0.0);
    const double biased = s * w[j];
    if (j == 0 || biased > best_score) {
      best = j;
      best_score = biased;
    }
  }
  return best;
}

void real_dft_magnitude(const double* x, std::size_t n, const double* c,
                        const double* s, std::size_t bins, double* out) {
  for (std::size_t k = 0; k < bins; ++k) {
    double re = 0.0;
    double im = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      re += x[j] * c[j * bins + k];
      im += x[j] * s[j * bins + k];
    }
    out[k] = std::sqrt(re * re + im * im);
  }
}

void channel_sums(const double* data, std::size_t frames,
                  std::size_t channels, double* sums) {
  for (std::size_t c = 0; c < channels; ++c) sums[c] = 0.0;
  for (std::size_t nf = 0; nf < frames; ++nf) {
    const double* row = data + nf * channels;
    for (std::size_t c = 0; c < channels; ++c) sums[c] += row[c];
  }
}

double sum(const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

double subtract_scalar_energy(const double* src, double mu, double* dst,
                              std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = src[i] - mu;
    acc += dst[i] * dst[i];
  }
  return acc;
}

void pearson_accumulate(const double* u, const double* v, double mu,
                        double mv, std::size_t n, double* num, double* du2,
                        double* dv2) {
  double a = 0.0, b = 0.0, c = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
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
  for (std::size_t i = 0; i < n; ++i) {
    ps[i + 1] = ps[i] + x[i];
    ps2[i + 1] = ps2[i] + x[i] * x[i];
  }
}

std::uint32_t crc32_update(std::uint32_t state, const std::uint8_t* p,
                           std::size_t n) {
  const CrcTables& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    // memcpy: no alignment requirement on `p`; little-endian host
    // (asserted above), so byte 0 lands in the low bits of `lo`.
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= state;
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace nsync::dsp::simd::scalar
