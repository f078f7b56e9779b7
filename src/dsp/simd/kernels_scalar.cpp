// Scalar reference backend.
//
// These bodies are literal transcriptions of the loops that previously
// lived inline in dsp/fft.cpp, dsp/xcorr.cpp, signal/stats.cpp and
// core/tde.cpp.  Complex arithmetic is written out per component exactly
// as libstdc++'s std::complex<double> operators evaluate it for finite
// operands (naive product formula, component-wise scalar ops), so routing
// the old call sites through this backend changes no bits.  Every other
// backend is validated against these functions.
//
// Do not "simplify" the arithmetic here: expressions like the full
// multiply by the k = 0 twiddle (1.0, -0.0) or `0.0 * dr - (-0.5) * di`
// are load-bearing — they reproduce the exact rounding and signed-zero
// behavior of the original std::complex formulas.
#include <cmath>

#include "dsp/simd/kernels.hpp"

namespace nsync::dsp::simd::scalar {

void radix2_pass(double* re, double* im, std::size_t n, std::size_t len,
                 const double* twr, const double* twi, bool inverse) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const double wr = twr[k];
      const double wi = inverse ? -twi[k] : twi[k];
      const double vr = re[i + k + half];
      const double vi = im[i + k + half];
      const double tr = vr * wr - vi * wi;
      const double ti = vr * wi + vi * wr;
      const double ur = re[i + k];
      const double ui = im[i + k];
      re[i + k] = ur + tr;
      im[i + k] = ui + ti;
      re[i + k + half] = ur - tr;
      im[i + k + half] = ui - ti;
    }
  }
}

void divide2(double* re, double* im, std::size_t n, double d) {
  for (std::size_t i = 0; i < n; ++i) re[i] /= d;
  for (std::size_t i = 0; i < n; ++i) im[i] /= d;
}

void cmul_inplace(Complex* a, const Complex* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = a[i].real();
    const double ai = a[i].imag();
    const double br = b[i].real();
    const double bi = b[i].imag();
    a[i] = Complex(ar * br - ai * bi, ar * bi + ai * br);
  }
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
    out[k] = Complex(er + (twr[k] * odd_r - twi[k] * odd_i),
                     ei + (twr[k] * odd_i + twi[k] * odd_r));
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

double centered_energy(const double* x, double mu, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = x[i] - mu;
    acc += d * d;
  }
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

}  // namespace nsync::dsp::simd::scalar
