#include "dsp/reference/reference.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

#include "dsp/simd/simd.hpp"
#include "dsp/windows.hpp"
#include "signal/stats.hpp"

namespace nsync::dsp {

namespace {

constexpr double kPi = std::numbers::pi;

namespace simd = nsync::dsp::simd;

void check_sizes(std::span<const double> x, std::span<const double> y,
                 const char* who) {
  if (y.size() < 2 || x.size() < y.size()) {
    throw std::invalid_argument(std::string(who) +
                                ": need x.size() >= y.size() >= 2");
  }
}

// Reference-path epilogue: given the raw correlation numerator over the
// centered signals, normalize each window by its standard deviation
// (from prefix sums) and the template norm.  The production path uses
// the dispatched simd::ops().normalize_windows kernel, whose scalar body
// is this exact loop (shared guard: simd::degenerate_variance).
//
// Degenerate windows score 0, matching the stats::pearson convention: a
// flat window (var <= 0 up to rounding) has an undefined correlation, and
// a window containing NaN/Inf would otherwise slip past a `var <= eps`
// comparison (NaN compares false) and emit a non-finite score that
// poisons every downstream TDEB/DWM result.  The guard is therefore
// written as !(var > eps), which routes NaN into the degenerate branch,
// and the quotient is checked once more because a non-finite input
// contaminates the whole FFT numerator.
template <typename NumAt>
void normalize_windows_ref(std::span<const double> ps,
                           std::span<const double> ps2, std::size_t ny,
                           double y_norm, NumAt num_at,
                           std::span<double> out) {
  const double ny_d = static_cast<double>(ny);
  for (std::size_t n = 0; n < out.size(); ++n) {
    const double s1 = ps[n + ny] - ps[n];
    const double s2 = ps2[n + ny] - ps2[n];
    const double var = s2 - s1 * s1 / ny_d;
    if (simd::degenerate_variance(var, s2)) {
      out[n] = 0.0;  // flat (or non-finite) window
    } else {
      const double r = num_at(n) / (std::sqrt(var) * y_norm);
      out[n] = std::isfinite(r) ? r : 0.0;
    }
  }
}

}  // namespace

void fft_radix2_uncached(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 0) return;
  if (!is_power_of_two(n)) {
    throw std::invalid_argument(
        "fft_radix2_uncached: size must be a power of two");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * kPi / static_cast<double>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

std::vector<Complex> rfft_unplanned(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n / 2 + 1);
  if (n == 0) return out;
  if (n % 2 == 0) {
    // Half-size trick with a complex (radix-2 or Bluestein) half transform.
    const std::size_t h = n / 2;
    std::vector<Complex> packed(h);
    for (std::size_t k = 0; k < h; ++k) {
      packed[k] = Complex(x[2 * k], x[2 * k + 1]);
    }
    const auto z = fft(packed);
    out[0] = Complex(z[0].real() + z[0].imag(), 0.0);
    out[h] = Complex(z[0].real() - z[0].imag(), 0.0);
    for (std::size_t k = 1; k < h; ++k) {
      const Complex zc = std::conj(z[h - k]);
      const Complex even = 0.5 * (z[k] + zc);
      const Complex odd = Complex(0.0, -0.5) * (z[k] - zc);
      const double ang = -2.0 * kPi * static_cast<double>(k) /
                         static_cast<double>(n);
      out[k] = even + Complex(std::cos(ang), std::sin(ang)) * odd;
    }
    return out;
  }
  // Odd length: no pairing is possible; use the complex transform.
  std::vector<Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = Complex(x[i], 0.0);
  auto full = fft(data);
  full.resize(n / 2 + 1);
  return full;
}

std::vector<double> cross_correlate_valid_complex(std::span<const double> x,
                                                  std::span<const double> y) {
  if (y.empty() || x.size() < y.size()) {
    throw std::invalid_argument(
        "cross_correlate_valid_complex: need x.size() >= y.size() >= 1");
  }
  const std::size_t nx = x.size();
  const std::size_t ny = y.size();
  const std::size_t n_out = nx - ny + 1;
  const std::size_t m = next_power_of_two(nx + ny);
  std::vector<Complex> fx(m, Complex(0.0, 0.0));
  std::vector<Complex> fy(m, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < nx; ++i) fx[i] = Complex(x[i], 0.0);
  for (std::size_t i = 0; i < ny; ++i) fy[i] = Complex(y[ny - 1 - i], 0.0);
  fft_radix2(fx);
  fft_radix2(fy);
  for (std::size_t i = 0; i < m; ++i) fx[i] *= fy[i];
  fft_radix2(fx, /*inverse=*/true);
  std::vector<double> out(n_out);
  for (std::size_t k = 0; k < n_out; ++k) {
    out[k] = fx[k + ny - 1].real();
  }
  return out;
}

std::vector<double> sliding_pearson_fft_complex(std::span<const double> x,
                                                std::span<const double> y) {
  check_sizes(x, y, "sliding_pearson_fft_complex");
  const std::size_t ny = y.size();
  const std::size_t n_out = x.size() - ny + 1;

  const double mu_y = nsync::signal::mean(y);
  std::vector<double> yc(ny);
  double y_energy = 0.0;
  for (std::size_t i = 0; i < ny; ++i) {
    yc[i] = y[i] - mu_y;
    y_energy += yc[i] * yc[i];
  }
  const double y_norm = std::sqrt(y_energy);

  std::vector<double> out(n_out, 0.0);
  // Same degenerate-template convention as the rfft path: constant or
  // non-finite template scores 0 everywhere.
  if (!(y_norm > 0.0) || !std::isfinite(y_norm)) return out;

  const double mu_x = nsync::signal::mean(x);
  std::vector<double> xc(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) xc[i] = x[i] - mu_x;

  const auto num = cross_correlate_valid_complex(xc, yc);

  std::vector<double> ps(xc.size() + 1, 0.0);
  std::vector<double> ps2(xc.size() + 1, 0.0);
  for (std::size_t i = 0; i < xc.size(); ++i) {
    ps[i + 1] = ps[i] + xc[i];
    ps2[i + 1] = ps2[i] + xc[i] * xc[i];
  }
  normalize_windows_ref(ps, ps2, ny, y_norm,
                        [&](std::size_t n) { return num[n]; }, out);
  return out;
}

nsync::signal::Signal spectrogram_dft_reference(
    const nsync::signal::SignalView& s, const StftConfig& cfg) {
  const std::size_t n = stft_window_samples(cfg, s.sample_rate());
  const std::size_t hop = stft_hop_samples(cfg, s.sample_rate());
  if (s.frames() < n) {
    throw std::invalid_argument(
        "spectrogram_dft_reference: signal shorter than one window");
  }
  const std::size_t bins = n / 2 + 1;
  const std::size_t columns = (s.frames() - n) / hop + 1;
  const std::vector<double> window = make_window(cfg.window, n);
  nsync::signal::Signal out(columns, bins * s.channels(), 1.0 / cfg.delta_t);
  std::vector<double> x(n);
  for (std::size_t col = 0; col < columns; ++col) {
    for (std::size_t c = 0; c < s.channels(); ++c) {
      for (std::size_t j = 0; j < n; ++j) {
        x[j] = s(col * hop + j, c) * window[j];
      }
      for (std::size_t k = 0; k < bins; ++k) {
        double re = 0.0;
        double im = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          const double ang = 2.0 * kPi * static_cast<double>((j * k) % n) /
                             static_cast<double>(n);
          re += x[j] * std::cos(ang);
          im += x[j] * -std::sin(ang);
        }
        const double m = std::sqrt(re * re + im * im);
        out(col, c * bins + k) = cfg.log_magnitude ? std::log1p(m) : m;
      }
    }
  }
  return out;
}

}  // namespace nsync::dsp
