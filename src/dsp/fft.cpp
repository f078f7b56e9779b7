#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <shared_mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "dsp/fft_internal.hpp"
#include "dsp/simd/simd.hpp"

namespace nsync::dsp {

namespace {

constexpr double kPi = std::numbers::pi;

namespace simd = nsync::dsp::simd;

using detail::BluesteinPlan;
using detail::Radix2Plan;
using detail::RfftPlan;

// ---------------------------------------------------------------------------
// Plan cache.
//
// Radix-2 plans hold the bit-reversal permutation and per-stage split
// twiddle tables copied out of the full forward table
// w_n^k = exp(-2*pi*i*k/n) (see fft_internal.hpp for why they are copied
// rather than recomputed).  Bluestein plans hold the chirp and the FFT of
// the convolution kernel per (n, direction), split.  Real-FFT plans exist
// for every n and reference one of the two (see RfftPlan).  Plans are
// immutable once built, published via shared_ptr, and looked up under a
// shared_mutex, so any number of threads can transform concurrently.
// The butterfly/untangle/bin-product inner loops all run through the
// runtime-dispatched SIMD kernel table (dsp/simd/simd.hpp); every scalar
// formula below is preserved bit for bit by the vector backends.
// ---------------------------------------------------------------------------

std::shared_ptr<const Radix2Plan> build_radix2_plan(std::size_t n) {
  auto plan = std::make_shared<Radix2Plan>();
  plan->n = n;
  plan->bitrev.resize(n);
  plan->bitrev[0] = 0;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    plan->bitrev[i] = j;
  }
  std::vector<Complex> full(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * kPi * static_cast<double>(k) /
                       static_cast<double>(n);
    full[k] = Complex(std::cos(ang), std::sin(ang));
  }
  if (n >= 2) {
    plan->stage_re.resize(n - 1);
    plan->stage_im.resize(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t stride = n / len;
      const std::size_t off = len / 2 - 1;
      for (std::size_t k = 0; k < len / 2; ++k) {
        plan->stage_re[off + k] = full[k * stride].real();
        plan->stage_im[off + k] = full[k * stride].imag();
      }
    }
  }
  return plan;
}

class PlanCache {
 public:
  std::shared_ptr<const Radix2Plan> radix2(std::size_t n) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const auto it = radix2_.find(n);
      if (it != radix2_.end()) return it->second;
    }
    auto plan = build_radix2_plan(n);  // built outside any lock
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto [it, inserted] = radix2_.emplace(n, std::move(plan));
    (void)inserted;  // a racing builder may have won; use its plan
    return it->second;
  }

  std::shared_ptr<const BluesteinPlan> bluestein(std::size_t n,
                                                 bool inverse) {
    const std::size_t key = (n << 1) | (inverse ? 1 : 0);
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const auto it = bluestein_.find(key);
      if (it != bluestein_.end()) return it->second;
    }
    auto plan = build_bluestein_plan(n, inverse);
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto [it, inserted] = bluestein_.emplace(key, std::move(plan));
    (void)inserted;
    return it->second;
  }

  std::shared_ptr<const RfftPlan> rfft(std::size_t n) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const auto it = rfft_.find(n);
      if (it != rfft_.end()) return it->second;
    }
    auto plan = std::make_shared<RfftPlan>();
    plan->n = n;
    if (n % 2 == 0 && is_power_of_two(n)) {
      plan->half = radix2(n / 2);
    } else {
      // Even n = 2 * odd runs an odd-length Bluestein half transform,
      // odd n one of full length.
      plan->bluestein = bluestein(n % 2 == 0 ? n / 2 : n, /*inverse=*/false);
    }
    if (n % 2 == 0) {
      plan->tw_re.resize(n / 2);
      plan->tw_im.resize(n / 2);
      for (std::size_t k = 0; k < n / 2; ++k) {
        const double ang = -2.0 * kPi * static_cast<double>(k) /
                           static_cast<double>(n);
        plan->tw_re[k] = std::cos(ang);
        plan->tw_im[k] = std::sin(ang);
      }
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    const auto [it, inserted] = rfft_.emplace(n, std::move(plan));
    (void)inserted;  // a racing builder may have won; use its plan
    return it->second;
  }

 private:
  std::shared_ptr<const BluesteinPlan> build_bluestein_plan(std::size_t n,
                                                            bool inverse) {
    const double sign = inverse ? 1.0 : -1.0;
    auto plan = std::make_shared<BluesteinPlan>();
    plan->n = n;
    plan->chirp_re.resize(n);
    plan->chirp_im.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      // k^2 mod 2n keeps the argument bounded for large k.
      const auto k2 = static_cast<double>((k * k) % (2 * n));
      const double ang = sign * kPi * k2 / static_cast<double>(n);
      plan->chirp_re[k] = std::cos(ang);
      plan->chirp_im[k] = std::sin(ang);
    }
    plan->m = next_power_of_two(2 * n - 1);
    plan->conv = radix2(plan->m);
    plan->kernel_re.assign(plan->m, 0.0);
    plan->kernel_im.assign(plan->m, 0.0);
    plan->kernel_re[0] = plan->chirp_re[0];
    plan->kernel_im[0] = -plan->chirp_im[0];
    for (std::size_t k = 1; k < n; ++k) {
      plan->kernel_re[k] = plan->kernel_re[plan->m - k] = plan->chirp_re[k];
      plan->kernel_im[k] = plan->kernel_im[plan->m - k] = -plan->chirp_im[k];
    }
    detail::run_radix2_split(plan->kernel_re.data(), plan->kernel_im.data(),
                             *plan->conv, /*inverse=*/false);
    return plan;
  }

  std::shared_mutex mu_;
  std::unordered_map<std::size_t, std::shared_ptr<const Radix2Plan>> radix2_;
  std::unordered_map<std::size_t, std::shared_ptr<const RfftPlan>> rfft_;
  std::unordered_map<std::size_t, std::shared_ptr<const BluesteinPlan>>
      bluestein_;
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

// Bluestein's algorithm: expresses a length-N DFT as a convolution, which
// is evaluated with a power-of-two FFT.  Handles any N.  The chirp and the
// kernel FFT come from the plan cache; only the data-dependent convolution
// runs per call.  `re`/`im` hold the input in their first plan.n entries
// and zeros up to plan.m, and receive the transform in the same entries.
void bluestein_convolve(double* re, double* im, const BluesteinPlan& plan) {
  const auto& k = simd::ops();
  k.cmul_split_inplace(re, im, plan.chirp_re.data(), plan.chirp_im.data(),
                       plan.n);
  detail::run_radix2_split(re, im, *plan.conv, /*inverse=*/false);
  k.cmul_split_inplace(re, im, plan.kernel_re.data(), plan.kernel_im.data(),
                       plan.m);
  detail::run_radix2_split(re, im, *plan.conv,
                           /*inverse=*/true);  // includes 1/m
  k.cmul_split_inplace(re, im, plan.chirp_re.data(), plan.chirp_im.data(),
                       plan.n);
}

// Complex Bluestein transform in per-thread split scratch planes.
std::vector<Complex> bluestein(std::span<const Complex> input, bool inverse) {
  const std::size_t n = input.size();
  const auto plan = plan_cache().bluestein(n, inverse);
  const auto& k = simd::ops();
  thread_local std::vector<double> sre;
  thread_local std::vector<double> sim;
  sre.assign(plan->m, 0.0);
  sim.assign(plan->m, 0.0);
  k.deinterleave(reinterpret_cast<const double*>(input.data()), n, sre.data(),
                 sim.data());
  bluestein_convolve(sre.data(), sim.data(), *plan);
  std::vector<Complex> out(n);
  k.interleave(sre.data(), sim.data(), n,
               reinterpret_cast<double*>(out.data()));
  return out;
}

// The butterfly stages of run_radix2_split, for planes that already hold
// their input in bit-reversed order, two stages per sweep: pairs
// (2, 4), (8, 16), ... and, for an odd stage count, one last single stage
// of span n.  No 1/n scaling; the inverse callers apply it.
void run_radix2_passes(double* re, double* im, const Radix2Plan& plan,
                       bool inverse) {
  const std::size_t n = plan.n;
  const auto& k = simd::ops();
  std::size_t len = 2;
  for (; 2 * len <= n; len <<= 2) {
    k.radix2_pass_pair(re, im, n, len, plan.stage_twr(len),
                       plan.stage_twi(len), inverse);
  }
  if (len <= n) {
    k.radix2_pass(re, im, n, len, plan.stage_twr(len), plan.stage_twi(len),
                  inverse);
  }
}

// The inverse transform's 1/n.  n is a power of two, so the reciprocal is
// exact and the multiply gives the bits of a division by n.
void scale_inverse(double* re, double* im, std::size_t n) {
  simd::ops().scale2(re, im, n, 1.0 / static_cast<double>(n));
}

// re[i] = xy[2 * bitrev[i]], im[i] = xy[2 * bitrev[i] + 1]: the even/odd
// deinterleave of the real-FFT pack, landing directly in the bit-reversed
// order the butterfly stages read.  Pure data movement, so the transform
// stays bitwise equal to deinterleave + run_radix2_split.
void gather_pairs_bitrev(const double* xy, const Radix2Plan& plan, double* re,
                         double* im) {
  const std::size_t* bitrev = plan.bitrev.data();
  for (std::size_t i = 0; i < plan.n; ++i) {
    const double* pair = xy + 2 * bitrev[i];
    re[i] = pair[0];
    im[i] = pair[1];
  }
}

// The same pack for a sequence of `len` <= 2 * plan.n samples read
// through `at(j)` and zero-padded to 2 * plan.n, so no padded copy is
// ever built: slot i takes pair bitrev[i] while that pair lies inside the
// data and +0.0 past it.  The load index is clamped and the value then
// selected, so the loop has no data-dependent branch (bit-reversed order
// would mispredict it); an odd len's last sample is patched in after.
template <class At>
void gather_pack_bitrev(std::size_t len, At at, const Radix2Plan& plan,
                        double* re, double* im) {
  const std::size_t* bitrev = plan.bitrev.data();
  const std::size_t pairs = len / 2;
  if (pairs == 0) {
    std::fill_n(re, plan.n, 0.0);
    std::fill_n(im, plan.n, 0.0);
  } else {
    for (std::size_t i = 0; i < plan.n; ++i) {
      const std::size_t b = bitrev[i];
      const std::size_t j = 2 * std::min(b, pairs - 1);
      const double even = at(j);
      const double odd = at(j + 1);
      re[i] = b < pairs ? even : 0.0;
      im[i] = b < pairs ? odd : 0.0;
    }
  }
  if (len % 2 == 1) re[bitrev[pairs]] = at(len - 1);
}

}  // namespace

namespace detail {

std::shared_ptr<const RfftPlan> get_rfft_plan(std::size_t n) {
  return plan_cache().rfft(n);
}

void run_radix2_split(double* re, double* im, const Radix2Plan& plan,
                      bool inverse) {
  const std::size_t n = plan.n;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bitrev[i];
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
  run_radix2_passes(re, im, plan, inverse);
  if (inverse) scale_inverse(re, im, n);
}

// ---------------------------------------------------------------------------
// Half-size complex trick for real transforms.
//
// Forward, n = 2h:  pack z[k] = x[2k] + i*x[2k+1] and take the h-point
// DFT Z.  With E/O the DFTs of the even/odd samples,
//   E[k] = (Z[k] + conj(Z[(h-k) mod h])) / 2
//   O[k] = (Z[k] - conj(Z[(h-k) mod h])) / (2i)
//   X[k] = E[k] + w^k * O[k],  w = exp(-2*pi*i/n),  k = 0 .. h.
// Inverse: the algebra runs backwards,
//   E[k] = (X[k] + conj(X[h-k])) / 2
//   O[k] = conj(w^k) * (X[k] - conj(X[h-k])) / 2
//   Z[k] = E[k] + i*O[k],  z = IDFT_h(Z),  x[2k] = Re z, x[2k+1] = Im z.
// Both passes are O(n) around one half-size complex FFT.  The pack
// gathers straight into bit-reversed order (the only permutation the
// radix-2 DIT stages need), so no separate in-place swap pass runs; the
// inverse untangle stores interleaved pairs into `out` first so that the
// same single gather feeds its butterflies.  The k = 1 .. h-1 untangles
// run through the dispatched SIMD kernels.
// ---------------------------------------------------------------------------

// x.size() must equal the (power-of-two) plan size n; writes n/2+1 bins.
void rfft_pow2_split(std::span<const double> x, std::span<Complex> out,
                     double* half_re, double* half_im, const RfftPlan& plan) {
  const std::size_t h = x.size() / 2;
  gather_pairs_bitrev(x.data(), *plan.half, half_re, half_im);
  if (h > 1) run_radix2_passes(half_re, half_im, *plan.half, /*inverse=*/false);
  out[0] = Complex(half_re[0] + half_im[0], 0.0);
  out[h] = Complex(half_re[0] - half_im[0], 0.0);
  simd::ops().rfft_untangle(half_re, half_im, plan.tw_re.data(),
                            plan.tw_im.data(), h, out.data());
}

// x.size() must equal the plan size n; writes n/2+1 bins.  The even
// non-power-of-two pack is a plain deinterleave: the packed complex
// z_k = x_2k + i*x_2k+1 already sits interleaved in x.
void rfft_split(std::span<const double> x, std::span<Complex> out, double* re,
                double* im, const RfftPlan& plan) {
  if (plan.half) {
    rfft_pow2_split(x, out, re, im, plan);
    return;
  }
  const BluesteinPlan& bp = *plan.bluestein;
  const auto& k = simd::ops();
  const bool even = x.size() % 2 == 0;
  if (even) {
    k.deinterleave(x.data(), bp.n, re, im);
  } else {
    std::copy(x.begin(), x.end(), re);
    std::fill_n(im, bp.n, 0.0);
  }
  std::fill(re + bp.n, re + bp.m, 0.0);
  std::fill(im + bp.n, im + bp.m, 0.0);
  bluestein_convolve(re, im, bp);
  if (!even) {
    k.interleave(re, im, out.size(), reinterpret_cast<double*>(out.data()));
    return;
  }
  const std::size_t h = bp.n;
  out[0] = Complex(re[0] + im[0], 0.0);
  out[h] = Complex(re[0] - im[0], 0.0);
  k.rfft_untangle(re, im, plan.tw_re.data(), plan.tw_im.data(), h, out.data());
}

// bins.size() must be n/2+1 for the (power-of-two) plan size n = out.size().
void irfft_pow2_split(std::span<const Complex> bins, std::span<double> out,
                      double* half_re, double* half_im, const RfftPlan& plan) {
  const std::size_t h = out.size() / 2;
  const auto& k = simd::ops();
  k.irfft_untangle(bins.data(), plan.tw_re.data(), plan.tw_im.data(), h,
                   out.data());
  gather_pairs_bitrev(out.data(), *plan.half, half_re, half_im);
  if (h > 1) {
    run_radix2_passes(half_re, half_im, *plan.half, /*inverse=*/true);
    scale_inverse(half_re, half_im, h);
  }
  k.interleave(half_re, half_im, h, out.data());
}

}  // namespace detail

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t correlation_fft_size(std::size_t nx) {
  return next_power_of_two(std::max<std::size_t>(nx, 2));
}

void fft_radix2(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 0) return;
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("fft_radix2: size must be a power of two");
  }
  if (n == 1) return;
  // Split the interleaved std::complex buffer into per-thread planes, run
  // the split-plane core, and reinterleave.  The copies are exact, so the
  // public API is bit-compatible with the historical in-place transform.
  const auto plan = plan_cache().radix2(n);
  const auto& k = simd::ops();
  thread_local std::vector<double> re;
  thread_local std::vector<double> im;
  if (re.size() < n) {
    re.resize(n);
    im.resize(n);
  }
  k.deinterleave(reinterpret_cast<const double*>(data.data()), n, re.data(),
                 im.data());
  detail::run_radix2_split(re.data(), im.data(), *plan, inverse);
  k.interleave(re.data(), im.data(), n,
               reinterpret_cast<double*>(data.data()));
}

std::vector<Complex> fft(std::span<const Complex> input) {
  std::vector<Complex> data(input.begin(), input.end());
  if (data.empty()) return data;
  if (is_power_of_two(data.size())) {
    fft_radix2(data);
    return data;
  }
  return bluestein(input, /*inverse=*/false);
}

std::vector<Complex> ifft(std::span<const Complex> input) {
  std::vector<Complex> data(input.begin(), input.end());
  if (data.empty()) return data;
  if (is_power_of_two(data.size())) {
    fft_radix2(data, /*inverse=*/true);
    return data;
  }
  auto out = bluestein(input, /*inverse=*/true);
  for (auto& x : out) x /= static_cast<double>(out.size());
  return out;
}

std::vector<Complex> rfft(std::span<const double> input) {
  const std::size_t n = input.size();
  std::vector<Complex> out(n / 2 + 1);
  if (n == 0) {
    out[0] = Complex(0.0, 0.0);
    return out;
  }
  const auto plan = plan_cache().rfft(n);
  thread_local std::vector<double> re;
  thread_local std::vector<double> im;
  re.resize(plan->plane_size());
  im.resize(plan->plane_size());
  detail::rfft_split(input, out, re.data(), im.data(), *plan);
  return out;
}

std::vector<double> irfft(std::span<const Complex> bins, std::size_t n) {
  if (n == 0) return {};
  if (bins.size() != n / 2 + 1) {
    throw std::invalid_argument("irfft: need floor(n/2)+1 bins");
  }
  std::vector<double> out(n);
  if (n % 2 == 0 && is_power_of_two(n)) {
    const auto plan = plan_cache().rfft(n);
    thread_local std::vector<double> half_re;
    thread_local std::vector<double> half_im;
    half_re.resize(std::max<std::size_t>(n / 2, 1));
    half_im.resize(std::max<std::size_t>(n / 2, 1));
    detail::irfft_pow2_split(bins, out, half_re.data(), half_im.data(),
                             *plan);
    return out;
  }
  if (n % 2 == 0) {
    const std::size_t h = n / 2;
    std::vector<Complex> z(h);
    for (std::size_t k = 0; k < h; ++k) {
      const Complex xc = std::conj(bins[h - k]);
      const Complex even = 0.5 * (bins[k] + xc);
      const double ang = 2.0 * kPi * static_cast<double>(k) /
                         static_cast<double>(n);
      const Complex odd =
          Complex(std::cos(ang), std::sin(ang)) * (0.5 * (bins[k] - xc));
      z[k] = even + Complex(0.0, 1.0) * odd;
    }
    const auto back = ifft(z);
    for (std::size_t k = 0; k < h; ++k) {
      out[2 * k] = back[k].real();
      out[2 * k + 1] = back[k].imag();
    }
    return out;
  }
  // Odd length: rebuild the full conjugate-symmetric spectrum.
  std::vector<Complex> full(n);
  for (std::size_t k = 0; k < bins.size(); ++k) full[k] = bins[k];
  for (std::size_t k = 1; k < bins.size(); ++k) {
    full[n - k] = std::conj(bins[k]);
  }
  const auto back = ifft(full);
  for (std::size_t i = 0; i < n; ++i) out[i] = back[i].real();
  return out;
}

std::vector<double> rfft_magnitude(std::span<const double> input) {
  const auto bins = rfft(input);
  std::vector<double> out(bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) out[i] = std::abs(bins[i]);
  return out;
}

// pack -> stages -> product -> stages -> tail over the workspace's four
// half planes.  Per element this is the arithmetic of two rfft_pow2_split
// calls, the bin-wise product and irfft_pow2_split, in the same order, so
// every output bit is theirs; what is gone is data movement: the padded
// copies (the pack reads x and reversed y in place), the stores of the
// two spectra (the product untangles both in registers), and the
// inverse's full 1/h pass and interleave (the tail reads only the n_out
// valid lags and scales each by the exact reciprocal 1/h).
void cross_correlate_valid_into(std::span<const double> x,
                                std::span<const double> y,
                                std::span<double> out,
                                CorrelationWorkspace& ws) {
  if (y.empty() || x.size() < y.size()) {
    throw std::invalid_argument(
        "cross_correlate_valid: need x.size() >= y.size() >= 1");
  }
  const std::size_t nx = x.size();
  const std::size_t ny = y.size();
  const std::size_t n_out = nx - ny + 1;
  if (out.size() != n_out) {
    throw std::invalid_argument(
        "cross_correlate_valid_into: out.size() must be "
        "x.size() - y.size() + 1");
  }
  const std::size_t m = correlation_fft_size(nx);
  const std::size_t h = m / 2;
  if (!ws.plan || ws.plan->n != m) ws.plan = plan_cache().rfft(m);
  const RfftPlan& plan = *ws.plan;
  const Radix2Plan& half = *plan.half;
  const auto& k = simd::ops();
  ws.planes.resize(2 * m);
  ws.spec.resize(h + 1);
  double* xr = ws.planes.data();
  double* xi = xr + h;
  double* yr = xi + h;
  double* yi = yr + h;
  // Pack x, and y time-reversed so the convolution computes correlation.
  gather_pack_bitrev(
      nx, [&](std::size_t j) { return x[j]; }, half, xr, xi);
  gather_pack_bitrev(
      ny, [&](std::size_t j) { return y[ny - 1 - j]; }, half, yr, yi);
  if (h > 1) {
    run_radix2_passes(xr, xi, half, /*inverse=*/false);
    run_radix2_passes(yr, yi, half, /*inverse=*/false);
  }
  k.rfft_untangle_product(xr, xi, yr, yi, plan.tw_re.data(), plan.tw_im.data(),
                          h, ws.spec.data());
  // The y planes are free now: they hold the inverse untangle's
  // interleaved pairs, which the gather feeds back into the x planes.
  k.irfft_untangle(ws.spec.data(), plan.tw_re.data(), plan.tw_im.data(), h,
                   yr);
  gather_pairs_bitrev(yr, half, xr, xi);
  if (h > 1) run_radix2_passes(xr, xi, half, /*inverse=*/true);
  // Lag k is sample k + ny - 1 of the interleaved (xr, xi) pairs, times
  // the exact 1/h (h = 1 skipped the passes and their scale: x * 1 = x).
  const double s = 1.0 / static_cast<double>(h);
  std::size_t idx = ny - 1;
  std::size_t lag = 0;
  if (idx % 2 == 1) {
    out[lag++] = xi[idx / 2] * s;
    ++idx;
  }
  for (; lag + 1 < n_out; lag += 2, idx += 2) {
    out[lag] = xr[idx / 2] * s;
    out[lag + 1] = xi[idx / 2] * s;
  }
  if (lag < n_out) out[lag] = xr[idx / 2] * s;
}

void CorrelationWorkspace::reserve(std::size_t nx) {
  const std::size_t m = correlation_fft_size(nx);
  planes.reserve(2 * m);
  spec.reserve(m / 2 + 1);
  if (!plan || plan->n != m) plan = plan_cache().rfft(m);
}

}  // namespace nsync::dsp
