#include "signal/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/simd/simd.hpp"

namespace nsync::signal {

namespace simd = nsync::dsp::simd;

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  return simd::ops().sum(v.data(), v.size()) / static_cast<double>(v.size());
}

double max_value(std::span<const double> v) {
  if (v.empty()) throw std::invalid_argument("max_value: empty input");
  return *std::max_element(v.begin(), v.end());
}

double pearson(std::span<const double> u, std::span<const double> v) {
  if (u.size() != v.size()) {
    throw std::invalid_argument("pearson: length mismatch");
  }
  if (u.empty()) return 0.0;
  const double mu = mean(u);
  const double mv = mean(v);
  double num = 0.0, du2 = 0.0, dv2 = 0.0;
  simd::ops().pearson_accumulate(u.data(), v.data(), mu, mv, u.size(), &num,
                                 &du2, &dv2);
  // Degenerate guard shared with the sliding-correlation window
  // normalization (simd::degenerate_variance).  The scale argument is the
  // centered energy itself — the accumulation runs over centered samples,
  // exactly like the sliding path's prefix sums over the globally
  // centered signal — so the guard stays offset-invariant (a large DC
  // must not widen the threshold; Pearson is offset-invariant).  The
  // !(.. > ..) form routes NaN from non-finite inputs into the
  // degenerate branch instead of past it.
  if (simd::degenerate_variance(du2, du2) ||
      simd::degenerate_variance(dv2, dv2) || !std::isfinite(num)) {
    return 0.0;
  }
  return num / (std::sqrt(du2) * std::sqrt(dv2));
}

bool finite_window(const SignalView& s) {
  // Branch-free so it vectorizes: x * 0.0 is +-0 for finite x and NaN for
  // NaN or +-Inf, and a NaN survives every later addition.  Four
  // independent lanes keep the adds from serializing on one register.
  const double* p = s.data();
  const std::size_t n = s.frames() * s.channels();
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] += p[i] * 0.0;
    lane[1] += p[i + 1] * 0.0;
    lane[2] += p[i + 2] * 0.0;
    lane[3] += p[i + 3] * 0.0;
  }
  for (; i < n; ++i) lane[0] += p[i] * 0.0;
  return (lane[0] + lane[1]) + (lane[2] + lane[3]) == 0.0;
}

bool degenerate_window(const SignalView& s) {
  if (s.frames() < 2) return true;
  if (!finite_window(s)) return true;  // one NaN poisons every channel's FFT
  for (std::size_t c = 0; c < s.channels(); ++c) {
    const double first = s(0, c);
    for (std::size_t n = 1; n < s.frames(); ++n) {
      if (s(n, c) != first) return false;  // this channel carries information
    }
  }
  return true;  // every channel constant
}

std::vector<double> channel_means(const SignalView& s) {
  std::vector<double> out(s.channels(), 0.0);
  if (s.frames() == 0) return out;
  simd::ops().channel_sums(s.data(), s.frames(), s.channels(), out.data());
  for (auto& x : out) x /= static_cast<double>(s.frames());
  return out;
}

}  // namespace nsync::signal
