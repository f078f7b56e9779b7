#include "dsp/xcorr.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/simd/simd.hpp"
#include "signal/stats.hpp"

namespace nsync::dsp {

namespace {

namespace simd = nsync::dsp::simd;

void check_sizes(std::span<const double> x, std::span<const double> y,
                 const char* who) {
  if (y.size() < 2 || x.size() < y.size()) {
    throw std::invalid_argument(std::string(who) +
                                ": need x.size() >= y.size() >= 2");
  }
}

}  // namespace

std::vector<double> sliding_pearson_naive(std::span<const double> x,
                                          std::span<const double> y) {
  check_sizes(x, y, "sliding_pearson_naive");
  std::vector<double> out(x.size() - y.size() + 1);
  sliding_pearson_naive_into(x, y, out);
  return out;
}

void sliding_pearson_naive_into(std::span<const double> x,
                                std::span<const double> y,
                                std::span<double> out) {
  check_sizes(x, y, "sliding_pearson_naive_into");
  const std::size_t n_out = x.size() - y.size() + 1;
  if (out.size() != n_out) {
    throw std::invalid_argument(
        "sliding_pearson_naive_into: out.size() must be "
        "x.size() - y.size() + 1");
  }
  for (std::size_t n = 0; n < n_out; ++n) {
    out[n] = nsync::signal::pearson(x.subspan(n, y.size()), y);
  }
}

std::vector<double> sliding_pearson_fft(std::span<const double> x,
                                        std::span<const double> y) {
  check_sizes(x, y, "sliding_pearson_fft");
  // Per-thread workspace so the allocating wrapper still reuses scratch
  // across calls (and stays bitwise identical to the _into path).
  thread_local SlidingPearsonWorkspace ws;
  std::vector<double> out(x.size() - y.size() + 1);
  sliding_pearson_fft_into(x, y, out, ws);
  return out;
}

void SlidingPearsonWorkspace::reserve(std::size_t nx, std::size_t ny) {
  yc.reserve(ny);
  xc.reserve(nx);
  num.reserve(nx - ny + 1);
  ps.reserve(nx + 1);
  ps2.reserve(nx + 1);
  corr.reserve(nx);
}

void sliding_pearson_fft_into(std::span<const double> x,
                              std::span<const double> y,
                              std::span<double> out,
                              SlidingPearsonWorkspace& ws) {
  check_sizes(x, y, "sliding_pearson_fft_into");
  const std::size_t ny = y.size();
  const std::size_t n_out = x.size() - ny + 1;
  if (out.size() != n_out) {
    throw std::invalid_argument(
        "sliding_pearson_fft_into: out.size() must be "
        "x.size() - y.size() + 1");
  }

  const auto& k = simd::ops();

  // Center y; after centering, sum((x_w - mu_w) .* yc) == sum(x_w .* yc)
  // because sum(yc) == 0, so no windowed-mean correction is needed in the
  // numerator.  Centering and the template energy run fused through the
  // dispatched kernel.
  const double mu_y = nsync::signal::mean(y);
  ws.yc.resize(ny);
  const double y_energy =
      k.subtract_scalar_energy(y.data(), mu_y, ws.yc.data(), ny);
  const double y_norm = std::sqrt(y_energy);

  // !(y_norm > 0) catches both the constant template and a template
  // containing non-finite samples (y_energy = NaN): score 0 everywhere.
  if (!(y_norm > 0.0) || !std::isfinite(y_norm)) {
    for (auto& v : out) v = 0.0;
    return;
  }

  // Center x globally as well: Pearson is offset-invariant, and removing
  // the DC keeps the FFT numerator and the prefix-sum variance free of
  // catastrophic cancellation when the data rides on a large offset.
  const double mu_x = nsync::signal::mean(x);
  ws.xc.resize(x.size());
  k.subtract_scalar(x.data(), mu_x, ws.xc.data(), x.size());

  ws.num.resize(n_out);
  cross_correlate_valid_into(ws.xc, ws.yc, ws.num, ws.corr);

  // Prefix sums for windowed sum and sum of squares of centered x.
  ws.ps.resize(ws.xc.size() + 1);
  ws.ps2.resize(ws.xc.size() + 1);
  k.prefix_sums(ws.xc.data(), ws.ps.data(), ws.ps2.data(), ws.xc.size());
  k.normalize_windows(ws.ps.data(), ws.ps2.data(), ny, y_norm, ws.num.data(),
                      out.data(), n_out);
}

}  // namespace nsync::dsp
