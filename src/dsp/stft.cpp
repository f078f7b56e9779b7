#include "dsp/stft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/fft_internal.hpp"
#include "dsp/simd/simd.hpp"

namespace nsync::dsp {

using nsync::signal::Signal;
using nsync::signal::SignalView;

std::size_t stft_window_samples(const StftConfig& cfg, double fs) {
  if (cfg.delta_f <= 0.0 || fs <= 0.0) {
    throw std::invalid_argument("stft: delta_f and fs must be positive");
  }
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(fs / cfg.delta_f)));
}

std::size_t stft_hop_samples(const StftConfig& cfg, double fs) {
  if (cfg.delta_t <= 0.0 || fs <= 0.0) {
    throw std::invalid_argument("stft: delta_t and fs must be positive");
  }
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(fs * cfg.delta_t)));
}

namespace detail {

bool stft_uses_dft(std::size_t n_win) {
  return n_win <= kStftDftMaxWindow && !is_power_of_two(n_win);
}

StftColumn::StftColumn(const StftConfig& cfg, std::size_t n_win,
                       std::size_t channels)
    : channels_(channels),
      log_magnitude_(cfg.log_magnitude),
      plan_(stft_uses_dft(n_win) ? nullptr : get_rfft_plan(n_win)),
      window_(cached_window(cfg.window, n_win)),
      frame_(n_win),
      re_(plan_ ? plan_->plane_size() : 0),
      im_(re_.size()),
      bins_(plan_ ? n_win / 2 + 1 : 0) {
  if (plan_) return;
  // Entry (j, k) is the twiddle of residue jk mod n, so the table needs
  // one cos and one sin per residue and every entry of a residue is the
  // same double.
  const std::size_t n_bins = n_win / 2 + 1;
  std::vector<double> c(n_win);
  std::vector<double> s(n_win);
  for (std::size_t r = 0; r < n_win; ++r) {
    const double ang = 2.0 * std::numbers::pi * static_cast<double>(r) /
                       static_cast<double>(n_win);
    c[r] = std::cos(ang);
    s[r] = -std::sin(ang);
  }
  cos_.resize(n_win * n_bins);
  sin_.resize(n_win * n_bins);
  for (std::size_t j = 0; j < n_win; ++j) {
    for (std::size_t k = 0; k < n_bins; ++k) {
      cos_[j * n_bins + k] = c[(j * k) % n_win];
      sin_[j * n_bins + k] = s[(j * k) % n_win];
    }
  }
}

void StftColumn::compute(const double* block, double* row) {
  const std::size_t n_win = frame_.size();
  const std::size_t n_bins = n_win / 2 + 1;
  const double* window = window_->data();
  for (std::size_t c = 0; c < channels_; ++c) {
    for (std::size_t i = 0; i < n_win; ++i) {
      frame_[i] = block[i * channels_ + c] * window[i];
    }
    double* out = row + c * n_bins;
    if (plan_) {
      rfft_split(frame_, bins_, re_.data(), im_.data(), *plan_);
      for (std::size_t k = 0; k < n_bins; ++k) {
        const double re = bins_[k].real();
        const double im = bins_[k].imag();
        out[k] = std::sqrt(re * re + im * im);
      }
    } else {
      simd::ops().real_dft_magnitude(frame_.data(), n_win, cos_.data(),
                                     sin_.data(), n_bins, out);
    }
    if (log_magnitude_) {
      for (std::size_t k = 0; k < n_bins; ++k) out[k] = std::log1p(out[k]);
    }
  }
}

}  // namespace detail

Signal spectrogram(const SignalView& s, const StftConfig& cfg) {
  const std::size_t n_win = stft_window_samples(cfg, s.sample_rate());
  const std::size_t n_hop = stft_hop_samples(cfg, s.sample_rate());
  if (s.frames() < n_win) {
    throw std::invalid_argument(
        "spectrogram: signal shorter than one analysis window");
  }
  const std::size_t columns = (s.frames() - n_win) / n_hop + 1;
  const std::size_t C = s.channels();
  Signal out(columns, (n_win / 2 + 1) * C, 1.0 / cfg.delta_t);
  detail::StftColumn column(cfg, n_win, C);
  for (std::size_t col = 0; col < columns; ++col) {
    column.compute(s.data() + col * n_hop * C, out.frame(col).data());
  }
  return out;
}

}  // namespace nsync::dsp
