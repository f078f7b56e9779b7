#include "dsp/stft.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft_internal.hpp"

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

StftColumn::StftColumn(const StftConfig& cfg, std::size_t n_win,
                       std::size_t channels)
    : channels_(channels),
      log_magnitude_(cfg.log_magnitude),
      plan_(get_rfft_plan(n_win)),
      window_(cached_window(cfg.window, n_win)),
      frame_(n_win),
      re_(plan_->plane_size()),
      im_(plan_->plane_size()),
      bins_(n_win / 2 + 1) {}

void StftColumn::compute(const double* block, double* row) {
  const std::size_t n_win = frame_.size();
  const std::size_t n_bins = bins_.size();
  const double* window = window_->data();
  for (std::size_t c = 0; c < channels_; ++c) {
    for (std::size_t i = 0; i < n_win; ++i) {
      frame_[i] = block[i * channels_ + c] * window[i];
    }
    rfft_split(frame_, bins_, re_.data(), im_.data(), *plan_);
    double* out = row + c * n_bins;
    for (std::size_t k = 0; k < n_bins; ++k) {
      const double m = std::abs(bins_[k]);
      out[k] = log_magnitude_ ? std::log1p(m) : m;
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
