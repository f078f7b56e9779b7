#include "dsp/streaming_stft.hpp"

#include <stdexcept>

namespace nsync::dsp {

using nsync::signal::SignalView;

StreamingStft::StreamingStft(const StftConfig& config, double input_rate,
                             std::size_t input_channels)
    : channels_(input_channels),
      n_win_(stft_window_samples(config, input_rate)),
      n_hop_(stft_hop_samples(config, input_rate)),
      row_width_(input_channels * (n_win_ / 2 + 1)),
      column_rate_(1.0 / config.delta_t),
      input_buffer_(input_channels, input_rate),
      column_(config, n_win_, input_channels) {
  if (input_channels == 0) {
    throw std::invalid_argument("StreamingStft: need at least one channel");
  }
}

std::size_t StreamingStft::push(const SignalView& frames) {
  if (frames.channels() != channels_) {
    throw std::invalid_argument("StreamingStft::push: channel mismatch");
  }
  input_buffer_.drop_before(next_start_);
  input_buffer_.append(frames);
  emitted_.clear();
  std::size_t emitted = 0;
  while (emit_next_column()) ++emitted;
  columns_ += emitted;
  return emitted;
}

bool StreamingStft::emit_next_column() {
  if (next_start_ + n_win_ > input_buffer_.end()) return false;
  const auto win = input_buffer_.view(next_start_, next_start_ + n_win_);
  // The same column routine as the offline spectrogram(), so columns are
  // byte-identical to it.
  const std::size_t at = emitted_.size();
  emitted_.resize(at + row_width_);
  column_.compute(win.data(), emitted_.data() + at);
  next_start_ += n_hop_;
  return true;
}

}  // namespace nsync::dsp
