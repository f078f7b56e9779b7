#include "signal/signal.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace nsync::signal {

SignalView::SignalView(const Signal& s)
    : data_(s.data()),
      frames_(s.frames()),
      channels_(s.channels()),
      sample_rate_(s.sample_rate()) {}

SignalView SignalView::slice(std::size_t n1, std::size_t n2) const {
  if (n1 > n2 || n2 > frames_) {
    throw std::out_of_range("SignalView::slice: [" + std::to_string(n1) +
                            ", " + std::to_string(n2) + ") out of " +
                            std::to_string(frames_) + " frames");
  }
  return SignalView(data_ + n1 * channels_, n2 - n1, channels_, sample_rate_);
}

SignalView SignalView::clamped_slice(std::ptrdiff_t n1,
                                     std::ptrdiff_t n2) const {
  const auto lo = std::clamp<std::ptrdiff_t>(n1, 0,
                                             static_cast<std::ptrdiff_t>(frames_));
  const auto hi = std::clamp<std::ptrdiff_t>(n2, lo,
                                             static_cast<std::ptrdiff_t>(frames_));
  return SignalView(data_ + static_cast<std::size_t>(lo) * channels_,
                    static_cast<std::size_t>(hi - lo), channels_,
                    sample_rate_);
}

std::vector<double> SignalView::channel(std::size_t c) const {
  check_channel(c);
  std::vector<double> out(frames_);
  for (std::size_t n = 0; n < frames_; ++n) {
    out[n] = data_[n * channels_ + c];
  }
  return out;
}

void SignalView::channel_into(std::size_t c, std::span<double> out) const {
  check_channel(c);
  if (out.size() != frames_) {
    throw std::invalid_argument(
        "SignalView::channel_into: out.size() must equal frames()");
  }
  for (std::size_t n = 0; n < frames_; ++n) {
    out[n] = data_[n * channels_ + c];
  }
}

Signal SignalView::to_signal() const {
  Signal out(frames_, channels_, sample_rate_);
  if (frames_ > 0 && channels_ > 0) {
    std::memcpy(out.data(), data_, frames_ * channels_ * sizeof(double));
  }
  return out;
}

Signal::Signal(std::size_t frames, std::size_t channels, double sample_rate)
    : data_(frames * channels, 0.0),
      frames_(frames),
      channels_(channels),
      sample_rate_(sample_rate) {
  if (channels == 0) {
    throw std::invalid_argument("Signal: channel count must be positive");
  }
  if (sample_rate <= 0.0) {
    throw std::invalid_argument("Signal: sample rate must be positive");
  }
}

Signal Signal::empty(std::size_t channels, double sample_rate) {
  return Signal(0, channels, sample_rate);
}

Signal Signal::from_frames(std::vector<double> data, std::size_t channels,
                           double sample_rate) {
  if (channels == 0 || data.size() % channels != 0) {
    throw std::invalid_argument(
        "Signal::from_frames: data is not whole frames of a positive "
        "channel count");
  }
  if (sample_rate <= 0.0) {
    throw std::invalid_argument("Signal: sample rate must be positive");
  }
  Signal s;
  s.frames_ = data.size() / channels;
  s.channels_ = channels;
  s.sample_rate_ = sample_rate;
  s.data_ = std::move(data);
  return s;
}

std::span<double> Signal::frame(std::size_t n) {
  if (n >= frames_) {
    throw std::out_of_range("Signal::frame: index out of range");
  }
  return {data_.data() + n * channels_, channels_};
}

void Signal::append_frame(std::span<const double> values) {
  if (channels_ == 0) {
    channels_ = values.size();
  }
  if (values.size() != channels_) {
    throw std::invalid_argument("Signal::append_frame: channel mismatch");
  }
  grow_for(1);
  data_.insert(data_.end(), values.begin(), values.end());
  ++frames_;
}

}  // namespace nsync::signal
