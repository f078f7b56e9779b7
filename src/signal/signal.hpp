// Multichannel sampled-signal container and non-owning views.
//
// Implements the signal notation of Section V-A of the paper:
//   x[n]      -- the n-th frame (a vector of C channel values)
//   x[n, c]   -- the n-th sample of channel c
//   x[n1:n2]  -- a slice from n1 (inclusive) to n2 (exclusive)
//   x[:, c]   -- all samples of channel c
#ifndef NSYNC_SIGNAL_SIGNAL_HPP
#define NSYNC_SIGNAL_SIGNAL_HPP

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace nsync::signal {

class Signal;

/// Non-owning, read-only view over a contiguous run of frames of a Signal.
///
/// The view assumes row-major layout: frame n, channel c lives at
/// data()[n * channels() + c].  A SignalView is cheap to copy and is the
/// preferred parameter type for all analysis functions.
class SignalView {
 public:
  SignalView() = default;

  /// Wraps raw storage. `data` must contain `frames * channels` doubles.
  SignalView(const double* data, std::size_t frames, std::size_t channels,
             double sample_rate)
      : data_(data),
        frames_(frames),
        channels_(channels),
        sample_rate_(sample_rate) {}

  /// Implicit conversion from an owning Signal (defined out of line).
  SignalView(const Signal& s);  // NOLINT(google-explicit-constructor)

  /// Number of frames (samples per channel), N in the paper.
  [[nodiscard]] std::size_t frames() const { return frames_; }
  /// Number of channels, C in the paper.
  [[nodiscard]] std::size_t channels() const { return channels_; }
  /// Sampling frequency f_s in Hz.
  [[nodiscard]] double sample_rate() const { return sample_rate_; }
  /// Duration in seconds (frames / f_s).
  [[nodiscard]] double duration() const {
    return sample_rate_ > 0.0 ? static_cast<double>(frames_) / sample_rate_
                              : 0.0;
  }
  [[nodiscard]] bool empty() const { return frames_ == 0; }
  [[nodiscard]] const double* data() const { return data_; }

  /// x[n, c] with bounds checking.
  [[nodiscard]] double at(std::size_t frame, std::size_t channel) const {
    check_frame(frame);
    check_channel(channel);
    return data_[frame * channels_ + channel];
  }

  /// x[n, c] without bounds checking.
  double operator()(std::size_t frame, std::size_t channel) const {
    return data_[frame * channels_ + channel];
  }

  /// The n-th frame as a span of `channels()` values.
  [[nodiscard]] std::span<const double> frame(std::size_t n) const {
    check_frame(n);
    return {data_ + n * channels_, channels_};
  }

  /// x[n1:n2] — sub-view over frames [n1, n2).  Throws on out-of-range.
  [[nodiscard]] SignalView slice(std::size_t n1, std::size_t n2) const;

  /// x[n1:n2] where the requested range is clamped into [0, frames()].
  /// Never throws; the result may be empty.
  [[nodiscard]] SignalView clamped_slice(std::ptrdiff_t n1,
                                         std::ptrdiff_t n2) const;

  /// Copies channel c out into a contiguous vector (x[:, c]).
  [[nodiscard]] std::vector<double> channel(std::size_t c) const;

  /// Copies channel c into `out`, which must have exactly frames()
  /// elements.  Allocation-free alternative to channel() for hot paths.
  void channel_into(std::size_t c, std::span<double> out) const;

  /// Deep copy into an owning Signal.
  [[nodiscard]] Signal to_signal() const;

 private:
  void check_frame(std::size_t n) const {
    if (n >= frames_) {
      throw std::out_of_range("SignalView: frame " + std::to_string(n) +
                              " >= " + std::to_string(frames_));
    }
  }
  void check_channel(std::size_t c) const {
    if (c >= channels_) {
      throw std::out_of_range("SignalView: channel " + std::to_string(c) +
                              " >= " + std::to_string(channels_));
    }
  }

  const double* data_ = nullptr;
  std::size_t frames_ = 0;
  std::size_t channels_ = 0;
  double sample_rate_ = 0.0;
};

/// Owning multichannel signal with row-major storage.
///
/// Frames can be appended incrementally, which supports the streaming
/// (real-time) use of DWM where the observed signal grows while the
/// printing process runs.
class Signal {
 public:
  Signal() = default;

  /// Creates a zero-filled signal with `frames` frames of `channels`
  /// channels sampled at `sample_rate` Hz.
  Signal(std::size_t frames, std::size_t channels, double sample_rate);

  /// Creates an empty (zero-frame) signal with a fixed channel count.
  static Signal empty(std::size_t channels, double sample_rate);

  /// Takes ownership of row-major frames x channels data (no copy).
  /// Throws when `channels` is 0, `data.size()` is not a multiple of it,
  /// or the rate is not positive.
  static Signal from_frames(std::vector<double> data, std::size_t channels,
                            double sample_rate);

  [[nodiscard]] std::size_t frames() const { return frames_; }
  [[nodiscard]] std::size_t channels() const { return channels_; }
  [[nodiscard]] double sample_rate() const { return sample_rate_; }
  [[nodiscard]] double duration() const {
    return sample_rate_ > 0.0 ? static_cast<double>(frames_) / sample_rate_
                              : 0.0;
  }
  [[nodiscard]] bool empty() const { return frames_ == 0; }

  [[nodiscard]] const double* data() const { return data_.data(); }
  [[nodiscard]] double* data() { return data_.data(); }

  /// x[n, c] without bounds checking.
  double& operator()(std::size_t frame, std::size_t channel) {
    return data_[frame * channels_ + channel];
  }
  double operator()(std::size_t frame, std::size_t channel) const {
    return data_[frame * channels_ + channel];
  }

  /// The n-th frame as a mutable span.
  [[nodiscard]] std::span<double> frame(std::size_t n);

  /// Appends one frame; `values.size()` must equal channels().  Storage
  /// grows geometrically (see reserve_frames), so appending N frames one
  /// at a time costs O(N) total copies.
  void append_frame(std::span<const double> values);

  /// x[n1:n2] as a non-owning view.
  [[nodiscard]] SignalView slice(std::size_t n1, std::size_t n2) const {
    return view().slice(n1, n2);
  }

  /// Whole-signal view.
  [[nodiscard]] SignalView view() const {
    return SignalView(data_.data(), frames_, channels_, sample_rate_);
  }

  /// Copies channel c (x[:, c]) into a vector.
  [[nodiscard]] std::vector<double> channel(std::size_t c) const {
    return view().channel(c);
  }

  /// Replaces the sampling rate tag (e.g. after decimation).
  void set_sample_rate(double fs) { sample_rate_ = fs; }

  /// Reserves storage for at least `frames` total frames (streaming
  /// ergonomics).  Append-heavy producers (sensor rendering, streaming
  /// STFT, eval runners) should call this up front to avoid repeated
  /// reallocation; without it, appends still grow the buffer
  /// geometrically (never per-frame).
  void reserve_frames(std::size_t frames) { data_.reserve(frames * channels_); }

  /// Backwards-compatible alias for reserve_frames().
  void reserve(std::size_t frames) { reserve_frames(frames); }

  /// Frames that fit in the current allocation.
  [[nodiscard]] std::size_t capacity_frames() const {
    return channels_ == 0 ? 0 : data_.capacity() / channels_;
  }

 private:
  /// Guarantees room for `extra` more frames, growing geometrically
  /// (doubling) so a long run of appends costs amortized O(1) per frame.
  void grow_for(std::size_t extra) {
    const std::size_t need = data_.size() + extra * channels_;
    if (need > data_.capacity()) {
      data_.reserve(std::max(need, data_.capacity() * 2));
    }
  }

  std::vector<double> data_;  // row-major, frames_ x channels_
  std::size_t frames_ = 0;
  std::size_t channels_ = 0;
  double sample_rate_ = 0.0;
};

}  // namespace nsync::signal

#endif  // NSYNC_SIGNAL_SIGNAL_HPP
