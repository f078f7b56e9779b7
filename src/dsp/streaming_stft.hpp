// Streaming STFT: incremental spectrogram computation for real-time use.
//
// The offline dsp::spectrogram() needs the whole signal; a live IDS gets
// samples chunk by chunk from the DAQ.  StreamingStft buffers raw frames
// and emits finished spectrogram columns as soon as their analysis window
// is complete, producing byte-identical output to the offline pipeline —
// which lets RealtimeMonitor run on spectrograms in real time.
//
// Memory stays bounded over a stream of any length: the input buffer
// keeps only the frames a future column reads, and the output holds only
// the columns of the last push(), in one buffer every push reuses.
#ifndef NSYNC_DSP_STREAMING_STFT_HPP
#define NSYNC_DSP_STREAMING_STFT_HPP

#include <cstddef>
#include <vector>

#include "dsp/stft.hpp"
#include "signal/ring_buffer.hpp"
#include "signal/signal.hpp"

namespace nsync::dsp {

class StreamingStft {
 public:
  /// `input_rate` is the raw signal's sampling rate; `input_channels` its
  /// channel count.  Throws for configs that resolve to degenerate
  /// windows.
  StreamingStft(const StftConfig& config, double input_rate,
                std::size_t input_channels);

  /// Appends raw frames and computes every spectrogram column that became
  /// complete.  Returns the number of new columns, which emitted() holds
  /// until the next push().
  std::size_t push(const nsync::signal::SignalView& frames);

  /// The columns the last push() emitted, as a spectrogram signal (same
  /// layout as dsp::spectrogram: output channel c * bins + k = bin k of
  /// channel c).  The next push() overwrites the storage behind it.
  [[nodiscard]] nsync::signal::SignalView emitted() const {
    return {emitted_.data(), emitted_.size() / row_width_, row_width_,
            column_rate_};
  }

  /// Columns emitted since construction.
  [[nodiscard]] std::size_t columns() const { return columns_; }
  [[nodiscard]] std::size_t window_samples() const { return n_win_; }
  [[nodiscard]] std::size_t hop_samples() const { return n_hop_; }

 private:
  bool emit_next_column();

  std::size_t channels_;
  std::size_t n_win_;
  std::size_t n_hop_;
  std::size_t row_width_;  // channels_ * bins: doubles per column
  double column_rate_;     // columns per second (1 / delta_t)
  // Raw frames before next_start_ belong to already-emitted columns and
  // are dropped, so buffering stays O(n_win + chunk) over a long stream.
  nsync::signal::FrameRingBuffer input_buffer_;
  std::size_t next_start_ = 0;  // raw index of the next column's window
  std::size_t columns_ = 0;
  // The offline spectrogram's column routine, with all scratch owned
  // here, so a steady-state column emit allocates nothing.
  detail::StftColumn column_;
  std::vector<double> emitted_;  ///< the last push's columns, row-major
};

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_STREAMING_STFT_HPP
