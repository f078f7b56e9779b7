// Streaming STFT: incremental spectrogram computation for real-time use.
//
// The offline dsp::spectrogram() needs the whole signal; a live IDS gets
// samples chunk by chunk from the DAQ.  StreamingStft buffers raw frames
// and emits finished spectrogram columns as soon as their analysis window
// is complete, producing byte-identical output to the offline pipeline —
// which lets RealtimeMonitor run on spectrograms in real time.
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

  /// Appends raw frames; computes and internally appends every spectrogram
  /// column that became complete.  Returns the number of new columns.
  std::size_t push(const nsync::signal::SignalView& frames);

  /// All columns emitted so far, as a spectrogram signal (same layout as
  /// dsp::spectrogram: output channel c * bins + k = bin k of channel c).
  [[nodiscard]] const nsync::signal::Signal& spectrogram() const {
    return output_;
  }

  [[nodiscard]] std::size_t columns() const { return output_.frames(); }
  [[nodiscard]] std::size_t window_samples() const { return n_win_; }
  [[nodiscard]] std::size_t hop_samples() const { return n_hop_; }

 private:
  bool emit_next_column();

  std::size_t channels_;
  std::size_t n_win_;
  std::size_t n_hop_;
  std::size_t bins_;
  // Raw frames before next_start_ belong to already-emitted columns and
  // are dropped, so buffering stays O(n_win + chunk) over a long stream.
  nsync::signal::FrameRingBuffer input_buffer_;
  nsync::signal::Signal output_;
  std::size_t next_start_ = 0;  // raw index of the next column's window
  // The offline spectrogram's column routine, with all scratch owned
  // here, so a steady-state column emit allocates nothing.
  detail::StftColumn column_;
  std::vector<double> row_;  ///< assembled output column
};

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_STREAMING_STFT_HPP
