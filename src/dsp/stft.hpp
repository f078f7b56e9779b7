// Short-Time Fourier Transform and spectrogram generation.
//
// Table III of the paper derives a spectrogram from each side-channel
// signal; the spectrogram is treated as a new multichannel signal whose
// sampling rate is 1/dt and whose channel count is (bins x input channels).
#ifndef NSYNC_DSP_STFT_HPP
#define NSYNC_DSP_STFT_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/windows.hpp"
#include "signal/signal.hpp"

namespace nsync::dsp {

/// Configuration of the STFT, mirroring Table III.
struct StftConfig {
  /// Spectral resolution in Hz; the analysis window spans 1/delta_f seconds.
  double delta_f = 20.0;
  /// Temporal resolution in seconds; the window advances delta_t per column.
  double delta_t = 1.0 / 80.0;
  /// Analysis window shape ("BH" in the paper is Blackman-Harris).
  WindowType window = WindowType::kBlackmanHarris;
  /// When true, magnitudes are mapped through log1p, which compresses the
  /// dynamic range (off by default; the paper stores 16-bit magnitudes).
  bool log_magnitude = false;
};

/// Window length in samples: round(fs / delta_f).
[[nodiscard]] std::size_t stft_window_samples(const StftConfig& cfg, double fs);

/// Hop length in samples: round(fs * delta_t), at least 1.
[[nodiscard]] std::size_t stft_hop_samples(const StftConfig& cfg, double fs);

/// Computes the magnitude spectrogram of a multichannel signal.
///
/// The output signal has sample rate 1/delta_t and `bins * s.channels()`
/// channels, bins = stft_window_samples(...) / 2 + 1, laid out bin-major
/// per input channel: output channel (c * bins + k) holds bin k of input
/// channel c.
/// Throws std::invalid_argument when the signal is shorter than one window.
[[nodiscard]] nsync::signal::Signal spectrogram(
    const nsync::signal::SignalView& s, const StftConfig& cfg);

namespace detail {

/// Largest window the spectrogram column computes as a direct real DFT
/// instead of through the cached rfft plan.  Power-of-two windows always
/// take the plan.  Up to this size the n * (n/2+1) products of the direct
/// sum cost 1.8-6x less under AVX2 than a non-power-of-two window's
/// Bluestein route (a chirp-z transform around two radix-2 convolution
/// FFTs), and the two meet near 96; the scalar backend loses up to 1.6x
/// on even n from 48 to 62.  bench_micro's BM_SpectrogramColumn rows
/// measure it.  The Table III windows at the evaluation rates (20 and 33
/// samples) are below it; the paper-rate windows (200 to 800) are not.
inline constexpr std::size_t kStftDftMaxWindow = 64;

/// True when StftColumn computes an n_win window by direct DFT.
[[nodiscard]] bool stft_uses_dft(std::size_t n_win);

/// The spectrogram column routine shared by spectrogram() and
/// StreamingStft: windows each channel of an n_win-frame interleaved block,
/// transforms it and writes its bin magnitudes sqrt(re^2 + im^2) (log1p'd
/// when configured).  Windows that stft_uses_dft() accepts are summed as a
/// direct real DFT over a [j][k] cos/sin table
/// (simd::Ops::real_dft_magnitude, each bin in j order); the others run
/// the cached single-lane rfft.  Owns the table or plan, the window and
/// every scratch buffer, so compute() allocates nothing.
class StftColumn {
 public:
  StftColumn(const StftConfig& cfg, std::size_t n_win, std::size_t channels);

  /// `block` holds n_win frames of `channels` interleaved samples; writes
  /// channels * bins values to `row`, bin k of channel c at c * bins + k.
  void compute(const double* block, double* row);

 private:
  std::size_t channels_;
  bool log_magnitude_;
  std::shared_ptr<const RfftPlan> plan_;  ///< null on the DFT route
  std::shared_ptr<const std::vector<double>> window_;
  /// DFT route: cos(2 pi jk/n) and -sin(2 pi jk/n) at [j * bins + k].
  std::vector<double> cos_;
  std::vector<double> sin_;
  std::vector<double> frame_;  ///< one windowed channel
  std::vector<double> re_;     ///< split FFT planes (rfft route)
  std::vector<double> im_;
  std::vector<Complex> bins_;  ///< rfft route
};

}  // namespace detail

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_STFT_HPP
