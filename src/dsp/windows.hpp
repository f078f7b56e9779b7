// Window functions for STFT (Table III uses Blackman-Harris and Boxcar)
// and the Gaussian bias window of TDEB (Fig. 5).
#ifndef NSYNC_DSP_WINDOWS_HPP
#define NSYNC_DSP_WINDOWS_HPP

#include <cstddef>
#include <memory>
#include <vector>

namespace nsync::dsp {

/// Window families supported by the spectrogram pipeline.
enum class WindowType {
  kBoxcar,          ///< rectangular (all ones)
  kHann,            ///< raised cosine
  kBlackmanHarris,  ///< 4-term Blackman-Harris (paper's "BH")
  kGaussian,        ///< Gaussian; sigma defaults to N/6
};

/// Returns an N-point window of the requested type.
[[nodiscard]] std::vector<double> make_window(WindowType type, std::size_t n);

/// Cached variant of make_window: coefficients for a given (type, n) are
/// computed once per process and shared.  Thread-safe; the returned
/// vector is immutable.  The STFT uses this so repeated spectrograms of
/// same-rate signals stop recomputing their window on every call.
[[nodiscard]] std::shared_ptr<const std::vector<double>> cached_window(
    WindowType type, std::size_t n);

/// N-point Gaussian window centered at (n-1)/2 with the given standard
/// deviation in samples.  This is the TDEB bias window: multiplying the
/// similarity array by it raises scores near the center (Fig. 5).
[[nodiscard]] std::vector<double> gaussian_window(std::size_t n, double sigma);

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_WINDOWS_HPP
