// Batched forward real FFT: all channels through one plan.
//
// A BatchedRfftPlan transforms `lanes` equal-length real signals at once
// by storing them lane-interleaved — element k of lane l lives at
// [k * lanes + l] — so every butterfly, chirp multiply, and untangle step
// is a contiguous vector operation across lanes instead of a strided
// walk.  The per-lane arithmetic is the exact operation sequence of the
// single-signal rfft() path in fft.cpp (same cached twiddle and Bluestein
// plans, same formulas), so batched spectra are bitwise equal, lane for
// lane, to running rfft() on each channel separately — under every SIMD
// backend.
//
// Its users are the multi-channel spectrogram columns (stft.cpp /
// streaming_stft.cpp), whose frame lengths are often not powers of two.
// The TDE correlation does not use it: that path runs every channel
// through the single-lane rfft/irfft (core/tde.cpp), which is faster per
// lane at the power-of-two correlation sizes on AVX2 hosts.
//
// Forward transforms support every length (power-of-two half-trick, even
// Bluestein, odd Bluestein); there is no inverse.  All scratch is
// allocated in the constructor; forward() performs no heap allocation.
#ifndef NSYNC_DSP_BATCHED_FFT_HPP
#define NSYNC_DSP_BATCHED_FFT_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "dsp/fft.hpp"

namespace nsync::dsp {

namespace detail {
struct Radix2Plan;
struct BluesteinPlan;
}  // namespace detail

class BatchedRfftPlan {
 public:
  /// Plan for `lanes` real signals of length n (n >= 1, lanes >= 1).
  BatchedRfftPlan(std::size_t n, std::size_t lanes);
  ~BatchedRfftPlan();

  BatchedRfftPlan(BatchedRfftPlan&&) noexcept;
  BatchedRfftPlan& operator=(BatchedRfftPlan&&) noexcept;

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  /// Number of spectrum rows per lane: floor(n/2) + 1.
  [[nodiscard]] std::size_t bins() const { return n_ / 2 + 1; }
  /// Forward transform of all lanes.  Lane l reads n doubles starting at
  /// x + l * in_stride (in_stride >= n).  Writes the lane-interleaved
  /// split spectrum: bin k of lane l at spec_re/spec_im[k * lanes + l],
  /// bins() rows, so each plane needs bins() * lanes doubles.
  void forward(const double* x, std::size_t in_stride, double* spec_re,
               double* spec_im);

  /// Same transform, reading lane-interleaved input: sample k of lane l
  /// at x[k * lanes + l] (the layout of an interleaved multichannel
  /// signal frame block), n rows.  This is the zero-shuffle entry point —
  /// packing reduces to contiguous row copies.
  void forward_interleaved(const double* x, double* spec_re,
                           double* spec_im);

 private:
  enum class Mode { kOne, kPow2, kEvenBluestein, kOddBluestein };

  void pack_strided(const double* x, std::size_t in_stride);
  void pack_interleaved(const double* x);
  void forward_core(double* spec_re, double* spec_im);
  void run_bluestein(std::size_t data_rows,
                     const detail::BluesteinPlan& bplan,
                     const detail::Radix2Plan& conv_plan);
  void untangle_even(double* spec_re, double* spec_im);

  std::size_t n_ = 0;
  std::size_t lanes_ = 0;
  Mode mode_ = Mode::kOne;
  std::size_t h_ = 0;          ///< half length (even n) or n (odd n)
  std::size_t work_rows_ = 0;  ///< rows in the work planes (h or conv m)
  std::shared_ptr<const detail::Radix2Plan> half_plan_;  ///< pow2 half
  std::shared_ptr<const detail::Radix2Plan> conv_plan_;  ///< Bluestein m
  std::shared_ptr<const detail::BluesteinPlan> bluestein_;
  std::vector<double> tw_re_;  ///< untangle twiddles w_n^k, k < n/2
  std::vector<double> tw_im_;
  std::vector<double> work_re_;  ///< lane-interleaved scratch planes
  std::vector<double> work_im_;
};

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_BATCHED_FFT_HPP
