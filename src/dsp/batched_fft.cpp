#include "dsp/batched_fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/fft_internal.hpp"
#include "dsp/simd/simd.hpp"

namespace nsync::dsp {

namespace {
constexpr double kPi = std::numbers::pi;
namespace simd = nsync::dsp::simd;
}  // namespace

BatchedRfftPlan::BatchedRfftPlan(std::size_t n, std::size_t lanes)
    : n_(n), lanes_(lanes) {
  if (n == 0 || lanes == 0) {
    throw std::invalid_argument("BatchedRfftPlan: need n >= 1, lanes >= 1");
  }
  if (n == 1) {
    mode_ = Mode::kOne;
    return;
  }
  if (n % 2 == 0) {
    h_ = n / 2;
    tw_re_.resize(h_);
    tw_im_.resize(h_);
    // Same expression as the single-signal untangle twiddles (both the
    // cached RfftPlan table and the inline even-length formula): bit
    // parity with rfft() depends on reusing it verbatim.
    for (std::size_t k = 0; k < h_; ++k) {
      const double ang = -2.0 * kPi * static_cast<double>(k) /
                         static_cast<double>(n);
      tw_re_[k] = std::cos(ang);
      tw_im_[k] = std::sin(ang);
    }
    if (is_power_of_two(n)) {
      mode_ = Mode::kPow2;
      half_plan_ = detail::get_radix2_plan(h_);
      work_rows_ = h_;
    } else {
      // Even non-power-of-two: n = 2 * odd, so the half transform is
      // never a power of two — always Bluestein.
      mode_ = Mode::kEvenBluestein;
      bluestein_ = detail::get_bluestein_plan(h_, /*inverse=*/false);
      conv_plan_ = detail::get_radix2_plan(bluestein_->m);
      work_rows_ = bluestein_->m;
    }
  } else {
    mode_ = Mode::kOddBluestein;
    h_ = n;
    bluestein_ = detail::get_bluestein_plan(n, /*inverse=*/false);
    conv_plan_ = detail::get_radix2_plan(bluestein_->m);
    work_rows_ = bluestein_->m;
  }
  work_re_.resize(work_rows_ * lanes_);
  work_im_.resize(work_rows_ * lanes_);
}

BatchedRfftPlan::~BatchedRfftPlan() = default;
BatchedRfftPlan::BatchedRfftPlan(BatchedRfftPlan&&) noexcept = default;
BatchedRfftPlan& BatchedRfftPlan::operator=(BatchedRfftPlan&&) noexcept =
    default;

// Packs channel-major input (lane l at x + l * in_stride) into the split
// work planes: the half-size complex trick's z_k = x_{2k} + i * x_{2k+1}
// for even n, a zero-imaginary copy for odd n.  Bluestein modes zero the
// conversion padding first.
void BatchedRfftPlan::pack_strided(const double* x, std::size_t in_stride) {
  if (mode_ != Mode::kPow2) {
    std::fill(work_re_.begin(), work_re_.end(), 0.0);
    std::fill(work_im_.begin(), work_im_.end(), 0.0);
  }
  if (mode_ == Mode::kOddBluestein) {
    for (std::size_t k = 0; k < n_; ++k) {
      double* wr = work_re_.data() + k * lanes_;
      for (std::size_t l = 0; l < lanes_; ++l) wr[l] = x[l * in_stride + k];
    }
    return;
  }
  for (std::size_t k = 0; k < h_; ++k) {
    double* wr = work_re_.data() + k * lanes_;
    double* wi = work_im_.data() + k * lanes_;
    for (std::size_t l = 0; l < lanes_; ++l) {
      wr[l] = x[l * in_stride + 2 * k];
      wi[l] = x[l * in_stride + 2 * k + 1];
    }
  }
}

// Same, for lane-interleaved input (sample k of lane l at
// x[k * lanes + l]): packing is contiguous row copies, no shuffling.
void BatchedRfftPlan::pack_interleaved(const double* x) {
  if (mode_ != Mode::kPow2) {
    std::fill(work_re_.begin(), work_re_.end(), 0.0);
    std::fill(work_im_.begin(), work_im_.end(), 0.0);
  }
  if (mode_ == Mode::kOddBluestein) {
    std::copy_n(x, n_ * lanes_, work_re_.data());
    return;
  }
  for (std::size_t k = 0; k < h_; ++k) {
    std::copy_n(x + 2 * k * lanes_, lanes_, work_re_.data() + k * lanes_);
    std::copy_n(x + (2 * k + 1) * lanes_, lanes_,
                work_im_.data() + k * lanes_);
  }
}

// Batched Bluestein convolution over the work planes: the first
// `data_rows` rows hold the input (remaining conv rows must be zero).
// Mirrors the scalar bluestein() in fft.cpp step for step: chirp
// multiply, forward conv FFT, kernel multiply, inverse conv FFT
// (includes 1/m), chirp multiply.  Each lane sees the identical
// operation sequence, so lanes match the scalar path bitwise.
void BatchedRfftPlan::run_bluestein(std::size_t data_rows,
                                    const detail::BluesteinPlan& bplan,
                                    const detail::Radix2Plan& conv_plan) {
  const auto& k = simd::ops();
  k.cmul_rows_broadcast(work_re_.data(), work_im_.data(), data_rows, lanes_,
                        bplan.chirp_re.data(), bplan.chirp_im.data());
  detail::run_radix2_split_batch(work_re_.data(), work_im_.data(), lanes_,
                                 conv_plan, /*inverse=*/false);
  k.cmul_rows_broadcast(work_re_.data(), work_im_.data(), bplan.m, lanes_,
                        bplan.kernel_re.data(), bplan.kernel_im.data());
  detail::run_radix2_split_batch(work_re_.data(), work_im_.data(), lanes_,
                                 conv_plan, /*inverse=*/true);
  k.cmul_rows_broadcast(work_re_.data(), work_im_.data(), data_rows, lanes_,
                        bplan.chirp_re.data(), bplan.chirp_im.data());
}

// DC/Nyquist rows plus the k = 1 .. h-1 untangle, reading the half-size
// transform out of the work planes.
void BatchedRfftPlan::untangle_even(double* spec_re, double* spec_im) {
  for (std::size_t l = 0; l < lanes_; ++l) {
    const double wr0 = work_re_[l];
    const double wi0 = work_im_[l];
    spec_re[l] = wr0 + wi0;
    spec_im[l] = 0.0;
    spec_re[h_ * lanes_ + l] = wr0 - wi0;
    spec_im[h_ * lanes_ + l] = 0.0;
  }
  simd::ops().rfft_untangle_batch(work_re_.data(), work_im_.data(),
                                  tw_re_.data(), tw_im_.data(), h_, lanes_,
                                  spec_re, spec_im);
}

// Transform over the packed work planes into the spectrum planes.
void BatchedRfftPlan::forward_core(double* spec_re, double* spec_im) {
  switch (mode_) {
    case Mode::kOne:
      return;  // handled by the callers
    case Mode::kPow2:
      if (h_ > 1) {
        detail::run_radix2_split_batch(work_re_.data(), work_im_.data(),
                                       lanes_, *half_plan_,
                                       /*inverse=*/false);
      }
      untangle_even(spec_re, spec_im);
      return;
    case Mode::kEvenBluestein:
      run_bluestein(h_, *bluestein_, *conv_plan_);
      untangle_even(spec_re, spec_im);
      return;
    case Mode::kOddBluestein:
      run_bluestein(n_, *bluestein_, *conv_plan_);
      std::copy_n(work_re_.data(), bins() * lanes_, spec_re);
      std::copy_n(work_im_.data(), bins() * lanes_, spec_im);
      return;
  }
}

void BatchedRfftPlan::forward(const double* x, std::size_t in_stride,
                              double* spec_re, double* spec_im) {
  if (mode_ == Mode::kOne) {
    for (std::size_t l = 0; l < lanes_; ++l) {
      spec_re[l] = x[l * in_stride];
      spec_im[l] = 0.0;
    }
    return;
  }
  pack_strided(x, in_stride);
  forward_core(spec_re, spec_im);
}

void BatchedRfftPlan::forward_interleaved(const double* x, double* spec_re,
                                          double* spec_im) {
  if (mode_ == Mode::kOne) {
    std::copy_n(x, lanes_, spec_re);
    std::fill_n(spec_im, lanes_, 0.0);
    return;
  }
  pack_interleaved(x);
  forward_core(spec_re, spec_im);
}

}  // namespace nsync::dsp
