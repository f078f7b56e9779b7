// Internal: per-backend kernel declarations for the dispatch table.
//
// Every backend exposes the same free-function set inside its own
// namespace; dispatch.cpp wires them into simd::Ops tables.  The scalar
// backend is the reference — its bodies are literal transcriptions of the
// loops that used to live inline in fft.cpp / xcorr.cpp / stats.cpp /
// tde.cpp / checkpoint.cpp, so the scalar backend is bitwise identical to
// the pre-dispatch implementation.  Vector backends must match it per the
// contract in simd.hpp (bitwise for lane-parallel kernels, bounded-ULP for
// reassociating reductions, exact for the CRC-32).
//
// The signature list is kept in one macro so the backends cannot drift
// apart.
#ifndef NSYNC_DSP_SIMD_KERNELS_HPP
#define NSYNC_DSP_SIMD_KERNELS_HPP

#include "dsp/simd/simd.hpp"

// clang-format off
#define NSYNC_SIMD_DECLARE_KERNELS                                           \
  void radix2_pass(double* re, double* im, std::size_t n, std::size_t len,   \
                   const double* twr, const double* twi, bool inverse);      \
  void radix2_pass_pair(double* re, double* im, std::size_t n,               \
                        std::size_t len, const double* twr,                  \
                        const double* twi, bool inverse);                    \
  void scale2(double* re, double* im, std::size_t n, double s);              \
  void cmul_split_inplace(double* ar, double* ai, const double* br,          \
                          const double* bi, std::size_t n);                  \
  void rfft_untangle(const double* hre, const double* him,                   \
                     const double* twr, const double* twi, std::size_t h,    \
                     Complex* out);                                          \
  void rfft_untangle_product(const double* xr, const double* xi,             \
                             const double* yr, const double* yi,             \
                             const double* twr, const double* twi,           \
                             std::size_t h, Complex* out);                   \
  void irfft_untangle(const Complex* bins, const double* twr,                \
                      const double* twi, std::size_t h, double* out);        \
  void deinterleave(const double* xy, std::size_t n, double* re,             \
                    double* im);                                             \
  void interleave(const double* re, const double* im, std::size_t n,         \
                  double* xy);                                               \
  void subtract_scalar(const double* src, double mu, double* dst,            \
                       std::size_t n);                                       \
  void normalize_windows(const double* ps, const double* ps2,                \
                         std::size_t ny, double y_norm, const double* num,   \
                         double* out, std::size_t n_out);                    \
  std::size_t clamp_weight_argmax(const double* scores, const double* w,     \
                                  std::size_t n);                            \
  void real_dft_magnitude(const double* x, std::size_t n, const double* c,   \
                          const double* s, std::size_t bins, double* out);   \
  void channel_sums(const double* data, std::size_t frames,                  \
                    std::size_t channels, double* sums);                     \
  double sum(const double* x, std::size_t n);                                \
  double subtract_scalar_energy(const double* src, double mu, double* dst,   \
                                std::size_t n);                              \
  void pearson_accumulate(const double* u, const double* v, double mu,       \
                          double mv, std::size_t n, double* num,             \
                          double* du2, double* dv2);                         \
  void prefix_sums(const double* x, double* ps, double* ps2, std::size_t n); \
  std::uint32_t crc32_update(std::uint32_t state, const std::uint8_t* p,     \
                             std::size_t n);
// clang-format on

namespace nsync::dsp::simd {

namespace scalar {
NSYNC_SIMD_DECLARE_KERNELS
}  // namespace scalar

#if defined(NSYNC_SIMD_HAVE_AVX2)
namespace avx2 {
NSYNC_SIMD_DECLARE_KERNELS
}  // namespace avx2
#endif

}  // namespace nsync::dsp::simd

#undef NSYNC_SIMD_DECLARE_KERNELS

#endif  // NSYNC_DSP_SIMD_KERNELS_HPP
