// Tests for the FFT: agreement with a brute-force DFT, round trips,
// Parseval's identity, real-input symmetry, the valid-mode
// cross-correlation used by the fast TDE path, and the thread-safe plan
// cache (cached vs uncached equivalence, Bluestein plans, concurrency).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/fft_internal.hpp"
#include "dsp/reference/reference.hpp"
#include "dsp/simd/simd.hpp"
#include "runtime/thread_pool.hpp"
#include "signal/rng.hpp"

namespace nsync::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

std::vector<Complex> brute_force_dft(std::span<const Complex> x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * kPi * static_cast<double>(k * t) /
                         static_cast<double>(n);
      acc += x[t] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<Complex> random_complex(std::size_t n, std::uint64_t seed) {
  nsync::signal::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) x = Complex(rng.normal(), rng.normal());
  return v;
}

TEST(FftHelpers, PowerOfTwoPredicates) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(1023));
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(5), 8u);
  EXPECT_EQ(next_power_of_two(1024), 1024u);
  EXPECT_EQ(next_power_of_two(1025), 2048u);
}

TEST(FftRadix2, RejectsNonPowerOfTwo) {
  std::vector<Complex> v(6);
  EXPECT_THROW(fft_radix2(v), std::invalid_argument);
}

class FftAgainstDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftAgainstDft, MatchesBruteForce) {
  const std::size_t n = GetParam();
  const auto x = random_complex(n, 1234 + n);
  const auto fast = fft(x);
  const auto slow = brute_force_dft(x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-8 * static_cast<double>(n))
        << "bin " << k;
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-8 * static_cast<double>(n))
        << "bin " << k;
  }
}

// Mix of power-of-two (radix-2 path) and arbitrary sizes (Bluestein path).
INSTANTIATE_TEST_SUITE_P(Sizes, FftAgainstDft,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 17,
                                           31, 32, 60, 64, 100, 128, 243));

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftInvertsFft) {
  const std::size_t n = GetParam();
  const auto x = random_complex(n, 777 + n);
  const auto back = ifft(fft(x));
  ASSERT_EQ(back.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 3, 8, 15, 64, 100, 256));

TEST(Fft, ParsevalIdentity) {
  const auto x = random_complex(128, 5);
  const auto y = fft(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * 128.0, 1e-6 * freq_energy);
}

TEST(Rfft, DetectsToneInCorrectBin) {
  const std::size_t n = 256;
  const double fs = 256.0;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * kPi * 32.0 * static_cast<double>(i) / fs);
  }
  const auto mags = rfft_magnitude(x);
  ASSERT_EQ(mags.size(), n / 2 + 1);
  std::size_t best = 0;
  for (std::size_t k = 1; k < mags.size(); ++k) {
    if (mags[k] > mags[best]) best = k;
  }
  EXPECT_EQ(best, 32u);  // bin = f * n / fs
  EXPECT_NEAR(mags[32], 128.0, 1e-6);  // amplitude n/2 for a unit sine
}

TEST(Rfft, RealInputLength) {
  std::vector<double> x(100, 1.0);
  const auto bins = rfft(x);
  EXPECT_EQ(bins.size(), 51u);
  EXPECT_NEAR(bins[0].real(), 100.0, 1e-9);  // DC = sum
}

// --------------------------------------------------------------------------
// Real-input transforms: the half-size complex trick must agree with the
// full complex FFT on every path (power-of-two, even Bluestein, odd
// fallback) and invert exactly.
// --------------------------------------------------------------------------

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  nsync::signal::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

class RfftAgainstFullFft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftAgainstFullFft, HalfSizeTrickMatchesComplexTransform) {
  const std::size_t n = GetParam();
  const auto x = random_real(n, 3000 + n);
  std::vector<Complex> xc(n);
  for (std::size_t i = 0; i < n; ++i) xc[i] = Complex(x[i], 0.0);
  const auto full = fft(xc);
  const auto half = rfft(x);
  ASSERT_EQ(half.size(), n / 2 + 1);
  const double tol = 1e-9 * static_cast<double>(std::max<std::size_t>(n, 8));
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_NEAR(half[k].real(), full[k].real(), tol) << "bin " << k;
    EXPECT_NEAR(half[k].imag(), full[k].imag(), tol) << "bin " << k;
  }
}

// 2..4096: radix-2 path; 6, 100, 250: even half-size with Bluestein half;
// 1, 15, 101: odd fallback through the complex transform.
INSTANTIATE_TEST_SUITE_P(Sizes, RfftAgainstFullFft,
                         ::testing::Values(1, 2, 4, 6, 15, 64, 100, 101, 250,
                                           256, 4096));

class RfftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftRoundTrip, IrfftInvertsRfft) {
  const std::size_t n = GetParam();
  const auto x = random_real(n, 5000 + n);
  const auto back = irfft(rfft(x), n);
  ASSERT_EQ(back.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9) << "sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RfftRoundTrip,
                         ::testing::Values(1, 2, 4, 6, 15, 64, 100, 101, 250,
                                           256, 1024));

TEST(Rfft, IrfftRejectsWrongBinCount) {
  std::vector<Complex> bins(5);
  EXPECT_THROW(irfft(bins, 16), std::invalid_argument);
  EXPECT_EQ(irfft(bins, 0).size(), 0u);
}

TEST(Rfft, PlannedMatchesUnplannedReferenceBitwise) {
  // Every length has a cached real-FFT plan (radix-2 half, Bluestein half
  // or odd Bluestein), and each must reproduce the complex-fft() route it
  // replaced bit for bit, under every backend the host can run.
  const simd::Isa saved = simd::active_isa();
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (!simd::set_backend(isa)) continue;
    for (std::size_t n = 1; n <= 1100; ++n) {
      const auto x = random_real(n, 7000 + n);
      const std::vector<Complex> planned = rfft(x);
      const std::vector<Complex> reference = rfft_unplanned(x);
      ASSERT_EQ(planned.size(), reference.size()) << "n=" << n;
      EXPECT_EQ(std::memcmp(planned.data(), reference.data(),
                            planned.size() * sizeof(Complex)),
                0)
          << "n=" << n << " isa=" << simd::isa_name(isa);
    }
  }
  simd::set_backend(saved);
}

/// cross_correlate_valid_into on a fresh workspace.
std::vector<double> correlate(std::span<const double> x,
                              std::span<const double> y) {
  CorrelationWorkspace ws;
  std::vector<double> out(x.size() >= y.size() ? x.size() - y.size() + 1 : 0);
  cross_correlate_valid_into(x, y, out, ws);
  return out;
}

TEST(CrossCorrelateValid, MatchesBruteForce) {
  nsync::signal::Rng rng(9);
  std::vector<double> x(50), y(13);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  const auto fast = correlate(x, y);
  ASSERT_EQ(fast.size(), x.size() - y.size() + 1);
  for (std::size_t k = 0; k < fast.size(); ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) acc += x[k + i] * y[i];
    EXPECT_NEAR(fast[k], acc, 1e-9);
  }
}

TEST(CrossCorrelateValid, WorkspaceHoldsItsPlanAcrossCalls) {
  // The per-window correlation must not go back to the shared plan cache
  // (a lock plus a reference count that shard threads contend on) while
  // its transform size stays the same; a new size refetches.
  const auto x = random_real(100, 31);
  const auto y = random_real(20, 32);
  CorrelationWorkspace ws;
  std::vector<double> out(x.size() - y.size() + 1);
  cross_correlate_valid_into(x, y, out, ws);
  const auto* const plan = ws.plan.get();
  const long owners = ws.plan.use_count();
  for (int i = 0; i < 3; ++i) cross_correlate_valid_into(x, y, out, ws);
  EXPECT_EQ(ws.plan.get(), plan);
  EXPECT_EQ(ws.plan.use_count(), owners);
  EXPECT_EQ(correlate(x, y), out);

  const auto x_long = random_real(300, 33);
  std::vector<double> out_long(x_long.size() - y.size() + 1);
  cross_correlate_valid_into(x_long, y, out_long, ws);
  EXPECT_NE(ws.plan.get(), plan);
  EXPECT_EQ(ws.plan->n, correlation_fft_size(x_long.size()));
  EXPECT_EQ(correlate(x_long, y), out_long);
}

TEST(CrossCorrelateValid, FindsEmbeddedTemplate) {
  nsync::signal::Rng rng(10);
  std::vector<double> y(16);
  for (auto& v : y) v = rng.normal();
  std::vector<double> x(100, 0.0);
  const std::size_t at = 37;
  for (std::size_t i = 0; i < y.size(); ++i) x[at + i] = y[i];
  const auto scores = correlate(x, y);
  std::size_t best = 0;
  for (std::size_t k = 1; k < scores.size(); ++k) {
    if (scores[k] > scores[best]) best = k;
  }
  EXPECT_EQ(best, at);
}

TEST(CrossCorrelateValid, RejectsBadSizes) {
  std::vector<double> x(5), y(9);
  EXPECT_THROW(correlate(x, y), std::invalid_argument);
  EXPECT_THROW(correlate(x, {}), std::invalid_argument);
}

TEST(CrossCorrelateValid, RfftPathMatchesComplexPath) {
  // The production path (real transforms on a workspace) against the
  // pre-rfft full-complex implementation, across padding sizes.
  for (const std::size_t nx : {16u, 50u, 255u, 1000u}) {
    const std::size_t ny = nx / 3 + 1;
    const auto x = random_real(nx, 61 + nx);
    const auto y = random_real(ny, 62 + nx);
    const auto real_path = correlate(x, y);
    const auto complex_path = cross_correlate_valid_complex(x, y);
    ASSERT_EQ(real_path.size(), complex_path.size());
    for (std::size_t k = 0; k < real_path.size(); ++k) {
      EXPECT_NEAR(real_path[k], complex_path[k],
                  1e-9 * static_cast<double>(nx))
          << "nx " << nx << " lag " << k;
    }
  }
}

TEST(CrossCorrelateValid, WorkspaceReuseAcrossShapesIsClean) {
  // A workspace carried across differently-sized calls must not leak
  // state from one call into the next (stale padding is the classic bug).
  CorrelationWorkspace ws;
  for (const std::size_t nx : {200u, 37u, 512u, 64u}) {
    const std::size_t ny = nx / 4 + 2;
    const auto x = random_real(nx, 71 + nx);
    const auto y = random_real(ny, 72 + nx);
    std::vector<double> out(nx - ny + 1);
    cross_correlate_valid_into(x, y, out, ws);
    const auto fresh = correlate(x, y);
    for (std::size_t k = 0; k < out.size(); ++k) {
      EXPECT_DOUBLE_EQ(out[k], fresh[k]) << "nx " << nx << " lag " << k;
    }
  }
}

// --------------------------------------------------------------------------
// Transform size: valid-lag correlation pads to correlation_fft_size(nx),
// not nx + ny.  A circular wrap of that size folds only onto discarded
// lags, so shapes at and around a power of two must still match a direct
// sum exactly (to rounding), and the workspace must really run that size.
// --------------------------------------------------------------------------

TEST(CorrelationFftSize, IsNextPowerOfTwoOfNxWithAFloorOfTwo) {
  EXPECT_EQ(correlation_fft_size(1), 2u);
  EXPECT_EQ(correlation_fft_size(2), 2u);
  EXPECT_EQ(correlation_fft_size(3), 4u);
  EXPECT_EQ(correlation_fft_size(1024), 1024u);
  EXPECT_EQ(correlation_fft_size(1025), 2048u);
}

TEST(CrossCorrelateValid, ExactAtTransformWrapBoundaries) {
  // k = 1 includes nx = ny = 1, which runs on the size-2 floor.
  CorrelationWorkspace ws;
  for (const std::size_t k : {1u, 3u, 5u, 7u}) {
    const std::size_t p = std::size_t{1} << k;
    for (const std::size_t nx : {p - 1, p, p + 1}) {
      for (const std::size_t ny : {std::size_t{1}, std::size_t{2}, nx / 2, nx}) {
        if (ny < 1 || ny > nx) continue;
        const auto x = random_real(nx, 81 + nx);
        const auto y = random_real(ny, 82 + ny);
        std::vector<double> out(nx - ny + 1);
        cross_correlate_valid_into(x, y, out, ws);
        EXPECT_EQ(ws.plan->n, correlation_fft_size(nx))
            << "nx " << nx << " ny " << ny;
        for (std::size_t lag = 0; lag < out.size(); ++lag) {
          double acc = 0.0;
          for (std::size_t i = 0; i < ny; ++i) acc += x[lag + i] * y[i];
          EXPECT_NEAR(out[lag], acc, 1e-9)
              << "nx " << nx << " ny " << ny << " lag " << lag;
        }
      }
    }
  }
}

// Finite data with the awkward values mixed in: -0.0, +0.0, subnormals
// and large magnitudes next to N(0, 1) draws.
std::vector<double> awkward_real(std::size_t n, std::uint64_t seed) {
  nsync::signal::Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 8)) {
      case 0:
        v[i] = -0.0;
        break;
      case 1:
        v[i] = 0.0;
        break;
      case 2:
        v[i] = std::numeric_limits<double>::denorm_min() *
               static_cast<double>(rng.uniform_int(1, 4096)) *
               (rng.normal() < 0 ? -1.0 : 1.0);
        break;
      case 3:
        v[i] = rng.normal() * 1e100;
        break;
      default:
        v[i] = rng.normal();
    }
  }
  return v;
}

// The correlation as the composition it replaced: pad x and reversed y
// to m, two rfft_pow2_split calls, the naive bin product, one
// irfft_pow2_split, then the valid slice.
std::vector<double> unfused_correlation(std::span<const double> x,
                                        std::span<const double> y) {
  const std::size_t nx = x.size();
  const std::size_t ny = y.size();
  const std::size_t m = correlation_fft_size(nx);
  const std::size_t h = m / 2;
  const auto plan = detail::get_rfft_plan(m);
  std::vector<double> x_pad(m, 0.0), y_pad(m, 0.0), re(h), im(h);
  std::copy(x.begin(), x.end(), x_pad.begin());
  for (std::size_t i = 0; i < ny; ++i) y_pad[i] = y[ny - 1 - i];
  std::vector<Complex> sx(h + 1), sy(h + 1);
  detail::rfft_pow2_split(x_pad, sx, re.data(), im.data(), *plan);
  detail::rfft_pow2_split(y_pad, sy, re.data(), im.data(), *plan);
  for (std::size_t k = 0; k <= h; ++k) {
    const double ar = sx[k].real(), ai = sx[k].imag();
    const double br = sy[k].real(), bi = sy[k].imag();
    sx[k] = Complex(ar * br - ai * bi, ar * bi + ai * br);
  }
  detail::irfft_pow2_split(sx, x_pad, re.data(), im.data(), *plan);
  return {x_pad.begin() + static_cast<std::ptrdiff_t>(ny - 1),
          x_pad.begin() + static_cast<std::ptrdiff_t>(nx)};
}

TEST(CrossCorrelateValid, MatchesUnfusedCompositionBitwise) {
  // The fused pack -> stages -> product -> stages -> tail must return the
  // bits of the composition, under every backend: every nx up to 1100
  // (odd included) against ny = 1, odd and even middles and ny = nx, and
  // the four TDEB shapes with their odd neighbours.
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (std::size_t nx = 1; nx <= 1100; ++nx) {
    for (const std::size_t ny :
         {std::size_t{1}, nx, (nx + 1) / 2, 1 + (nx * 37) % nx}) {
      shapes.emplace_back(nx, ny);
    }
  }
  for (const auto& [nx, ny] : std::vector<std::pair<std::size_t, std::size_t>>{
           {480, 400}, {3200, 1600}, {4800, 4000}, {32000, 16000},
           {481, 401}, {3201, 1601}, {4801, 4001}, {32001, 16001}}) {
    shapes.emplace_back(nx, ny);
  }
  const simd::Isa saved = simd::active_isa();
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (!simd::set_backend(isa)) continue;
    CorrelationWorkspace ws;
    for (const auto& [nx, ny] : shapes) {
      const auto x = awkward_real(nx, 0x5A00 + nx);
      const auto y = awkward_real(ny, 0x6B00 + ny);
      const std::vector<double> ref = unfused_correlation(x, y);
      std::vector<double> out(nx - ny + 1);
      cross_correlate_valid_into(x, y, out, ws);
      ASSERT_EQ(ref.size(), out.size());
      ASSERT_EQ(std::memcmp(ref.data(), out.data(),
                            out.size() * sizeof(double)),
                0)
          << "nx " << nx << " ny " << ny << " isa " << simd::isa_name(isa);
    }
  }
  simd::set_backend(saved);
}

// --------------------------------------------------------------------------
// Plan cache: cached transforms must agree with the uncached reference
// implementation (the table-lookup twiddles differ from the recurrence
// only by accumulated rounding, so compare with a tight tolerance).
// --------------------------------------------------------------------------

class FftPlanCacheEquivalence : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(FftPlanCacheEquivalence, CachedMatchesUncachedRadix2) {
  const std::size_t n = GetParam();
  const auto x = random_complex(n, 4242 + n);
  for (const bool inverse : {false, true}) {
    auto cached = x;
    auto uncached = x;
    fft_radix2(cached, inverse);
    fft_radix2_uncached(uncached, inverse);
    const double tol = 1e-9 * static_cast<double>(n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(cached[k].real(), uncached[k].real(), tol)
          << "bin " << k << " inverse=" << inverse;
      EXPECT_NEAR(cached[k].imag(), uncached[k].imag(), tol)
          << "bin " << k << " inverse=" << inverse;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwoSizes, FftPlanCacheEquivalence,
                         ::testing::Values(2, 4, 8, 64, 256, 1024, 4096));

// Odd, prime and prime-power sizes all take the Bluestein path, whose
// chirp and kernel now come from the plan cache; they must still agree
// with the brute-force DFT and invert exactly.
class FftPlanCacheBluestein : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanCacheBluestein, CachedBluesteinMatchesBruteForce) {
  const std::size_t n = GetParam();
  const auto x = random_complex(n, 999 + n);
  const auto fast = fft(x);    // first call builds the plan ...
  const auto again = fft(x);   // ... second call must reuse it bit-for-bit
  const auto slow = brute_force_dft(x);
  ASSERT_EQ(fast.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(fast[k], again[k]) << "plan reuse changed bin " << k;
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-8 * static_cast<double>(n))
        << "bin " << k;
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-8 * static_cast<double>(n))
        << "bin " << k;
  }
  const auto back = ifft(fast);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(OddAndPrimeSizes, FftPlanCacheBluestein,
                         ::testing::Values(3, 9, 15, 17, 97, 101, 243, 251));

TEST(FftPlanCache, ConcurrentMixedSizeTransformsAreRaceFreeAndIdentical) {
  // Mixed radix-2 and Bluestein sizes, all threads racing to build the
  // same plans on first use (ctest runs each test in a fresh process, so
  // the parallel pass meets an empty cache); every result must equal the
  // serial one computed afterwards.
  const std::vector<std::size_t> sizes = {8, 17, 64, 100, 251, 256};
  std::vector<std::vector<Complex>> inputs;
  std::vector<std::vector<Complex>> serial;
  inputs.reserve(sizes.size());
  serial.reserve(sizes.size());
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    inputs.push_back(random_complex(sizes[s], 60 + s));
  }

  nsync::runtime::ThreadPool pool(8);
  constexpr std::size_t kRounds = 64;
  std::vector<std::vector<Complex>> parallel(kRounds);
  pool.parallel_for(0, kRounds, [&](std::size_t r) {
    parallel[r] = fft(inputs[r % sizes.size()]);
  });
  for (const auto& in : inputs) serial.push_back(fft(in));
  for (std::size_t r = 0; r < kRounds; ++r) {
    EXPECT_EQ(parallel[r], serial[r % sizes.size()]) << "round " << r;
  }
}

}  // namespace
}  // namespace nsync::dsp
