// SIMD <-> scalar equivalence suite: pins the dispatch layer's per-kernel
// contract (see DESIGN.md "SIMD dispatch layer").
//
//  * Bitwise claims: the radix-2/rfft/irfft pipeline, the cross-correlation
//    bin product and the TDEB epilogue produce bit-identical results under
//    every compiled-in backend, across a size sweep covering all three
//    planner modes (pow2, even-Bluestein, odd-Bluestein).
//  * ULP-bounded claims: kernels that reassociate a reduction (sum,
//    centered energy, prefix sums) may differ from the scalar backend by
//    at most the standard summation bound |a-b| <= 2*n*eps*sum|terms|,
//    checked here with a conservative relative tolerance.
//  * System claims: the MonitorEngine fleet reaches identical verdicts
//    under every backend, and a checkpoint written under one backend
//    restores and continues under another.
//
// Every test restores the startup backend on exit so suite order cannot
// leak a backend switch into unrelated tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/nsync.hpp"
#include "core/tde.hpp"
#include "dsp/fft.hpp"
#include "dsp/fft_internal.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/xcorr.hpp"
#include "engine/monitor_engine.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"
#include "signal/stats.hpp"
#include "test_support.hpp"

namespace nsync {
namespace {

namespace simd = nsync::dsp::simd;

using nsync::core::NsyncConfig;
using nsync::core::NsyncIds;
using nsync::core::SyncMethod;
using nsync::core::TdeOptions;
using nsync::core::TdeWorkspace;
using nsync::core::Thresholds;
using nsync::dsp::Complex;
using nsync::engine::ChannelSpec;
using nsync::engine::MonitorEngine;
using nsync::engine::SessionSnapshot;
using nsync::engine::SessionSpec;
using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;

/// Restores the startup backend when a test scope ends.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::active_isa()) {}
  ~BackendGuard() { simd::set_backend(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  simd::Isa saved_;
};

/// All backends this binary can actually run on this host.  Always
/// contains kScalar; contains kAvx2 when NSYNC_ENABLE_SIMD was ON on an
/// x86-64 target and the host supports AVX2.
std::vector<simd::Isa> available_backends() {
  std::vector<simd::Isa> out = {simd::Isa::kScalar};
  if (simd::backend_available(simd::Isa::kAvx2)) {
    out.push_back(simd::Isa::kAvx2);
  }
  return out;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

// Sizes covering every planner mode: powers of two, even non-pow2
// (even-Bluestein: the odd half forces the Bluestein path), and odd
// (odd-Bluestein), plus the n = 1 degenerate.
const std::size_t kSweepSizes[] = {1, 2, 4, 8, 64, 256,  // pow2
                                   6, 20, 52, 100,       // even Bluestein
                                   3, 17, 81};           // odd Bluestein

// ---------------------------------------------------------------------------
// Dispatch smoke

TEST(SimdDispatch, ResolvedBackendMatchesHost) {
  // Startup resolution picks the best compiled-in backend the host
  // supports.  NSYNC_SIMD overrides it only when it names an available
  // backend exactly; a mistyped, unknown or unavailable name leaves the
  // best backend in place (ctest also runs this suite with
  // NSYNC_SIMD=bogus).
  const char* env = std::getenv("NSYNC_SIMD");
  const std::string wanted = env != nullptr ? env : "";
  simd::Isa expected = simd::best_supported_isa();
  if (wanted == "scalar") {
    expected = simd::Isa::kScalar;
  } else if (wanted == "avx2" && simd::backend_available(simd::Isa::kAvx2)) {
    expected = simd::Isa::kAvx2;
  }
  EXPECT_EQ(simd::active_isa(), expected) << "NSYNC_SIMD=" << wanted;
  EXPECT_TRUE(simd::backend_available(simd::Isa::kScalar));
  EXPECT_TRUE(simd::backend_available(simd::best_supported_isa()));
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  // Names come from the enum, not from the backends compiled in.
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_EQ(std::string(simd::isa_name(simd::active_isa())),
            std::string(simd::ops().name));
  if (!simd::built_with_simd()) {
    EXPECT_EQ(simd::best_supported_isa(), simd::Isa::kScalar);
  }
}

TEST(SimdDispatch, SetBackendSwitchesAndRejectsUnavailable) {
  BackendGuard guard;
  ASSERT_TRUE(simd::set_backend(simd::Isa::kScalar));
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  if (simd::backend_available(simd::Isa::kAvx2)) {
    EXPECT_TRUE(simd::set_backend(simd::Isa::kAvx2));
    EXPECT_EQ(simd::active_isa(), simd::Isa::kAvx2);
  } else {
    const simd::Isa before = simd::active_isa();
    EXPECT_FALSE(simd::set_backend(simd::Isa::kAvx2));
    EXPECT_EQ(simd::active_isa(), before);  // failed switch is a no-op
  }
}

// ---------------------------------------------------------------------------
// Bitwise kernels

TEST(SimdBitwise, RfftIdenticalAcrossBackendsAllPlannerModes) {
  BackendGuard guard;
  const auto backends = available_backends();
  for (const std::size_t n : kSweepSizes) {
    const std::vector<double> x = random_vector(n, 0xF00 + n);
    ASSERT_TRUE(simd::set_backend(simd::Isa::kScalar));
    const std::vector<Complex> ref = nsync::dsp::rfft(x);
    for (const simd::Isa isa : backends) {
      ASSERT_TRUE(simd::set_backend(isa));
      const std::vector<Complex> got = nsync::dsp::rfft(x);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(got[k].real(), ref[k].real())
            << "n=" << n << " k=" << k << " isa=" << simd::isa_name(isa);
        EXPECT_EQ(got[k].imag(), ref[k].imag())
            << "n=" << n << " k=" << k << " isa=" << simd::isa_name(isa);
      }
    }
  }
}

TEST(SimdBitwise, IrfftRoundTripIdenticalAcrossBackends) {
  BackendGuard guard;
  const auto backends = available_backends();
  // irfft supports pow2 sizes (the only sizes the pipeline inverts).
  for (const std::size_t n : {std::size_t{2}, std::size_t{8}, std::size_t{64},
                              std::size_t{256}}) {
    const std::vector<double> x = random_vector(n, 0xABC + n);
    ASSERT_TRUE(simd::set_backend(simd::Isa::kScalar));
    const std::vector<Complex> bins = nsync::dsp::rfft(x);
    const std::vector<double> ref = nsync::dsp::irfft(bins, n);
    for (const simd::Isa isa : backends) {
      ASSERT_TRUE(simd::set_backend(isa));
      const std::vector<double> got = nsync::dsp::irfft(bins, n);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], ref[i])
            << "n=" << n << " i=" << i << " isa=" << simd::isa_name(isa);
      }
    }
  }
}

TEST(SimdBitwise, CrossCorrelateValidIdenticalAcrossBackends) {
  BackendGuard guard;
  const auto backends = available_backends();
  for (const std::size_t ny : {std::size_t{7}, std::size_t{32}}) {
    const std::vector<double> x = random_vector(257, 0xC0 + ny);
    const std::vector<double> y = random_vector(ny, 0xD0 + ny);
    nsync::dsp::CorrelationWorkspace ws;
    ASSERT_TRUE(simd::set_backend(simd::Isa::kScalar));
    std::vector<double> ref(x.size() - y.size() + 1);
    nsync::dsp::cross_correlate_valid_into(x, y, ref, ws);
    for (const simd::Isa isa : backends) {
      ASSERT_TRUE(simd::set_backend(isa));
      std::vector<double> got(ref.size());
      nsync::dsp::cross_correlate_valid_into(x, y, got, ws);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i], ref[i]) << "i=" << i
                                  << " isa=" << simd::isa_name(isa);
      }
    }
  }
}

TEST(SimdBitwise, TdebEpilogueSameArgmaxAcrossBackends) {
  BackendGuard guard;
  const auto backends = available_backends();
  Signal x(400, 2, 100.0);
  Signal y(60, 2, 100.0);
  {
    Rng rng(31);
    for (std::size_t n = 0; n < x.frames(); ++n)
      for (std::size_t c = 0; c < 2; ++c) x(n, c) = rng.normal();
    for (std::size_t n = 0; n < y.frames(); ++n)
      for (std::size_t c = 0; c < 2; ++c) y(n, c) = x(n + 100, c);
  }
  ASSERT_TRUE(simd::set_backend(simd::Isa::kScalar));
  TdeWorkspace ws_ref;
  const std::size_t ref = nsync::core::estimate_delay_biased(
      SignalView(x), SignalView(y), 100.0, 12.0, TdeOptions{}, ws_ref);
  EXPECT_EQ(ref, 100u);  // sanity: the planted delay wins
  for (const simd::Isa isa : backends) {
    ASSERT_TRUE(simd::set_backend(isa));
    TdeWorkspace ws;
    EXPECT_EQ(nsync::core::estimate_delay_biased(SignalView(x), SignalView(y),
                                                 100.0, 12.0, TdeOptions{}, ws),
              ref)
        << simd::isa_name(isa);
  }
}

TEST(SimdBitwise, MultichannelTdeIsChannelAverageOfSlidingPearson) {
  // Every channel count runs the single-lane sliding_pearson_fft per
  // channel, so multichannel scores are bitwise the channel average of
  // sliding_pearson_fft (summed in channel order, then scaled by 1/C) —
  // under every backend, through both API tiers.
  BackendGuard guard;
  Rng rng(77);
  for (const std::size_t C : {std::size_t{2}, std::size_t{3}, std::size_t{6}}) {
    Signal x(300, C, 100.0);
    Signal y(48, C, 100.0);
    for (std::size_t n = 0; n < x.frames(); ++n)
      for (std::size_t c = 0; c < C; ++c) x(n, c) = rng.normal();
    for (std::size_t n = 0; n < y.frames(); ++n)
      for (std::size_t c = 0; c < C; ++c)
        y(n, c) = x(n + 91, c) + 0.05 * rng.normal();
    const std::size_t n_out = x.frames() - y.frames() + 1;
    for (const simd::Isa isa : available_backends()) {
      ASSERT_TRUE(simd::set_backend(isa));
      std::vector<double> avg(n_out, 0.0);
      for (std::size_t c = 0; c < C; ++c) {
        const std::vector<double> s =
            nsync::dsp::sliding_pearson_fft(x.channel(c), y.channel(c));
        for (std::size_t n = 0; n < n_out; ++n) avg[n] += s[n];
      }
      for (auto& v : avg) v *= 1.0 / static_cast<double>(C);

      TdeWorkspace ws;
      const auto fused = nsync::core::similarity_scores_into(
          SignalView(x), SignalView(y), TdeOptions{}, ws);
      ASSERT_EQ(fused.size(), n_out);
      for (std::size_t n = 0; n < n_out; ++n) {
        EXPECT_EQ(fused[n], avg[n])
            << "C=" << C << " n=" << n << " " << simd::isa_name(isa);
      }
    }
  }
}

TEST(SimdBitwise, RfftIrfftMatchUnfusedCompositionAllPow2) {
  // rfft/irfft gather their half planes straight into bit-reversed order
  // instead of deinterleaving and then running run_radix2_split's in-place
  // swap pass.  That is data movement only: both must stay bitwise equal
  // to the unfused composition for every power of two up to 2^16.
  BackendGuard guard;
  for (const simd::Isa isa : available_backends()) {
    ASSERT_TRUE(simd::set_backend(isa));
    const auto& k = simd::ops();
    for (std::size_t n = 2; n <= (std::size_t{1} << 16); n <<= 1) {
      const std::size_t h = n / 2;
      const auto plan = nsync::dsp::detail::get_rfft_plan(n);
      const std::vector<double> x = random_vector(n, 0xF00 + n);
      std::vector<double> re(h), im(h);

      // Forward: deinterleave, run_radix2_split, untangle.
      k.deinterleave(x.data(), h, re.data(), im.data());
      if (h > 1) {
        nsync::dsp::detail::run_radix2_split(re.data(), im.data(),
                                             *plan->half, /*inverse=*/false);
      }
      std::vector<Complex> bins_ref(h + 1);
      bins_ref[0] = Complex(re[0] + im[0], 0.0);
      bins_ref[h] = Complex(re[0] - im[0], 0.0);
      k.rfft_untangle(re.data(), im.data(), plan->tw_re.data(),
                      plan->tw_im.data(), h, bins_ref.data());
      const std::vector<Complex> bins = nsync::dsp::rfft(x);
      ASSERT_EQ(bins.size(), h + 1);
      for (std::size_t i = 0; i <= h; ++i) {
        EXPECT_EQ(bins[i].real(), bins_ref[i].real())
            << "rfft n=" << n << " k=" << i << " " << simd::isa_name(isa);
        EXPECT_EQ(bins[i].imag(), bins_ref[i].imag())
            << "rfft n=" << n << " k=" << i << " " << simd::isa_name(isa);
      }

      // Inverse: untangle, deinterleave, run_radix2_split, interleave.
      std::vector<double> pairs(n), out_ref(n);
      k.irfft_untangle(bins_ref.data(), plan->tw_re.data(),
                       plan->tw_im.data(), h, pairs.data());
      k.deinterleave(pairs.data(), h, re.data(), im.data());
      if (h > 1) {
        nsync::dsp::detail::run_radix2_split(re.data(), im.data(),
                                             *plan->half, /*inverse=*/true);
      }
      k.interleave(re.data(), im.data(), h, out_ref.data());
      const std::vector<double> out = nsync::dsp::irfft(bins_ref, n);
      ASSERT_EQ(out.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], out_ref[i])
            << "irfft n=" << n << " i=" << i << " " << simd::isa_name(isa);
      }
    }
  }
}

TEST(SimdBitwise, Radix2PassPairMatchesTwoSinglePasses) {
  // One sweep of stages len and 2*len must leave the bits of two single
  // passes, for every power-of-two n up to 2^14, every len the pair can
  // take (2*len <= n), both directions and every backend.
  BackendGuard guard;
  for (const simd::Isa isa : available_backends()) {
    ASSERT_TRUE(simd::set_backend(isa));
    const auto& k = simd::ops();
    for (std::size_t n = 4; n <= (std::size_t{1} << 14); n <<= 1) {
      const auto plan = nsync::dsp::detail::get_rfft_plan(2 * n);
      const auto& r2 = *plan->half;  // the n-point radix-2 plan
      const std::vector<double> re0 = random_vector(n, 0xA100 + n);
      const std::vector<double> im0 = random_vector(n, 0xB100 + n);
      for (std::size_t len = 2; 2 * len <= n; len <<= 1) {
        for (const bool inverse : {false, true}) {
          std::vector<double> pr = re0, pi = im0, sr = re0, si = im0;
          k.radix2_pass_pair(pr.data(), pi.data(), n, len, r2.stage_twr(len),
                             r2.stage_twi(len), inverse);
          k.radix2_pass(sr.data(), si.data(), n, len, r2.stage_twr(len),
                        r2.stage_twi(len), inverse);
          k.radix2_pass(sr.data(), si.data(), n, 2 * len,
                        r2.stage_twr(2 * len), r2.stage_twi(2 * len),
                        inverse);
          EXPECT_EQ(std::memcmp(pr.data(), sr.data(), n * sizeof(double)), 0)
              << "re n=" << n << " len=" << len << " inverse=" << inverse
              << " " << simd::isa_name(isa);
          EXPECT_EQ(std::memcmp(pi.data(), si.data(), n * sizeof(double)), 0)
              << "im n=" << n << " len=" << len << " inverse=" << inverse
              << " " << simd::isa_name(isa);
        }
      }
    }
  }
}

TEST(SimdBitwise, Scale2ByReciprocalEqualsDivisionAllPow2) {
  // The inverse transforms scale by multiplying with 1/n where they used
  // to divide by n.  For n = 2^p the reciprocal is exact, so both round
  // the same real number: the bits must match division for random,
  // subnormal, tiny-normal, huge and signed-zero values at every p.
  BackendGuard guard;
  std::vector<double> v = random_vector(61, 0x5CA1E);
  for (double& x : v) {  // spread exponents over the whole double range
    x = std::ldexp(x, std::clamp(static_cast<int>(x * 250.0), -1060, 1000));
  }
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  for (const double x :
       {0.0, -0.0, tiny, -tiny, 3.0 * tiny, -77.0 * tiny, min_normal,
        -min_normal, 1.5 * min_normal, std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(), 1.0, -1.0}) {
    v.push_back(x);
  }
  for (int i = 0; i < 40; ++i) {
    v.push_back(tiny * static_cast<double>(1 + 97 * i) * (i % 2 ? -1.0 : 1.0));
  }
  const std::size_t len = v.size();
  for (const simd::Isa isa : available_backends()) {
    ASSERT_TRUE(simd::set_backend(isa));
    for (int p = 0; p < 63; ++p) {
      const double n = std::ldexp(1.0, p);
      std::vector<double> re = v;
      std::vector<double> im(v.rbegin(), v.rend());
      simd::ops().scale2(re.data(), im.data(), len, 1.0 / n);
      for (std::size_t i = 0; i < len; ++i) {
        const double want_re = v[i] / n;
        const double want_im = v[len - 1 - i] / n;
        EXPECT_EQ(std::memcmp(&re[i], &want_re, sizeof(double)), 0)
            << "p=" << p << " x=" << v[i] << " " << simd::isa_name(isa);
        EXPECT_EQ(std::memcmp(&im[i], &want_im, sizeof(double)), 0)
            << "p=" << p << " x=" << v[len - 1 - i] << " "
            << simd::isa_name(isa);
      }
    }
  }
}

TEST(SimdBitwise, RealDftMagnitudeIdenticalAcrossBackends) {
  // Every bin count 1..40 (full blocks of sixteen bins, then one to four
  // vectors with one to four live lanes in the last) at a few lengths:
  // each backend writes the bits of the per-bin j-order sum, and the
  // store stops at `bins` (the sentinel past it survives).
  BackendGuard guard;
  for (std::size_t bins = 1; bins <= 40; ++bins) {
    for (const std::size_t n : {1u, 7u, 33u}) {
      const auto x = random_vector(n, 100 * bins + n);
      const auto c = random_vector(n * bins, 7 * bins + n);
      const auto s = random_vector(n * bins, 11 * bins + n);
      std::vector<double> want(bins);
      for (std::size_t k = 0; k < bins; ++k) {
        double re = 0.0;
        double im = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          re += x[j] * c[j * bins + k];
          im += x[j] * s[j * bins + k];
        }
        want[k] = std::sqrt(re * re + im * im);
      }
      for (const simd::Isa isa : available_backends()) {
        ASSERT_TRUE(simd::set_backend(isa));
        std::vector<double> got(bins + 1, -1.0);
        simd::ops().real_dft_magnitude(x.data(), n, c.data(), s.data(), bins,
                                       got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), bins * sizeof(double)),
                  0)
            << "bins=" << bins << " n=" << n << " " << simd::isa_name(isa);
        EXPECT_EQ(got[bins], -1.0) << "bins=" << bins << " n=" << n;
      }
    }
  }
}

/// The CRC-32 register advanced one bit at a time: the definition every
/// backend's crc32_update must reproduce.
std::uint32_t crc32_bitwise_step(std::uint32_t state, std::uint8_t byte) {
  state ^= byte;
  for (int k = 0; k < 8; ++k) {
    state = (state & 1u) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
  }
  return state;
}

TEST(SimdBitwise, Crc32MatchesTableEveryLengthAndOffset) {
  // Every backend against the bit-at-a-time definition: every length
  // 0..4200 (the fold's 64-byte entry, 16-byte steps and < 16-byte table
  // tail all meet every residue) at every start offset 0..15, for random,
  // all-zero and all-ones bytes; then 2 MiB and 8 MiB buffers, the known
  // answer, and split feeding.
  BackendGuard guard;
  using Update = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                   std::size_t);
  std::vector<std::pair<simd::Isa, Update>> kernels;
  for (const simd::Isa isa : available_backends()) {
    ASSERT_TRUE(simd::set_backend(isa));
    kernels.emplace_back(isa, simd::ops().crc32_update);
  }
  constexpr std::uint32_t kInit = 0xFFFFFFFFu;
  constexpr std::size_t kMaxLen = 4200;
  constexpr std::size_t kOffsets = 16;
  Rng rng(0xC3C32);
  std::vector<std::uint8_t> noise(kMaxLen + kOffsets);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  std::vector<std::uint8_t> zeros(kMaxLen + kOffsets, 0x00);
  std::vector<std::uint8_t> ones(kMaxLen + kOffsets, 0xFF);
  for (const auto* fill : {&noise, &zeros, &ones}) {
    for (std::size_t offset = 0; offset < kOffsets; ++offset) {
      const std::uint8_t* p = fill->data() + offset;
      // The reference's running state is every prefix's register.
      std::uint32_t want = kInit;
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        for (const auto& [isa, update] : kernels) {
          ASSERT_EQ(update(kInit, p, len), want)
              << simd::isa_name(isa) << " fill " << int{(*fill)[0]}
              << " offset " << offset << " length " << len;
        }
        if (len < kMaxLen) want = crc32_bitwise_step(want, p[len]);
      }
    }
  }

  for (const std::size_t mib : {2, 8}) {
    std::vector<std::uint8_t> big(mib << 20);
    for (auto& b : big) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::uint32_t want = kInit;
    for (const std::uint8_t b : big) want = crc32_bitwise_step(want, b);
    for (const auto& [isa, update] : kernels) {
      EXPECT_EQ(update(kInit, big.data(), big.size()), want)
          << simd::isa_name(isa) << " " << mib << " MiB";
    }
  }

  const char* check = "123456789";
  for (const auto& [isa, update] : kernels) {
    EXPECT_EQ(update(kInit, reinterpret_cast<const std::uint8_t*>(check), 9) ^
                  0xFFFFFFFFu,
              0xCBF43926u)
        << simd::isa_name(isa);
  }

  // Feeding a buffer in two pieces leaves the register of feeding it whole.
  std::vector<std::uint8_t> buf(1 << 16);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(buf.size())));
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
    for (const auto& [isa, update] : kernels) {
      EXPECT_EQ(update(update(kInit, buf.data(), cut), buf.data() + cut,
                       n - cut),
                update(kInit, buf.data(), n))
          << simd::isa_name(isa) << " n " << n << " cut " << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// ULP-bounded kernels

// Conservative check of the reassociation bound: for data of magnitude
// ~O(1) and n <= 4096, 2*n*eps*sum|terms| is far below 1e-9 relative.
void expect_ulp_close(double a, double b, double scale, const char* what) {
  EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(scale)))
      << what << ": " << a << " vs " << b;
}

TEST(SimdUlpBounded, StatsMomentsCloseAcrossBackends) {
  BackendGuard guard;
  const auto backends = available_backends();
  const std::vector<double> u = random_vector(4096, 0x51);
  const std::vector<double> v = random_vector(4096, 0x52);
  ASSERT_TRUE(simd::set_backend(simd::Isa::kScalar));
  const double mean_ref = nsync::signal::mean(u);
  const double pear_ref = nsync::signal::pearson(u, v);
  for (const simd::Isa isa : backends) {
    ASSERT_TRUE(simd::set_backend(isa));
    expect_ulp_close(nsync::signal::mean(u), mean_ref, 1.0, "mean");
    expect_ulp_close(nsync::signal::pearson(u, v), pear_ref, 1.0, "pearson");
  }
}

TEST(SimdUlpBounded, SlidingPearsonCloseAcrossBackends) {
  BackendGuard guard;
  const auto backends = available_backends();
  const std::vector<double> x = random_vector(1000, 0x61);
  std::vector<double> y(64);
  std::copy_n(x.begin() + 300, y.size(), y.begin());
  ASSERT_TRUE(simd::set_backend(simd::Isa::kScalar));
  const std::vector<double> ref = nsync::dsp::sliding_pearson_fft(x, y);
  for (const simd::Isa isa : backends) {
    ASSERT_TRUE(simd::set_backend(isa));
    const std::vector<double> got = nsync::dsp::sliding_pearson_fft(x, y);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t n = 0; n < ref.size(); ++n) {
      // Scores are correlations in [-1, 1]; the prefix-sum and energy
      // reassociation perturbs them by well under 1e-9.
      EXPECT_NEAR(got[n], ref[n], 1e-9)
          << "n=" << n << " isa=" << simd::isa_name(isa);
    }
    // The planted-match argmax never moves.
    EXPECT_EQ(std::max_element(got.begin(), got.end()) - got.begin(),
              std::max_element(ref.begin(), ref.end()) - ref.begin());
  }
}

// ---------------------------------------------------------------------------
// System-level equivalence (MonitorEngine fleet, checkpoints)

Signal make_reference(std::size_t frames, std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, 2, 100.0);
  double lp0 = 0.0, lp1 = 0.0;
  for (std::size_t n = 0; n < frames; ++n) {
    lp0 += 0.35 * (rng.normal() - lp0);
    lp1 += 0.35 * (rng.normal() - lp1);
    s(n, 0) = lp0;
    s(n, 1) = lp1;
  }
  return s;
}

Signal benign_observation(const Signal& b, std::uint64_t seed) {
  Rng rng(seed);
  Signal a = Signal::empty(b.channels(), b.sample_rate());
  double src = 0.0;
  std::vector<double> row(b.channels());
  while (src < static_cast<double>(b.frames() - 1)) {
    const auto i0 = static_cast<std::size_t>(src);
    const double frac = src - static_cast<double>(i0);
    const std::size_t i1 = std::min(i0 + 1, b.frames() - 1);
    for (std::size_t c = 0; c < b.channels(); ++c) {
      row[c] = (1.0 - frac) * b(i0, c) + frac * b(i1, c) +
               rng.normal(0.0, 0.01);
    }
    a.append_frame(row);
    src += 1.0 + rng.normal(0.0, 0.002);
  }
  return a;
}

Signal malicious_observation(const Signal& b, std::uint64_t seed) {
  Signal a = benign_observation(b, seed);
  Rng rng(seed + 5000);
  const std::size_t lo = a.frames() / 3;
  const std::size_t hi = 2 * a.frames() / 3;
  double lp = 0.0;
  for (std::size_t n = lo; n < hi; ++n) {
    lp += 0.35 * (rng.normal() - lp);
    for (std::size_t c = 0; c < a.channels(); ++c) a(n, c) = lp;
  }
  return a;
}

NsyncConfig dwm_config() {
  NsyncConfig cfg;
  cfg.sync = SyncMethod::kDwm;
  cfg.dwm.n_win = 64;
  cfg.dwm.n_hop = 32;
  cfg.dwm.n_ext = 24;
  cfg.dwm.n_sigma = 12.0;
  cfg.dwm.eta = 0.2;
  cfg.r = 0.3;
  return cfg;
}

class SimdFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fit thresholds once, under the scalar backend, so every engine in
    // the test shares identical thresholds and only the monitoring
    // backend varies.
    BackendGuard guard;
    ASSERT_TRUE(simd::set_backend(simd::Isa::kScalar));
    cfg_ = dwm_config();
    reference_ = make_reference(1500, 77);
    NsyncIds ids(reference_, cfg_);
    std::vector<Signal> train;
    for (std::uint64_t s = 1; s <= 3; ++s) {
      train.push_back(benign_observation(reference_, s));
    }
    ids.fit(train);
    thresholds_ = ids.thresholds();
  }

  SessionSpec make_session(const std::string& name) const {
    SessionSpec spec;
    spec.name = name;
    for (const char* ch : {"ACC", "AUD"}) {
      ChannelSpec c;
      c.name = ch;
      c.reference = reference_;
      c.config = cfg_;
      c.thresholds = thresholds_;
      spec.channels.push_back(std::move(c));
    }
    return spec;
  }

  MonitorEngine make_engine() const {
    MonitorEngine eng;
    eng.add_session(make_session("benign"));
    eng.add_session(make_session("malicious"));
    return eng;
  }

  // Feeds observation chunks [from, to) of `chunk` frames to both
  // sessions (session 0 benign, session 1 malicious) and polls.
  void feed_rounds(MonitorEngine& eng, const Signal& benign,
                   const Signal& malicious, std::size_t chunk,
                   std::size_t from, std::size_t to) const {
    for (std::size_t r = from; r < to; ++r) {
      const std::size_t lo = r * chunk;
      if (lo >= benign.frames()) break;
      const std::size_t hi = std::min(benign.frames(), lo + chunk);
      for (const char* ch : {"ACC", "AUD"}) {
        eng.feed(0, ch, SignalView(benign).slice(lo, hi));
        eng.feed(1, ch, SignalView(malicious).slice(lo, hi));
      }
      eng.poll_inline();
    }
    eng.poll_inline();
  }

  NsyncConfig cfg_;
  Signal reference_;
  Thresholds thresholds_;
};

TEST_F(SimdFleetTest, FleetVerdictsIdenticalAcrossBackends) {
  BackendGuard guard;
  const Signal benign = benign_observation(reference_, 9);
  const Signal malicious = malicious_observation(reference_, 9);
  const std::size_t chunk = 113;
  const std::size_t rounds = benign.frames() / chunk + 1;

  std::vector<SessionSnapshot> ref_snaps;
  for (const simd::Isa isa : available_backends()) {
    ASSERT_TRUE(simd::set_backend(isa));
    MonitorEngine eng = make_engine();
    feed_rounds(eng, benign, malicious, chunk, 0, rounds);
    const auto snaps = test_support::snapshots(eng);
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_FALSE(snaps[0].intrusion) << simd::isa_name(isa);
    EXPECT_TRUE(snaps[1].intrusion) << simd::isa_name(isa);
    if (ref_snaps.empty()) {
      ref_snaps = snaps;
      continue;
    }
    for (std::size_t s = 0; s < snaps.size(); ++s) {
      EXPECT_EQ(snaps[s].intrusion, ref_snaps[s].intrusion)
          << "session " << s << " " << simd::isa_name(isa);
      EXPECT_EQ(snaps[s].first_alarm_window, ref_snaps[s].first_alarm_window)
          << "session " << s << " " << simd::isa_name(isa);
      ASSERT_EQ(snaps[s].channels.size(), ref_snaps[s].channels.size());
      for (std::size_t c = 0; c < snaps[s].channels.size(); ++c) {
        EXPECT_EQ(snaps[s].channels[c].health, ref_snaps[s].channels[c].health)
            << "session " << s << " channel " << c << " "
            << simd::isa_name(isa);
      }
    }
  }
}

TEST_F(SimdFleetTest, CheckpointWrittenUnderOneBackendRestoresUnderAnother) {
  // A checkpoint carries only signal/feature state, never backend
  // identity, so a fleet checkpointed on an AVX2 host must restore and
  // keep detecting on a scalar-only host (and vice versa).
  BackendGuard guard;
  if (simd::best_supported_isa() == simd::Isa::kScalar) {
    GTEST_SKIP() << "no vector backend compiled in / supported";
  }
  const std::string path = ::testing::TempDir() + "simd-xbackend.nckp";
  const Signal benign = benign_observation(reference_, 9);
  const Signal malicious = malicious_observation(reference_, 9);
  const std::size_t chunk = 113;
  const std::size_t rounds = benign.frames() / chunk + 1;
  const std::size_t kill = rounds / 2;

  ASSERT_TRUE(simd::set_backend(simd::best_supported_isa()));
  {
    MonitorEngine victim = make_engine();
    feed_rounds(victim, benign, malicious, chunk, 0, kill);
    victim.checkpoint(path);
  }
  ASSERT_TRUE(simd::set_backend(simd::Isa::kScalar));
  MonitorEngine revived = MonitorEngine::restore(path);
  feed_rounds(revived, benign, malicious, chunk, kill, rounds);
  const auto snaps = test_support::snapshots(revived);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_FALSE(snaps[0].intrusion);
  EXPECT_TRUE(snaps[1].intrusion);
  EXPECT_GE(snaps[1].first_alarm_window, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nsync
